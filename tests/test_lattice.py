"""Row samplers, complement duality, heights, and the block coloring."""

import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from sixvertex import lattice, rng
from sixvertex.lattice import (
    ColoringScheme,
    ParameterField,
    PathEnsemble,
    _carry_rows,
    _coin_rows,
    _liquid_rows,
    _replay_s6v,
    admissibility_violations,
    complement,
    height_H,
    height_h,
    make_coloring,
    make_field,
    mod2_project,
    sample_colored_cs6v,
    sample_cs6v,
    sample_s6v,
    sample_two_colored_with_boundary,
    select_color,
    verify_monotonicity,
)
from sixvertex.lmatrix import MAX_COLORS, vertex_outcome
from sixvertex.rng import row_uniforms
from sixvertex.serialize import ensemble_to_bytes
from admissibility_oracle import admissibility_violations as admissibility_oracle
from cell_oracle import cell_uniforms
from monotonicity_oracle import monotonicity_trials as monotonicity_oracle
from sweep_oracle import sweep_rows

HOMOG = make_field(0.3, 0.7)
INHOMOG = make_field([[0.1, 0.4], [0.3, 0.2], [0.25, 0.35]],
                     [[0.7, 0.8], [0.6, 0.9], [0.75, 0.65]])  # I=3, J=2


# ---------------------------------------------------------------------------
# Parameter fields

def test_field_shapes_and_periods():
    assert HOMOG.I == 1 and HOMOG.J == 1
    assert INHOMOG.I == 3 and INHOMOG.J == 2
    assert INHOMOG.at(1, 1) == (0.1, 0.7)
    assert INHOMOG.at(2, 2) == (0.2, 0.9)
    # periodic continuation in both axes
    assert INHOMOG.at(4, 3) == INHOMOG.at(1, 1)
    assert INHOMOG.at(7, 8) == INHOMOG.at(1, 2)
    b1r, b2r = INHOMOG.rows(2, 7)
    assert b1r.tolist() == [0.4, 0.2, 0.35, 0.4, 0.2, 0.35, 0.4]
    assert b2r.tolist() == [0.8, 0.9, 0.65, 0.8, 0.9, 0.65, 0.8]


def test_field_validation():
    with pytest.raises(ValueError):
        make_field([[0.5, 1.2]], [[0.5, 0.5]])
    # compatible shapes broadcast (scalar-like b1 against a periodic b2)
    f = make_field([[0.5]], [[0.4, 0.6]])
    assert f.at(1, 1) == (0.5, 0.4)
    assert f.at(1, 2) == (0.5, 0.6)
    assert f.at(1, 3) == (0.5, 0.4)
    with pytest.raises(ValueError):
        make_field([[0.5], [0.5]], [[0.4], [0.5], [0.6]])
    f = make_field(0.5, 0.5)
    with pytest.raises(ValueError):
        f.b1[0, 0] = 0.1  # fields are frozen


def test_ensemble_validation():
    z = np.zeros((3, 2), dtype=np.uint8)
    with pytest.raises(ValueError):
        PathEnsemble("wrong", 1, 3, 2, z, z, np.zeros(2, np.uint8),
                     np.zeros(3, np.uint8))
    with pytest.raises(ValueError):
        PathEnsemble("s6v", 1, 3, 2, z, z, np.zeros(3, np.uint8),
                     np.zeros(3, np.uint8))


# ---------------------------------------------------------------------------
# Samplers

def test_determinism_and_replica_separation():
    a = sample_s6v(64, 64, HOMOG, 5)
    b = sample_s6v(64, 64, HOMOG, 5)
    c = sample_s6v(64, 64, HOMOG, 5, replica=1)
    d = sample_s6v(64, 64, HOMOG, 6)
    assert np.array_equal(a.v_edges, b.v_edges)
    assert np.array_equal(a.h_edges, b.h_edges)
    assert not np.array_equal(a.v_edges, c.v_edges)
    assert not np.array_equal(a.v_edges, d.v_edges)


def test_s6v_boundary_and_conservation():
    e = sample_s6v(23, 17, INHOMOG, 3)
    assert e.variant == "s6v"
    assert e.boundary_left.all() and not e.boundary_bottom.any()
    south_in = np.concatenate([e.boundary_bottom[:, None],
                               e.v_edges[:, :-1]], axis=1)
    west_in = np.concatenate([e.boundary_left[None, :],
                              e.h_edges[:-1, :]], axis=0)
    # lines neither appear nor vanish
    assert np.array_equal(south_in + west_in, e.v_edges + e.h_edges)


def test_cs6v_boundary_and_parity():
    e = sample_cs6v(23, 17, INHOMOG, 3)
    assert e.variant == "cs6v"
    assert not e.boundary_left.any() and not e.boundary_bottom.any()
    south_in = np.concatenate([e.boundary_bottom[:, None],
                               e.v_edges[:, :-1]], axis=1)
    west_in = np.concatenate([e.boundary_left[None, :],
                              e.h_edges[:-1, :]], axis=0)
    # corners are created and destroyed in pairs
    assert not ((south_in ^ west_in ^ e.v_edges ^ e.h_edges) & 1).any()


@pytest.mark.parametrize("field", [HOMOG, INHOMOG])
@pytest.mark.parametrize("seed", [0, 11])
def test_complement_duality_is_pathwise(field, seed):
    es = sample_s6v(31, 26, field, seed)
    ec = sample_cs6v(31, 26, field, seed)
    f = complement(es)
    assert np.array_equal(f.v_edges, ec.v_edges)
    assert np.array_equal(f.h_edges, ec.h_edges)
    assert np.array_equal(f.boundary_left, ec.boundary_left)
    assert np.array_equal(f.boundary_bottom, ec.boundary_bottom)


KERNEL_FIELDS = {
    "homogeneous": HOMOG,
    "2x3": make_field([[0.2, 0.6, 0.9], [0.5, 0.1, 0.4]],
                      [[0.7, 0.3, 0.5], [0.8, 0.2, 0.6]]),
    # every (b1, b2) in {0, 1}^2, alone and mixed with interior entries
    "degenerate": make_field([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0]],
                             [[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]]),
    "mixed": make_field([[0.0, 1.0, 0.4], [1.0, 0.0, 1.0]],
                        [[1.0, 0.0, 0.0], [0.3, 1.0, 0.0]]),
}


def _bits(word: int, width: int) -> np.ndarray:
    return np.array([(word >> i) & 1 for i in range(width)], dtype=bool)


# widths on both sides of the packed bytes' and 64-bit words' boundaries
@pytest.mark.parametrize("width", [1, 7, 8, 9, 63, 64, 65, 200])
@pytest.mark.parametrize("field", list(KERNEL_FIELDS))
@pytest.mark.parametrize("seed", [1, 3])
def test_carry_kernel_matches_numpy_oracle(width, field, seed):
    f, height, mask = KERNEL_FIELDS[field], 23, (1 << width) - 1
    for variant, flip in (("cs6v", 0), ("s6v", mask)):
        rows = _carry_rows(mask, _coin_rows(width, height, f, seed, 2))
        oracle = sweep_rows(width, height, f, seed, 2, variant)
        for y, ((north, east), (o_north, o_east)) in enumerate(zip(rows, oracle), start=1):
            assert np.array_equal(_bits(north, width), o_north), (variant, y)
            assert np.array_equal(_bits(east ^ flip, width), o_east), (variant, y)
        assert y == height


# Fields that move or remove the frozen corners: b2 near 1 forces the
# window's extension past the last south line, b1 = 0 and b1 = 1 remove
# crossing or annihilation, and a 3x2 periodic field mixes 0 and 1 entries.
LIQUID_FIELDS = {
    "homogeneous": HOMOG,
    "b2=0.99": make_field(0.3, 0.99),
    "b2=0.999": make_field(0.3, 0.999),
    "b2=1": make_field(0.3, 1.0),
    "b1=0": make_field(0.0, 0.7),
    "b1=1": make_field(1.0, 0.7),
    "3x2": make_field([[0.0, 1.0], [0.3, 0.5], [1.0, 0.2]],
                      [[1.0, 0.0], [0.7, 0.99], [0.0, 1.0]]),
}


@pytest.mark.parametrize("width", [1, 2, 3, 9, 65, 200])
@pytest.mark.parametrize("field", list(LIQUID_FIELDS))
@pytest.mark.parametrize("seed", [1, 5])
def test_liquid_rows_equal_the_full_draw(width, field, seed, monkeypatch):
    f, height, mask = LIQUID_FIELDS[field], 2 * width + 3, (1 << width) - 1
    full = list(_carry_rows(mask, _coin_rows(width, height, f, seed, 2)))
    cells, draw = [], rng._stream_words

    def counted(seed, replicas, row, widths, first=1):
        cells.append(sum(widths))
        return draw(seed, replicas, row, widths, first)

    monkeypatch.setattr(rng, "_stream_words", counted)
    assert list(_liquid_rows(width, height, f, seed, 2)) == full
    if field == "b2=1":  # nothing nucleates, so every row extends to its end
        assert sum(cells) == width * height


# SHA-256 of ensemble_to_bytes pinned from the columnwise numpy sweep, before
# rows were packed into a row-major buffer and transposed once.
SAMPLE_PINS = {
    "s6v": "7fd348b7fc171dd7aa7ee30eb9d8fdbe7ccd91808ac88ec30608a6376faa039d",
    "cs6v": "4048b80c2f5cba76d58ad1dd8e25eda47294bde147be63eb258cab9b8e9718de",
}


@pytest.mark.parametrize("maker", [sample_s6v, sample_cs6v])
def test_single_color_sample_bytes_are_pinned(maker):
    import hashlib
    e = maker(65, 33, KERNEL_FIELDS["2x3"], 5, replica=2)
    assert e.v_edges.flags.c_contiguous and e.h_edges.flags.c_contiguous
    digest = hashlib.sha256(ensemble_to_bytes(e)).hexdigest()
    assert digest == SAMPLE_PINS[e.variant]


def test_step_replay_matches_the_sweep_and_sees_a_mutated_coin():
    f, w, h = KERNEL_FIELDS["2x3"], 17, 13
    e = sample_s6v(w, h, f, 4, replica=1)
    coins = [row_uniforms(4, 1, y, w) for y in range(1, h + 1)]
    v, hE = _replay_s6v(f, coins)
    assert np.array_equal(v, e.v_edges) and np.array_equal(hE, e.h_edges)
    # vertex (1, 1) sees only the boundary line from the west, so its u2
    # alone decides whether that line turns north
    u1, u2 = coins[0][0].copy(), coins[0][1].copy()
    u2[0] = 0.0 if u2[0] >= f.at(1, 1)[1] else 0.999
    v_bad, hE_bad = _replay_s6v(f, [(u1, u2)] + coins[1:])
    assert v_bad[0, 0] != e.v_edges[0, 0] and hE_bad[0, 0] != e.h_edges[0, 0]


def test_complement_is_an_involution():
    e = sample_s6v(12, 9, HOMOG, 2)
    back = complement(complement(e))
    assert np.array_equal(back.v_edges, e.v_edges)
    assert np.array_equal(back.h_edges, e.h_edges)
    assert back.variant == e.variant


@pytest.mark.parametrize("maker", [sample_s6v, sample_cs6v])
def test_samples_are_admissible(maker):
    e = maker(20, 20, INHOMOG, 7)
    assert admissibility_violations(e) == []
    corrupted = PathEnsemble(
        e.variant, 1, e.width, e.height,
        e.v_edges ^ (np.arange(400).reshape(20, 20) == 210),
        e.h_edges, e.boundary_left, e.boundary_bottom)
    assert admissibility_violations(corrupted) != []


def test_degenerate_parameters():
    # b1=1, b2=1: meeting lines always cross, nothing nucleates
    e = sample_cs6v(10, 10, make_field(1.0, 1.0), 0)
    assert not e.v_edges.any() and not e.h_edges.any()
    # b2=0: every empty vertex nucleates a corner
    e = sample_cs6v(10, 10, make_field(0.5, 0.0), 0)
    assert e.v_edges.any() and e.h_edges.any()
    # s6v at b1=1, b2=0: west lines always turn north, south lines always
    # continue, so line y climbs column y after crossing rows 1..y-1
    e = sample_s6v(10, 10, make_field(1.0, 0.0), 0)
    xs = np.arange(1, 11)[:, None]
    ys = np.arange(1, 11)[None, :]
    assert np.array_equal(e.v_edges != 0, xs <= ys)
    assert np.array_equal(e.h_edges != 0, xs < ys)


# ---------------------------------------------------------------------------
# Heights on a hand-built configuration

from handmade import H_BIG_TABLE, H_SMALL_TABLE, build_handmade  # noqa: E402


def test_handmade_configuration_is_admissible():
    e = build_handmade()
    assert admissibility_violations(e) == []


def test_height_tables_on_handmade_configuration():
    e = build_handmade()
    h = height_h(e)
    assert h.shape == (8, 8)
    assert np.array_equal(h[:, 0], np.zeros(8, dtype=np.int64))
    assert np.array_equal(h[0, :], np.arange(8))
    assert np.array_equal(h[:, 1:], H_SMALL_TABLE)
    H = height_H(complement(e))
    assert np.array_equal(H[:, 0], np.zeros(8, dtype=np.int64))
    assert np.array_equal(H[:, 1:], H_BIG_TABLE)
    ys = np.arange(8)[None, :]
    assert np.array_equal(H, ys - h)


def test_height_variant_guards():
    e = sample_cs6v(5, 5, HOMOG, 1)
    with pytest.raises(ValueError):
        height_h(e)
    with pytest.raises(ValueError):
        height_H(sample_s6v(5, 5, HOMOG, 1))
    colored = sample_colored_cs6v(3, make_coloring(1, 1, HOMOG), HOMOG, 1)
    with pytest.raises(ValueError):
        height_H(colored)  # fold first


@pytest.mark.parametrize("seed", [0, 4])
def test_height_increments(seed):
    es = sample_s6v(40, 30, INHOMOG, seed)
    h = height_h(es)
    assert set(np.unique(h[1:, :] - h[:-1, :])) <= {-1, 0}
    assert set(np.unique(h[:, 1:] - h[:, :-1])) <= {0, 1}
    H = height_H(sample_cs6v(40, 30, INHOMOG, seed))
    assert set(np.unique(H[1:, :] - H[:-1, :])) <= {0, 1}
    assert set(np.unique(H[:, 1:] - H[:, :-1])) <= {0, 1}


@pytest.mark.parametrize("w, h, seed", [(17, 13, 0), (64, 64, 3), (128, 50, 9)])
def test_complement_height_identity(w, h, seed):
    hh = height_h(sample_s6v(w, h, HOMOG, seed))
    HH = height_H(sample_cs6v(w, h, HOMOG, seed))
    assert np.array_equal(HH, np.arange(h + 1)[None, :] - hh)


# ---------------------------------------------------------------------------
# Block coloring

def test_coloring_scheme_examples():
    s = make_coloring(2, 1, HOMOG)
    assert (s.N, s.bx, s.by) == (1, 2, 1)
    s = make_coloring(2, 1, INHOMOG)
    assert (s.N, s.bx, s.by) == (6, 12, 6)
    s = make_coloring(Fraction(3, 2), 1, HOMOG)
    assert (s.N, s.bx, s.by) == (2, 3, 2)
    with pytest.raises(ValueError):
        make_coloring(0, 1, HOMOG)


def test_shells_are_l_shaped():
    s = ColoringScheme(Fraction(2), Fraction(1), 1, 2, 1)
    assert s.block(1, 1) == 1
    assert s.block(2, 1) == 1
    assert s.block(3, 1) == 1  # capped by the y extent
    assert s.block(3, 2) == 2
    assert s.block(5, 2) == 2
    assert s.block(1, 9) == 1  # capped by the x extent
    assert s.block(4, 4) == 2
    with pytest.raises(ValueError):
        s.block(0, 1)


def test_colored_sampler_shapes_and_admissibility():
    scheme = make_coloring(2, 1, INHOMOG)
    e = sample_colored_cs6v(3, scheme, INHOMOG, 11)
    assert (e.width, e.height, e.n_colors) == (36, 18, 3)
    assert e.variant == "cs6v"
    assert admissibility_violations(e, scheme) == []
    # only the three shell colors may appear
    assert ((e.v_edges | e.h_edges) >> 3).max() == 0


def test_unit_blocks_fold_back_to_plain_sampler():
    scheme = make_coloring(1, 1, HOMOG)
    # 9 shells also exercises the wide (uint32) mask dtype
    for k, seed in ((1, 0), (4, 7), (9, 2)):
        colored = sample_colored_cs6v(k, scheme, HOMOG, seed)
        plain = sample_cs6v(k, k, HOMOG, seed)
        folded = mod2_project(colored)
        assert np.array_equal(folded.v_edges, plain.v_edges)
        assert np.array_equal(folded.h_edges, plain.h_edges)


def test_colored_sampler_shell_count_capped():
    scheme = make_coloring(1, 1, HOMOG)
    with pytest.raises(ValueError, match=f"1..{MAX_COLORS}"):
        sample_colored_cs6v(MAX_COLORS + 1, scheme, HOMOG, 0)
    with pytest.raises(ValueError):
        sample_colored_cs6v(0, scheme, HOMOG, 0)


def test_colored_sampler_runs_at_the_color_limit():
    scheme = make_coloring(1, 1, HOMOG)
    e = sample_colored_cs6v(MAX_COLORS, scheme, HOMOG, 3)
    assert e.v_edges.dtype == np.uint32
    plain = sample_cs6v(MAX_COLORS, MAX_COLORS, HOMOG, 3)
    assert np.array_equal(mod2_project(e).v_edges, plain.v_edges)
    assert np.array_equal(mod2_project(e).h_edges, plain.h_edges)


FIELD_2X3 = make_field([[0.1, 0.4, 0.3], [0.25, 0.35, 0.2]],
                       [[0.7, 0.8, 0.6], [0.9, 0.75, 0.65]])  # I=2, J=3


def _replay_colored(n, scheme, field, seed):
    """Vertex-by-vertex reference for sample_colored_cs6v: the scalar two-coin
    rule on each shell's color window, fed by the per-cell uniforms."""
    width, height = scheme.bx * n, scheme.by * n
    v = np.zeros((width, height), dtype=np.int64)
    hE = np.zeros((width, height), dtype=np.int64)
    south = [0] * width
    for y in range(1, height + 1):
        west = 0
        for x in range(1, width + 1):
            k = scheme.block(x, y)
            shift = n - k
            u1, u2 = cell_uniforms(seed, 0, x, y)
            b1, b2 = field.at(x, y)
            north, east = vertex_outcome(south[x - 1] >> shift, west >> shift,
                                         k, u1 < b1, u2 >= b2)
            south[x - 1], west = north << shift, east << shift
            v[x - 1, y - 1], hE[x - 1, y - 1] = south[x - 1], west
    return v, hE


# every n on the 2x3 field, plus the color limit on a 1x1 field (a 32x32
# box), which reaches uint32 masks and levels past bits 7, 15 and 31
REPLAY_CASES = [pytest.param(n, direction, FIELD_2X3, id=f"{n}-direction{i}")
                for n in (1, 2, 3, 5, 9, 11)
                for i, direction in enumerate([(1, 1), (2, 1), (Fraction(1, 2), 3)])]
REPLAY_CASES.append(pytest.param(MAX_COLORS, (1, 1), HOMOG, id=f"{MAX_COLORS}-homogeneous"))


@pytest.mark.parametrize("n, direction, field", REPLAY_CASES)
def test_colored_sampler_matches_scalar_replay(n, direction, field):
    scheme = make_coloring(*direction, field)
    e = sample_colored_cs6v(n, scheme, field, 5)
    v, hE = _replay_colored(n, scheme, field, 5)
    assert np.array_equal(e.v_edges, v)
    assert np.array_equal(e.h_edges, hE)


def test_sixteen_color_sample_is_admissible_and_folds_to_cs6v():
    scheme = make_coloring(1, 1, FIELD_2X3)
    e = sample_colored_cs6v(16, scheme, FIELD_2X3, 7)
    assert (e.width, e.height) == (96, 96)
    assert admissibility_violations(e, scheme) == []
    plain = sample_cs6v(96, 96, FIELD_2X3, 7)
    folded = mod2_project(e)
    assert np.array_equal(folded.v_edges, plain.v_edges)
    assert np.array_equal(folded.h_edges, plain.h_edges)


def test_two_colored_first_color_is_plain_sample():
    rng = np.random.default_rng(0)
    for seed in (1, 8):
        w, h = 21, 16
        left = (rng.random(h) < 0.5).astype(np.uint8) * 2
        bottom = (rng.random(w) < 0.5).astype(np.uint8) * 2
        e = sample_two_colored_with_boundary(w, h, HOMOG, left, bottom, seed)
        plain = sample_cs6v(w, h, HOMOG, seed)
        first = select_color(e, 1)
        assert np.array_equal(first.v_edges, plain.v_edges)
        assert np.array_equal(first.h_edges, plain.h_edges)


def test_two_colored_rejects_first_color_boundary():
    with pytest.raises(ValueError):
        sample_two_colored_with_boundary(
            4, 4, HOMOG, np.array([1, 0, 0, 0], np.uint8),
            np.zeros(4, np.uint8), 0)


def _scan_two_colored(outcomes, width, height, left, bottom):
    """Reference evolution of a 2-color box for one fixed coin assignment."""
    south = list(bottom)
    v = np.zeros((width, height), dtype=np.uint8)
    hE = np.zeros((width, height), dtype=np.uint8)
    for y in range(1, height + 1):
        west = left[y - 1]
        for x in range(1, width + 1):
            X, N = outcomes[(x, y)]
            k, l = vertex_outcome(south[x - 1], west, 2, X, N)
            south[x - 1] = k
            west = l
            v[x - 1, y - 1] = k
            hE[x - 1, y - 1] = l
    return PathEnsemble("cs6v", 2, width, height, v, hE,
                        np.asarray(left, np.uint8), np.asarray(bottom, np.uint8))


def test_boundary_lines_only_raise_the_folded_height():
    """Exhaustive over all coins and boundaries on a 2x2 box."""
    cells = [(x, y) for y in (1, 2) for x in (1, 2)]
    for coins in itertools.product(itertools.product((0, 1), repeat=2),
                                   repeat=4):
        outcomes = dict(zip(cells, [(bool(a), bool(b)) for a, b in coins]))
        for lmask in itertools.product((0, 2), repeat=2):
            for bmask in itertools.product((0, 2), repeat=2):
                e = _scan_two_colored(outcomes, 2, 2, lmask, bmask)
                h1 = height_H(select_color(e, 1))
                h2 = height_H(mod2_project(e))
                assert (h1 <= h2).all()


@pytest.mark.parametrize("width", [1, 7, 8, 9, 17])
@pytest.mark.parametrize("field", ["homogeneous", "inhomogeneous"])
def test_two_colored_sampler_matches_scalar_scan(width, field):
    f = {"homogeneous": HOMOG, "inhomogeneous": INHOMOG}[field]
    geom = np.random.default_rng(width)
    for height, seed in ((1, 2), (5, 3), (11, 4)):
        left = (geom.random(height) < 0.5).astype(np.uint8) * 2
        bottom = (geom.random(width) < 0.5).astype(np.uint8) * 2
        outcomes = {}
        for x in range(1, width + 1):
            for y in range(1, height + 1):
                u1, u2 = cell_uniforms(seed, 1, x, y)
                b1, b2 = f.at(x, y)
                outcomes[(x, y)] = (u1 < b1, u2 >= b2)
        e = sample_two_colored_with_boundary(width, height, f, left, bottom, seed, replica=1)
        ref = _scan_two_colored(outcomes, width, height, left, bottom)
        assert np.array_equal(e.v_edges, ref.v_edges), (height, seed)
        assert np.array_equal(e.h_edges, ref.h_edges), (height, seed)


def test_monotonicity_verifier():
    rep = verify_monotonicity(trials=60, max_size=10, field=HOMOG, seed=1)
    assert rep.passed, rep.summary()
    assert rep.cases == 60


@pytest.mark.parametrize("drop", ["south", "west"])
def test_monotonicity_verifier_sees_lost_boundary_lines(drop, monkeypatch):
    """A sweep that ignores the lines entering from below or from the left
    keeps H1 <= H2, but breaks the line parity of the rows they enter."""
    real = lattice._carry_rows

    def dropped(width, coins, south=0, west=0):
        return real(width, coins, 0 if drop == "south" else south, 0 if drop == "west" else west)

    monkeypatch.setattr(lattice, "_carry_rows", dropped)
    rep = verify_monotonicity(trials=60, max_size=10, field=HOMOG, seed=1)
    assert not rep.passed
    assert rep.cases == 60
    assert all("line parity broken on row" in v for v in rep.violations)


MONOTONICITY_FIELDS = {
    "homogeneous": HOMOG,
    # entries at b = 0 and b = 1 on both axes
    "1x3": make_field([[0.0, 1.0, 0.4]], [[1.0, 0.2, 0.0]]),
    "2x1": make_field([[1.0], [0.3]], [[0.0], [0.6]]),
    "2x2": make_field([[0.0, 0.5], [1.0, 0.2]], [[0.8, 1.0], [0.0, 0.4]]),
}


# max_size 300 holds 108 lanes per word, so its 112 trials take two chunks
@pytest.mark.parametrize("max_size, trials", [(1, 40), (5, 60), (16, 60), (40, 60), (300, 112)])
@pytest.mark.parametrize("field", list(MONOTONICITY_FIELDS))
@pytest.mark.parametrize("seed", [1, 2])
def test_lane_packed_trials_match_the_per_trial_oracle(max_size, trials, field, seed):
    f = MONOTONICITY_FIELDS[field]
    assert list(lattice._monotonicity_trials(trials, max_size, f, seed)) == \
        list(monotonicity_oracle(trials, max_size, f, seed))


# words narrower than one lane take a single lane each; 40 bits hold two 17-bit lanes
@pytest.mark.parametrize("lane_bits", [8, 40])
def test_lane_packed_trials_match_the_oracle_in_narrow_words(lane_bits, monkeypatch):
    monkeypatch.setattr(lattice, "LANE_BITS", lane_bits)
    assert list(lattice._monotonicity_trials(30, 16, INHOMOG, 3)) == \
        list(monotonicity_oracle(30, 16, INHOMOG, 3))


@pytest.mark.parametrize("fault", ["no nucleation above bottom lines", "south dropped",
                                   "west dropped"])
def test_monotonicity_violations_match_the_oracle_under_a_planted_fault(fault, monkeypatch):
    """The lanes report a faulty sweep trial by trial as the oracle does.  A
    level-2 sweep that never nucleates in the columns its bottom lines enter
    lowers H2 below H1; lost boundary lines break the row parity."""
    real = lattice._carry_rows

    def planted(mask, coins, south=0, west=0):
        if fault == "no nucleation above bottom lines":
            coins = ((cross, nucleate & ~south) for cross, nucleate in coins)
        return real(mask, coins, 0 if fault == "south dropped" else south,
                    0 if fault == "west dropped" else west)

    monkeypatch.setattr(lattice, "_carry_rows", planted)
    rep = verify_monotonicity(trials=60, max_size=10, field=HOMOG, seed=1)
    assert rep.violations
    if fault == "no nucleation above bottom lines":
        assert all(" > H2=" in v for v in rep.violations)
    monkeypatch.setattr(lattice, "_monotonicity_trials", monotonicity_oracle)
    assert verify_monotonicity(trials=60, max_size=10, field=HOMOG, seed=1).violations == \
        rep.violations


def _traced_peak_mib(trials, max_size):
    tracemalloc.start()
    try:
        assert verify_monotonicity(trials, max_size, HOMOG, 1).passed
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_monotonicity_memory_does_not_grow_with_trials_or_box_area():
    """Rows are streamed and trials chunked to LANE_BITS bits per word: ten
    times the trials reuse the same chunk size, and 20 boxes of up to
    2000 x 2000 never hold a box (one 2000 x 2000 edge plane is 3.8 MiB)."""
    assert _traced_peak_mib(20_000, 16) <= 1.25 * _traced_peak_mib(2_000, 16)
    assert _traced_peak_mib(20, 2000) < 3.0


@pytest.mark.parametrize("trials, max_size", [(0, 5), (-1, 5), (5, 0), (5, -3)])
def test_monotonicity_verifier_rejects_empty_requests(trials, max_size):
    with pytest.raises(ValueError, match="trials >= 1 and max_size >= 1"):
        verify_monotonicity(trials, max_size, HOMOG, 1)


def _corrupted(e, seed, flips=3):
    """A copy of e with a few random color bits flipped on its edges and one
    on its left boundary."""
    rng = np.random.default_rng(seed)
    v, hE, left = e.v_edges.copy(), e.h_edges.copy(), e.boundary_left.copy()
    for arr in (v, hE):
        cells = rng.integers(0, e.width, flips), rng.integers(0, e.height, flips)
        np.bitwise_xor.at(arr, cells, (1 << rng.integers(0, e.n_colors, flips)).astype(arr.dtype))
    left[rng.integers(0, e.height)] ^= left.dtype.type(1 << int(rng.integers(0, e.n_colors)))
    return PathEnsemble(e.variant, e.n_colors, e.width, e.height, v, hE, left,
                        e.boundary_bottom.copy())


def _admissibility_inputs():
    two = sample_two_colored_with_boundary(
        13, 11, INHOMOG, (np.arange(11) % 3 == 0).astype(np.uint8) * 2,
        (np.arange(13) % 2 == 0).astype(np.uint8) * 2, 4)
    cases = [("s6v", sample_s6v(23, 17, INHOMOG, 2), None),
             ("cs6v", sample_cs6v(17, 23, INHOMOG, 3), None),
             ("two-colored", two, None)]
    for n, direction, field in ((1, (1, 1), FIELD_2X3), (3, (2, 1), FIELD_2X3),
                                (9, (1, 1), FIELD_2X3), (MAX_COLORS, (1, 1), HOMOG)):
        scheme = make_coloring(*direction, field)
        e = sample_colored_cs6v(n, scheme, field, n)
        cases += [(f"colored-{n}", e, scheme), (f"colored-{n}-unshelled", e, None)]
    return cases


@pytest.mark.parametrize("name, e, scheme", _admissibility_inputs(),
                         ids=[c[0] for c in _admissibility_inputs()])
def test_admissibility_matches_scalar_oracle(name, e, scheme):
    assert admissibility_violations(e, scheme) == admissibility_oracle(e, scheme)
    for seed in range(4):
        bad = _corrupted(e, seed)
        want = admissibility_oracle(bad, scheme)
        assert want, seed  # every corrupted copy holds violations
        assert admissibility_violations(bad, scheme) == want, seed
