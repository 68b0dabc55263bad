"""Limit shapes, the crossing array, and convergence experiments."""

import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from sixvertex import lln, rng
from sixvertex.degenerations import hammersley_height, sample_pointset
from sixvertex.lattice import (
    _coin_rows,
    height_H,
    height_h,
    make_coloring,
    make_field,
    sample_colored_cs6v,
    sample_cs6v,
    sample_s6v,
)
from sixvertex.lmatrix import MAX_COLORS
from sixvertex.lln import (
    ConvergenceReport,
    _ratio_task,
    compute_X,
    convergence_experiment,
    hammersley_limit,
    limit_shape_g,
    sample_shell_ensembles,
    verify_ergodic_hypotheses,
    verify_prop_X_height,
    verify_superadditivity,
)

HOMOG = make_field(0.3, 0.7)


# ---------------------------------------------------------------------------
# Closed forms

def test_shape_when_first_coin_dominates():
    # b1 >= b2: lines cross freely and the shape is the trivial one
    assert limit_shape_g(1.0, 1.0, 0.5, 0.5) == 0.0
    assert limit_shape_g(1.0, 3.0, 0.7, 0.3) == 2.0
    assert limit_shape_g(3.0, 1.0, 0.7, 0.3) == 0.0


def test_shape_facets_and_bulk():
    # b1=0.2, b2=0.6: facet boundaries at x = 2y and y = 2x
    assert limit_shape_g(2.0, 1.0, 0.2, 0.6) == 0.0
    assert limit_shape_g(3.0, 1.0, 0.2, 0.6) == 0.0
    assert limit_shape_g(1.0, 2.0, 0.2, 0.6) == pytest.approx(1.0)
    assert limit_shape_g(1.0, 3.0, 0.2, 0.6) == pytest.approx(2.0)
    # golden diagonal value: 3 - 2*sqrt(2)
    assert limit_shape_g(1.0, 1.0, 0.2, 0.6) == pytest.approx(
        3 - 2 * math.sqrt(2), abs=1e-12)
    assert limit_shape_g(1.0, 1.0, 0.2, 0.6) == pytest.approx(0.171573, abs=1e-6)


def test_shape_is_continuous_at_facet_boundaries():
    b1, b2 = 0.2, 0.6
    for y in (0.5, 1.0, 2.0):
        x = y * (1 - b1) / (1 - b2)  # flat facet edge
        assert limit_shape_g(x + 1e-9, y, b1, b2) == pytest.approx(0.0, abs=1e-4)
        assert limit_shape_g(x - 1e-9, y, b1, b2) == pytest.approx(0.0, abs=1e-4)
        x = y * (1 - b2) / (1 - b1)  # sloped facet edge
        assert limit_shape_g(x, y, b1, b2) == pytest.approx(y - x, abs=1e-4)


def test_shape_homogeneity():
    # g is 1-homogeneous in (x, y)
    for c in (0.5, 2.0, 7.0):
        assert limit_shape_g(c * 1.0, c * 1.3, 0.2, 0.6) == pytest.approx(
            c * limit_shape_g(1.0, 1.3, 0.2, 0.6))


def test_hammersley_limit_values():
    assert hammersley_limit(1.0, 1.0, 0.25) == pytest.approx(2 / 3, abs=1e-12)
    assert hammersley_limit(0.0, 1.0, 0.25) == pytest.approx(0.0)


def test_hammersley_limit_identity():
    rng = np.random.default_rng(42)
    for _ in range(100):
        x, y = rng.uniform(0.05, 4.0, size=2)
        p = rng.uniform(0.05, 0.95)
        lhs = hammersley_limit(x, y, p)
        rhs = y - limit_shape_g(x, y, 0.0, 1.0 - p)
        assert abs(lhs - rhs) <= 1e-10


def test_shape_rejects_bad_parameters():
    with pytest.raises(ValueError):
        limit_shape_g(1.0, 1.0, 1.2, 0.5)
    with pytest.raises(ValueError):
        limit_shape_g(-1.0, 1.0, 0.2, 0.5)
    with pytest.raises(ValueError):
        hammersley_limit(1.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# Crossing array

def _shells(n_blocks=5, replicas=6, seed=3, direction=(1, 1), field=HOMOG):
    scheme = make_coloring(*direction, field)
    return sample_shell_ensembles(direction, field, n_blocks, replicas, seed), scheme


def test_crossing_array_basics():
    ensembles, scheme = _shells()
    e = ensembles[0]
    for m in range(6):
        assert compute_X(e, scheme, m, m) == 0
        for n in range(m, 6):
            assert compute_X(e, scheme, m, n) >= 0
    with pytest.raises(ValueError):
        compute_X(e, scheme, 3, 2)
    with pytest.raises(ValueError):
        compute_X(e, scheme, 0, 6)  # only 5 shells sampled


def test_crossing_equals_corner_height():
    ensembles, scheme = _shells()
    for e in ensembles:
        rep = verify_prop_X_height(e, scheme)
        assert rep.passed, rep.summary()


def test_superadditivity_on_samples():
    ensembles, scheme = _shells(n_blocks=5, replicas=10)
    rep = verify_superadditivity(ensembles, scheme, 5)
    assert rep.passed, rep.summary()
    assert rep.cases == 10 * 21


def test_superadditivity_rational_direction():
    field = make_field([[0.2, 0.35]], [[0.7, 0.6]])  # I=1, J=2
    scheme = make_coloring(1, 2, field)
    assert (scheme.N, scheme.bx, scheme.by) == (1, 1, 2)
    ensembles = sample_shell_ensembles((1, 2), field, 4, 5, 1)
    rep = verify_superadditivity(ensembles, scheme, 4)
    assert rep.passed, rep.summary()


def test_ergodic_hypotheses_quick():
    rep = verify_ergodic_hypotheses((1, 1), HOMOG, 2, 120, 0)
    assert rep.passed, rep.summary()
    for key in ("ks_p_shift_k", "ks_p_shift_1"):
        assert 0.0 <= rep.details[key] <= 1.0, key


@pytest.mark.parametrize("replicas", [0, 1])
def test_ergodic_hypotheses_reject_fewer_than_two_replicas(replicas):
    # with one replica per side every outcome has KS p = 1: the tests could
    # never fail, so the check would pass whatever the sampler did
    with pytest.raises(ValueError, match="replicas >= 2"):
        verify_ergodic_hypotheses((1, 1), HOMOG, 2, replicas, 1)


# KS p-values of `verify --seed 1` (b1 = 0.3, b2 = 0.7) as float.hex, equal
# to scipy.stats.ks_2samp(method="exact") when pinned.
KS_PINS = {
    20: ("0x1.f75db77eb1de8p-1", "0x1.ffff00c1c5be9p-1"),
    150: ("0x1.732d860ff0a14p-1", "0x1.fffffffb7c752p-1"),
    500: ("0x1.ffddf21323d29p-1", "0x1.ba33d4e02d2cep-1"),
}


@pytest.mark.parametrize("replicas", sorted(KS_PINS))
def test_ergodic_ks_pvalues_are_pinned(replicas):
    rep = verify_ergodic_hypotheses((1, 1), HOMOG, 2, replicas, 1)
    got = (rep.details["ks_p_shift_k"].hex(), rep.details["ks_p_shift_1"].hex())
    assert got == KS_PINS[replicas]


@pytest.mark.parametrize("k", [0, -1, MAX_COLORS // 2 + 1])
def test_ergodic_hypotheses_reject_k_out_of_range(k, monkeypatch):
    def sampled(*args):
        raise AssertionError("sampled before k was checked")

    monkeypatch.setattr(lln.pool, "run_tasks", sampled)
    with pytest.raises(ValueError, match=f"k in 1..{MAX_COLORS // 2}, got k={k}"):
        verify_ergodic_hypotheses((1, 1), HOMOG, k, 20, 1)


# ---------------------------------------------------------------------------
# Lane-packed shell counts of the ergodic check against the per-replica
# ensembles read by compute_X

SHELL_FIELDS = {
    "homogeneous": HOMOG,
    "2x2": make_field([[0.0, 0.5], [1.0, 0.2]], [[0.8, 1.0], [0.0, 0.4]]),
}


def _shell_counts_oracle(direction, field, k, replicas, seed):
    scheme = make_coloring(*direction, field)
    ensembles = sample_shell_ensembles(direction, field, 2 * k, replicas, seed)
    return [[compute_X(e, scheme, m, n) for e in ensembles]
            for m, n in ((0, k), (k, 2 * k), (1, k + 1))]


def _shell_counts(direction, field, k, replicas, seed):
    scheme = make_coloring(*direction, field)
    return lln._shell_count_task((field, scheme.bx, scheme.by, k, seed, 0, replicas)).tolist()


@pytest.mark.parametrize("field", list(SHELL_FIELDS))
@pytest.mark.parametrize("direction", [(1, 1), (1, 2), (2, 1)])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("seed", [1, 2])
def test_lane_shell_counts_match_the_per_replica_oracle(field, direction, k, seed):
    f = SHELL_FIELDS[field]
    assert _shell_counts(direction, f, k, 9, seed) == _shell_counts_oracle(direction, f, k, 9, seed)


# direction (2, 1) on the 2x2 field has 4x2 blocks: k = 2 gives 17-bit lanes,
# so 8 bits hold one lane a word and 40 bits two, with a lone last lane
@pytest.mark.parametrize("lane_bits", [8, 40])
def test_lane_shell_counts_match_the_oracle_in_narrow_words(lane_bits, monkeypatch):
    monkeypatch.setattr(lln, "LANE_BITS", lane_bits)
    f = SHELL_FIELDS["2x2"]
    assert _shell_counts((2, 1), f, 2, 7, 3) == _shell_counts_oracle((2, 1), f, 2, 7, 3)


def _shell_sweep_peak(replicas):
    tracemalloc.start()
    try:
        counts = lln._shell_count_task((HOMOG, 1, 1, 2, 1, 0, replicas))
        return tracemalloc.get_traced_memory()[1] - counts.nbytes
    finally:
        tracemalloc.stop()


def test_shell_sweep_memory_does_not_grow_with_replicas(monkeypatch):
    """Lanes are chunked to LANE_BITS bits a word, so past one chunk the
    sweep holds nothing per replica but its three counts: at 250 five-bit
    lanes a chunk, 5000 replicas peak as 500 do.  (The whole check's peak
    still grows with the replicas: the KS test on 5000 counts a side alone
    peaks near 0.45 MiB.)"""
    monkeypatch.setattr(lln, "LANE_BITS", 1250)
    assert _shell_sweep_peak(5000) <= 1.25 * _shell_sweep_peak(500)


# ---------------------------------------------------------------------------
# Convergence experiments

def test_convergence_report_fields():
    rep = convergence_experiment((1, 1), HOMOG, [40, 80], 3, 5, model="s6v")
    assert rep.ratios.shape == (3, 2)
    assert rep.sizes == [40, 80]
    assert rep.reference == pytest.approx(limit_shape_g(1, 1, 0.3, 0.7))
    assert rep.final_mean == pytest.approx(float(rep.ratios[:, -1].mean()))
    assert rep.cauchy_gaps().shape == (3, 1)
    assert rep.abs_errors() is not None


def test_convergence_models_agree_with_duality():
    s = convergence_experiment((1, 1), HOMOG, [64], 4, 2, model="s6v")
    c = convergence_experiment((1, 1), HOMOG, [64], 4, 2, model="cs6v")
    # pathwise duality: the two ratios add to y = 1 replica by replica
    assert np.allclose(s.ratios + c.ratios, 1.0)
    assert s.reference + c.reference == pytest.approx(1.0)


def test_convergence_hammersley_reference():
    rep = convergence_experiment((1, 1), make_field(0.0, 0.75), [50], 3, 7,
                                 model="hammersley")
    assert rep.reference == pytest.approx(hammersley_limit(1, 1, 0.25))
    assert rep.ratios.shape == (3, 1)


def test_inhomogeneous_field_has_no_reference():
    field = make_field([[0.2], [0.3]], [[0.7], [0.6]])
    rep = convergence_experiment((1, 1), field, [30], 2, 0, model="cs6v")
    assert rep.reference is None
    assert rep.abs_errors() is None


def test_fractional_direction_floors_points():
    rep = convergence_experiment((1, 2), HOMOG, [25], 2, 1, model="s6v")
    assert rep.ratios.shape == (2, 1)
    rep2 = convergence_experiment((3, 2), make_field(0.5, 0.5), [10], 2, 1)
    assert rep2.reference == 0.0


def test_report_serialization_round_trip():
    rep = convergence_experiment((1, 1), HOMOG, [30, 60], 2, 9, model="cs6v")
    meta = {"command": "converge", "note": 1}
    csv = rep.to_csv(meta)
    lines = csv.strip().split("\n")
    assert lines[0].startswith("# ")
    assert json.loads(lines[0][2:]) == meta
    assert lines[1] == "size,replica,ratio,reference,abs_error"
    assert len(lines) == 2 + 2 * 2
    first = lines[2].split(",")
    assert int(first[0]) == 30 and int(first[1]) == 0
    assert float(first[2]) == rep.ratios[0, 0]

    doc = rep.to_json_dict(meta)
    assert doc["meta"] == meta
    assert doc["model"] == "cs6v"
    assert doc["sizes"] == [30, 60]
    assert np.array_equal(np.array(doc["ratios"]), rep.ratios)
    assert doc["final_mean"] == rep.final_mean


def test_convergence_input_validation():
    with pytest.raises(ValueError):
        convergence_experiment((0, 1), HOMOG, [10], 2, 0)
    with pytest.raises(ValueError):
        convergence_experiment((1, 1), HOMOG, [], 2, 0)
    with pytest.raises(ValueError):
        convergence_experiment((1, 1), HOMOG, [10], 2, 0, model="nope")
    for replicas in (0, -1):  # each returned a report whose final_mean raised IndexError
        with pytest.raises(ValueError, match=f"replicas >= 1, got {replicas}"):
            convergence_experiment((1, 1), HOMOG, [10], replicas, 0)
    # the hammersley model reads only p = 1 - b2: any other field is an error
    for field in (make_field(0.3, 0.75), make_field(0.0, 1.0),
                  make_field([[0.0], [0.0]], [[0.75], [0.5]])):
        with pytest.raises(ValueError):
            convergence_experiment((1, 1), field, [10], 2, 0, model="hammersley")


def test_non_integral_sizes_are_rejected_before_sampling(monkeypatch):
    # int() would run [2.7, 10] as sizes 2 and 10 and [True, 10] as 1 and 10
    monkeypatch.setattr(lln.pool, "run_tasks", lambda *a: pytest.fail("sampled"))
    for sizes in ([2.7, 10], [True, 10], [10, np.float64(20.5)], [np.bool_(True), 10],
                  [float("nan"), 10], [10, float("inf")]):
        with pytest.raises(ValueError, match="sizes must be integers"):
            convergence_experiment((1, 1), HOMOG, sizes, 2, 1)
    monkeypatch.undo()
    rep = convergence_experiment((1, 1), HOMOG, [np.int64(20), 10.0], 2, 1)
    assert rep.sizes == [10, 20] and all(type(n) is int for n in rep.sizes)


def test_empty_floor_box_is_rejected():
    # (2, 1/3) at size 2 floors to the point (4, 0): no row to read
    for direction in ((2, Fraction(1, 3)), (Fraction(1, 3), 2)):
        with pytest.raises(ValueError, match="empty box"):
            convergence_experiment(direction, HOMOG, [2, 30], 2, 1)
    rep = convergence_experiment((2, Fraction(1, 3)), HOMOG, [3, 30], 2, 1)
    assert rep.ratios.shape == (2, 2)


# ---------------------------------------------------------------------------
# The streamed readout against materialized samples

FIELD_2X3 = make_field([[0.2, 0.4, 0.1], [0.5, 0.3, 0.6]],
                       [[0.7, 0.8, 0.6], [0.9, 0.75, 0.65]])


def _materialized_ratios(model, field, direction, sizes, seed, replica):
    """Ratios read off whole edge arrays and point sets: the oracle."""
    x, y = (Fraction(c) for c in direction)
    points = [(math.floor(n * x), math.floor(n * y)) for n in sizes]
    w, h = max(px for px, _ in points), max(py for _, py in points)
    if model == "hammersley":
        p = 1.0 - float(field.b2[0, 0])
        heights = hammersley_height(sample_pointset(w, h, p, seed, replica))
    elif model == "s6v":
        heights = height_h(sample_s6v(w, h, field, seed, replica))
    else:
        heights = height_H(sample_cs6v(w, h, field, seed, replica))
    return [int(heights[px, py]) / n for n, (px, py) in zip(sizes, points)]


@pytest.mark.parametrize("direction", [(1, 1), (2, 1), (Fraction(1, 2), 3)])
@pytest.mark.parametrize("model, field", [
    ("s6v", HOMOG), ("s6v", FIELD_2X3), ("cs6v", HOMOG), ("cs6v", FIELD_2X3),
    ("hammersley", make_field(0.0, 0.7)),
])
def test_streamed_ratios_match_materialized_arrays(model, field, direction):
    sizes = [7, 12, 12, 31]
    for seed in (1, 3):
        rep = convergence_experiment(direction, field, sizes, 3, seed, model=model)
        oracle = [_materialized_ratios(model, field, direction, sizes, seed, r)
                  for r in range(3)]
        assert rep.ratios.tolist() == oracle


def _drawn_cells(monkeypatch, run) -> int:
    """Cells of Philox words drawn while run() runs."""
    cells, draw = [], rng._stream_words

    def counted(seed, replicas, row, widths, first=1):
        cells.append(sum(widths))
        return draw(seed, replicas, row, widths, first)

    with monkeypatch.context() as mp:
        mp.setattr(rng, "_stream_words", counted)
        run()
    return sum(cells)


@pytest.mark.parametrize("model, b1, b2, bound", [
    ("s6v", 0.3, 0.7, 650_000), ("cs6v", 0.3, 0.7, 650_000), ("hammersley", 0.0, 0.75, 800_000)])
def test_converge_draws_only_the_liquid_region(model, b1, b2, bound, monkeypatch):
    # The frozen corners hold (1-b2)/(1-b1) of the box in the limit: 3/7 at
    # (0.3, 0.7), 1/4 at p = 0.25.  The full draw of a 1000^2 box takes 10^6.
    field = make_field(b1, b2)
    assert _drawn_cells(monkeypatch, lambda: list(_coin_rows(1000, 1000, field, 1, 0))) == 10**6
    task = (model, field, Fraction(1), Fraction(1), [1000], 1, 0)
    assert 0 < _drawn_cells(monkeypatch, lambda: _ratio_task(task)) <= bound


@pytest.mark.parametrize("model, b1, b2", [
    ("s6v", 0.3, 0.7), ("cs6v", 0.3, 0.7), ("hammersley", 0.0, 0.75)])
def test_one_replica_holds_width_sized_state(model, b1, b2):
    # a materialized 1500 x 1500 sample takes over 2 MB even as bytes
    width = 1500
    args = (model, make_field(b1, b2), Fraction(1), Fraction(1), [500, 1000, width], 1, 0)
    tracemalloc.start()
    try:
        _ratio_task(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * width
