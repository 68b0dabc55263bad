"""Point-process degeneration and the four-symbol collapse of the algebra."""

import ast
import itertools
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from cs6v_law_oracle import cs6v_height_distribution
from hammersley_oracle import hammersley_distribution, hammersley_fraction_distribution
from sixvertex.degenerations import (
    MAX_TRANSFER_WIDTH,
    PointSet,
    enumerate_cs6v_height_distribution,
    enumerate_hammersley_distribution,
    hammersley_height,
    modified_min,
    sample_pointset,
    specialize_t,
    verify_hammersley_coupling,
    verify_hammersley_equivalence,
    verify_tpng_equivalence,
)
from sixvertex.lattice import make_field
from sixvertex.weights import (
    B1,
    B2,
    ONE,
    ONE_MINUS_B1,
    ONE_MINUS_B2,
    W,
    ZERO,
    parse,
    star,
)

FIXED_POINTS = [(1, 1), (1, 6), (4, 1), (2, 4), (3, 2), (3, 7),
                (5, 5), (6, 3), (7, 6)]


def _pointset(width, height, pts):
    grid = np.zeros((width, height), dtype=bool)
    for x, y in pts:
        grid[x - 1, y - 1] = True
    return PointSet(width, height, grid)


def _chain_oracle(pts, x, y):
    """Longest chain strictly increasing in both coordinates inside (0,x]x(0,y]."""
    sel = sorted((a, b) for a, b in pts if a <= x and b <= y)
    best = {}
    for a, b in sel:
        best[(a, b)] = 1 + max(
            (v for (c, d), v in best.items() if c < a and d < b), default=0)
    return max(best.values(), default=0)


def test_fixed_point_set_height():
    ps = _pointset(8, 8, FIXED_POINTS)
    H = hammersley_height(ps)
    assert H[8, 8] == 4
    assert H[8, 8] == _chain_oracle(FIXED_POINTS, 8, 8)
    assert H[4, 4] == _chain_oracle(FIXED_POINTS, 4, 4) == 2
    assert H[1, 1] == 1 and H[0, 8] == 0 and H[8, 0] == 0


@pytest.mark.parametrize("seed", range(6))
def test_height_matches_chain_oracle(seed):
    ps = sample_pointset(6, 6, 0.5, seed)
    H = hammersley_height(ps)
    pts = ps.points()
    for x in range(7):
        for y in range(7):
            assert H[x, y] == _chain_oracle(pts, x, y)


def test_height_is_monotone_with_unit_steps():
    ps = sample_pointset(30, 25, 0.3, 3)
    H = hammersley_height(ps)
    assert H.shape == (31, 26)
    assert not H[0, :].any() and not H[:, 0].any()
    assert set(np.unique(H[1:, :] - H[:-1, :])) <= {0, 1}
    assert set(np.unique(H[:, 1:] - H[:, :-1])) <= {0, 1}


def test_pointset_determinism_and_density():
    a = sample_pointset(200, 200, 0.25, 9)
    b = sample_pointset(200, 200, 0.25, 9)
    assert np.array_equal(a.grid, b.grid)
    density = a.grid.mean()
    sigma = (0.25 * 0.75 / a.grid.size) ** 0.5
    assert abs(density - 0.25) < 4 * sigma


def test_exact_law_enumerators_are_probability_laws():
    law = enumerate_hammersley_distribution(3, 2, 0.4)
    assert sum(law.values()) == pytest.approx(1.0, abs=1e-12)
    law2 = enumerate_cs6v_height_distribution(3, 2, make_field(0.0, 0.6))
    assert sum(law2.values()) == pytest.approx(1.0, abs=1e-12)


ORACLE_CELLS = 12  # point subsets of the per-subset oracles: 2**12
BOXES = [(w, h) for w in range(1, ORACLE_CELLS + 1)
         for h in range(1, ORACLE_CELLS // w + 1)]


@pytest.mark.parametrize("w, h", BOXES)
def test_exact_law_matches_the_per_subset_oracle(w, h):
    # where every term is exact in floats: same keys, same floats, same order
    for p in (0.25, 0.5, 0.75):
        law = enumerate_hammersley_distribution(w, h, p)
        assert list(law.items()) == list(hammersley_distribution(w, h, p).items())
    # elsewhere against the rational law, which the float subset sum misses by
    # up to 5.8e-14
    for p in (0.1, 0.4, 0.9):
        law = enumerate_hammersley_distribution(w, h, p)
        exact = hammersley_fraction_distribution(w, h, p)
        assert law.keys() == {k for k, m in exact.items() if m > 0}, p
        assert max(abs(Fraction(law[k]) - exact[k]) for k in exact) <= 1e-15, p
    assert enumerate_hammersley_distribution(w, h, 0.0) == {0: 1.0}
    assert enumerate_hammersley_distribution(w, h, 1.0) == {min(w, h): 1.0}


# Homogeneous fields with entries at 0 and 1, and a 2x2 periodic field that is
# not symmetric, so a transposed read of the field shows.
LAW_FIELDS = {
    "b0.3-0.7": make_field(0.3, 0.7),
    "b0-0.6": make_field(0.0, 0.6),
    "b1-0": make_field(1.0, 0.0),
    "b0.9-0.05": make_field(0.9, 0.05),
    "periodic": make_field([[0.0, 0.4], [1.0, 0.6]], [[1.0, 0.2], [0.5, 0.0]]),
}


@pytest.mark.parametrize("field", LAW_FIELDS.values(), ids=list(LAW_FIELDS))
def test_transfer_law_matches_the_walk_oracle(field):
    for w, h in BOXES:
        law = enumerate_cs6v_height_distribution(w, h, field)
        want = cs6v_height_distribution(w, h, field)
        assert law.keys() == want.keys(), (w, h)
        assert max(abs(law[k] - want[k]) for k in want) <= 1e-14, (w, h)


# The two exact corner laws, both through degenerations._transfer_law.
TRANSFER_LAWS = {
    "cs6v": lambda w, h: enumerate_cs6v_height_distribution(w, h, make_field(0.3, 0.7)),
    "hammersley": lambda w, h: enumerate_hammersley_distribution(w, h, 0.3),
}


@pytest.mark.parametrize("law", TRANSFER_LAWS.values(), ids=list(TRANSFER_LAWS))
def test_transfer_law_at_the_width_cap_is_a_probability_law(law):
    start = time.perf_counter()
    dist = law(MAX_TRANSFER_WIDTH, 16)
    assert time.perf_counter() - start < 1.0
    assert set(dist) <= set(range(17))
    assert abs(sum(dist.values()) - 1.0) <= 1e-12


@pytest.mark.parametrize("law", TRANSFER_LAWS.values(), ids=list(TRANSFER_LAWS))
def test_transfer_memory_does_not_grow_with_height(law):
    law(2, 2)  # first-call allocations are not the box's
    peaks = []
    for height in (2, 16):
        tracemalloc.start()
        try:
            law(MAX_TRANSFER_WIDTH, height)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0], peaks


@pytest.mark.parametrize("w, h", [(MAX_TRANSFER_WIDTH + 1, 1), (-1, 2), (2, -1)])
def test_transfer_rejects_boxes_outside_the_width_cap(w, h):
    for law in TRANSFER_LAWS.values():
        with pytest.raises(ValueError, match="widths"):
            law(w, h)


def _kernel_uses(tree):
    """(kind, enclosing top-level function, line) of every matrix product
    and every functools cache in a module's syntax tree."""
    for top in tree.body:
        where = getattr(top, "name", None)
        for node in ast.walk(top):
            if (isinstance(node, ast.Attribute) and node.attr == "matmul"
                    or isinstance(node, ast.Name) and node.id == "matmul"
                    or isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)):
                yield "matmul", where, node.lineno
            if (isinstance(node, ast.Attribute) and node.attr == "lru_cache"
                    or isinstance(node, ast.Name) and node.id == "lru_cache"
                    or isinstance(node, (ast.Import, ast.ImportFrom))
                    and "functools" in [getattr(node, "module", None),
                                        *(a.name for a in node.names)]):
                yield "cache", where, node.lineno


def test_one_transfer_kernel_for_both_exact_laws():
    # both exact corner laws multiply in _transfer_law, and nothing is cached per box
    src = Path(__file__).resolve().parents[1] / "src" / "sixvertex" / "degenerations.py"
    uses = list(_kernel_uses(ast.parse(src.read_text())))
    assert [u for u in uses if u[:2] != ("matmul", "_transfer_law")] == []
    assert len(uses) == 1


@pytest.mark.parametrize("p", [-0.1, 1.5, float("nan"), float("inf"), float("-inf")])
def test_exact_law_rejects_p_outside_the_unit_interval(p):
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        enumerate_hammersley_distribution(2, 2, p)


@pytest.mark.parametrize("p", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("w, h", [(1, 1), (2, 2), (3, 3), (2, 3)])
def test_corner_law_equivalence(w, h, p):
    rep = verify_hammersley_equivalence(w, h, p)
    assert rep.passed, rep.summary()


def test_pathwise_coupling():
    rep = verify_hammersley_coupling(60, 45, 0.25, range(8))
    assert rep.passed, rep.summary()
    assert rep.cases == 8


SPECIALIZED = {
    "0": ZERO, "1": ONE, "b1": B1, "1-b1": ONE_MINUS_B1,
    "b2": ONE,            # second coin fires surely
    "1-b2": ZERO,         # and its complement never does
    "b1*b2": B1, "(1-b1)*b2": ONE_MINUS_B1,
    "b1*(1-b2)": ZERO, "(1-b1)*(1-b2)": ZERO,
}


def test_specialize_all_ten_weights():
    from sixvertex.weights import render
    for w in W:
        assert specialize_t(w) is SPECIALIZED[render(w)]


def test_modified_min_basics():
    assert modified_min([]) is ONE
    assert modified_min([ONE]) is ONE
    assert modified_min([B1]) is B1
    assert modified_min([B1, ONE]) is B1
    assert modified_min([ONE_MINUS_B1, ONE_MINUS_B1]) is ONE_MINUS_B1
    assert modified_min([ZERO, ONE]) is ZERO
    # the two middle symbols together annihilate
    assert modified_min([B1, ONE_MINUS_B1]) is ZERO
    assert modified_min([B1, ONE_MINUS_B1, ONE]) is ZERO


def test_modified_min_pairwise_is_star():
    symbols = (ZERO, B1, ONE_MINUS_B1, ONE)
    for a, b in itertools.product(symbols, repeat=2):
        assert modified_min([a, b]) is star(a, b)


def test_modified_min_rejects_foreign_symbols():
    with pytest.raises(ValueError):
        modified_min([B2])
    with pytest.raises(ValueError):
        modified_min([parse("b1*b2")])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_specialized_fold_is_modified_min(n):
    rep = verify_tpng_equivalence(n)
    assert rep.passed, rep.summary()
