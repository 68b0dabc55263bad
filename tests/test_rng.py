"""Counter-based per-cell randomness and the integer coins read off it."""

import ast
import contextlib
import hashlib
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cell_oracle import cell_uniforms
from sixvertex import convergence_experiment, make_field, rng, sample_pointset
from sixvertex.lattice import _coin_rows


def _fresh(seed, replica, row, width):
    key = np.array([seed, replica], dtype=np.uint64)
    counter = np.array([0, 0, row, 0], dtype=np.uint64)
    r = np.random.Generator(np.random.Philox(key=key, counter=counter)).random(2 * width)
    return r[0::2], r[1::2]


def test_row_uniforms_match_a_freshly_built_generator():
    # interleave widths, keys and rows so any state leaking between calls shows
    calls = [(seed, replica, row, width)
             for seed in (0, 1, 2**64 - 1)
             for row in (1, 2, 97)
             for replica in (0, 5)
             for width in (1, 4, 1000)]
    order = np.random.default_rng(0).permutation(len(calls))
    for i in order:
        u1, u2 = rng.row_uniforms(*calls[i])
        w1, w2 = _fresh(*calls[i])
        assert np.array_equal(u1, w1) and np.array_equal(u2, w2), calls[i]


def test_cell_uniforms_match_row_uniforms():
    # a cell draws only its own 4-word block: cells x = 2m+1 and 2m+2 share
    # block m, so these columns cover both offsets and both block parities
    for seed in (0, 7, 2**64 - 1):
        for replica in (0, 3):
            for y in (1, 2, 50):
                u1, u2 = rng.row_uniforms(seed, replica, y, 1000)
                for x in (1, 2, 3, 4, 5, 999, 1000):
                    assert cell_uniforms(seed, replica, x, y) == (u1[x - 1], u2[x - 1])
    u1, _ = rng.row_uniforms(3, 1, 7, 12)
    assert rng.row_uniforms(3, 1, 7, 5)[0].tolist() == u1[:5].tolist()


def test_cell_uniforms_memory_does_not_grow_with_the_column():
    # Building the cell's generator seeds numpy's entropy pool, a fixed
    # cost of about 1.3 kB; a cell far out must cost no more than a near one.
    cell_uniforms(1, 0, 3, 2)  # first-call allocations are not the cell's
    peaks = []
    for x in (3, 10**6):
        tracemalloc.start()
        try:
            cell_uniforms(1, 0, x, 2)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] < 4096, peaks


def test_row_uniforms_rejects_bad_addresses():
    # seeds and replicas are 64-bit key words: 2**64 must not alias 0
    for args in ((-1, 0, 1, 1), (0, -1, 1, 1), (0, 0, 0, 1), (0, 0, 1, 0),
                 (2**64, 0, 1, 1), (1 + 2**64, 0, 1, 1), (0, 2**64, 1, 1), (0, 0, 2**64, 1)):
        with pytest.raises(ValueError):
            rng.row_uniforms(*args)


def test_row_words_from_an_odd_column_are_a_slice_of_the_row():
    for seed, replica, row in ((0, 0, 1), (7, 3, 50), (2**64 - 1, 2**64 - 1, 2**64 - 1)):
        full = rng.row_words(seed, replica, row, 23)
        for first in range(1, 22, 2):
            for width in (1, 2, 22 - first):
                got = rng.row_words(seed, replica, row, width, first)
                assert np.array_equal(got, full[first - 1:first - 1 + width]), (first, width)
    # columns 2**65 - 3 and 2**65 - 2 fill the last block, counter word 2**64 - 1
    counter = np.array([2**64 - 2, 0, 9, 0], dtype=np.uint64)
    last = np.random.Philox(key=[5, 1], counter=counter).random_raw(4)
    assert rng.row_words(5, 1, 9, 2, 2**65 - 3).ravel().tolist() == last.tolist()


def test_row_words_rejects_every_out_of_range_address():
    # (seed, replica, row, width, first): the key words, the row, a first
    # column that is 0, negative or even, and a last block past 2**64
    for args in ((-1, 0, 1, 1, 1), (2**64, 0, 1, 1, 1), (0, -1, 1, 1, 1), (0, 2**64, 1, 1, 1),
                 (0, 0, 0, 1, 1), (0, 0, 2**64, 1, 1), (0, 0, 1, 0, 1),
                 (0, 0, 1, 1, 0), (0, 0, 1, 1, -1), (0, 0, 1, 1, 2), (0, 0, 1, 4, 10),
                 (0, 0, 1, 1, 2**65 - 1), (0, 0, 1, 3, 2**65 - 3), (0, 0, 1, 2**65, 1)):
        with pytest.raises(ValueError):
            rng.row_words(*args)


def test_lane_words_match_row_words_lane_by_lane():
    # uneven widths, extreme keys, and row_words draws in between: each lane
    # rekeys the shared Philox, so no state may leak from one lane or call
    lanes = [(0, 3), (2**64 - 1, 1), (5, 1000), (5, 4), (1, 2)]
    for seed in (0, 7, 2**64 - 1):
        for row in (1, 2, 2**64 - 1):
            want = np.concatenate([rng.row_words(seed, r, row, w).ravel() for r, w in lanes])
            rng.row_words(seed + 1 if seed < 2**64 - 1 else 0, 9, 3, 5)
            got = rng.lane_words(seed, [r for r, _ in lanes], row, [w for _, w in lanes])
            assert got.dtype == np.uint64 and np.array_equal(got, want), (seed, row)


def test_lane_words_rejects_bad_addresses():
    for seed, replicas, row, widths in ((-1, [0], 1, [1]), (2**64, [0], 1, [1]),
                                        (0, [3, -1], 1, [1, 1]), (0, [0, 2**64], 1, [1, 1]),
                                        (0, [0], 0, [1]), (0, [0], 2**64, [1]),
                                        (0, [0, 1], 1, [2, 0])):
        with pytest.raises(ValueError):
            rng.lane_words(seed, replicas, row, widths)


# SHA-256 of data outputs at seeds 1 and 3, taken before the samplers moved
# from uniform doubles to integer thresholds on the raw words; the field has
# b = 0 and b = 1 entries on both axes.
PINNED = {
    (1, "s6v"): "41f47522dd2e930133c2733f74bfb3d182523d2bb9aa3016ba342fb30b76a361",
    (1, "cs6v"): "db79e3d5f7a596e2c850cd0c002d971146d83d3b45899aa1eaba5b9b5e686501",
    (1, "hammersley"): "157ad819c764879e502ac42916a5803b0a092b6f7fa40857471847a0773a796f",
    (1, "pointset"): "7746ea417e8d2db9e83b379f12baf1183a9ef7aa2a42218e7623a404c2663e1b",
    (3, "s6v"): "a6f3a275b79e2bb82a5d824f876da1424678b0120e6d5b4a482998ae252898b7",
    (3, "cs6v"): "4be7f4140ead761d2b2efc7a4c7d54646d3b8a4fa0282d148ca7477ec586d65d",
    (3, "hammersley"): "49f0ff2684f3f1072adaf404ae69a554730a0968ea60a1f2dcb42ce069ef3f19",
    (3, "pointset"): "86b722a6ae50c396794aae4e68861f9f62b795a8c8ec18923c155193745b89e8",
}


@pytest.mark.parametrize("seed", (1, 3))
def test_coin_outputs_are_pinned(seed):
    field = make_field([[0.3, 0.0, 1.0], [0.5, 1.0, 0.2]], [[0.7, 1.0, 0.0], [0.0, 0.4, 1.0]])
    got = {}
    for model in ("s6v", "cs6v"):
        ratios = convergence_experiment((1, 1), field, [12, 30, 60], 3, seed, model).ratios
        got[seed, model] = ratios.tobytes()
    got[seed, "hammersley"] = convergence_experiment(
        (1, 1), make_field(0.0, 0.75), [50, 100], 3, seed, "hammersley").ratios.tobytes()
    got[seed, "pointset"] = sample_pointset(61, 47, 0.25, seed, replica=1).grid.tobytes()
    for key, data in got.items():
        assert hashlib.sha256(data).hexdigest() == PINNED[key], key


# ---------------------------------------------------------------------------
# Integer coins: a word w stands for u = (w >> 11) * 2**-53, and the samplers
# decide u < b (cross) and u >= b (nucleation, points) on w alone.

_EDGES = [0.0, 1.0, 5e-324, 2.0**-53, 1 - 2.0**-53, 0.3, 0.7]
EDGE_PARAMETERS = sorted({v for b in _EDGES
                          for v in (b, np.nextafter(b, -1.0), np.nextafter(b, 2.0))
                          if 0.0 <= v <= 1.0})


def _words_around(b, low_bits):
    """Words at and next to the coin's edge t * 2**11, t = ceil(b * 2**53),
    and words with the given low bits at the 53-bit values t - 1 and t."""
    edge = math.ceil(b * 2**53) << 11
    words = {0, 2**64 - 1, edge - 1, edge, edge + 1}
    words |= {(m << 11) | r for m in ((edge >> 11) - 1, edge >> 11) for r in low_bits}
    return np.array(sorted(w for w in words if 0 <= w < 2**64), dtype=np.uint64)


def _uniform(w):
    return float(int(w) >> 11) * 2.0**-53


def _bits(word, width):
    return [word >> x & 1 for x in range(width)]


@contextlib.contextmanager
def _patched_words(words):
    """A context in which every row draw returns `words` on both coins: a
    draw of columns first..first+width-1 returns that slice of them."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rng, "row_words", lambda seed, replica, row, width, first=1:
                   np.stack((words, words), axis=1)[first - 1:first - 1 + width])
        yield


def _check_lattice_coins(b, low_bits):
    words = _words_around(b, low_bits)
    with _patched_words(words):
        (cross, nucleate), = _coin_rows(len(words), 1, make_field(b, b), 1, 0)
    assert _bits(cross, len(words)) == [_uniform(w) < b for w in words]
    assert _bits(nucleate, len(words)) == [_uniform(w) >= b for w in words]


def _check_point_coins(p, low_bits):
    # the point coin thresholds the double 1.0 - p, a multiple of 2**-53
    words = _words_around(1.0 - p, low_bits)
    with _patched_words(words):
        points = sample_pointset(len(words), 1, p, 1, 0).grid[:, 0]
    assert points.tolist() == [_uniform(w) >= 1.0 - p for w in words]


@pytest.mark.parametrize("b", EDGE_PARAMETERS)
def test_integer_coins_at_edge_parameters(b):
    _check_lattice_coins(b, (0, 1, 2**10, 2**11 - 1))
    _check_point_coins(b, (0, 1, 2**10, 2**11 - 1))


@given(st.floats(0.0, 1.0), st.lists(st.integers(0, 2**11 - 1), max_size=4))
def test_integer_coins_equal_the_uniform_comparison(b, low_bits):
    _check_lattice_coins(b, low_bits)
    _check_point_coins(b, low_bits)


def test_hammersley_and_cs6v_readouts_share_their_coins():
    # b2 = 0.1 is no multiple of 2**-53, so 1 - (1 - b2) != b2: words at the
    # 53-bit values next to threshold(0.1) tell a coin of threshold(b2) from
    # one of threshold(1 - (1 - b2)), and the two models must read the former
    b2 = 0.1
    assert 1.0 - (1.0 - b2) != b2
    words = _words_around(b2, (0, 2**11 - 1))
    field = make_field(0.0, b2)
    with _patched_words(words):
        ratios = {model: convergence_experiment((1, 1), field, [3, len(words)], 2, 1,
                                                model).ratios
                  for model in ("hammersley", "cs6v")}
    assert ratios["hammersley"].tobytes() == ratios["cs6v"].tobytes()


SRC = Path(__file__).resolve().parents[1] / "src" / "sixvertex"


def _uses(tree):
    """(kind, line) of every Philox draw, bit-generator state assignment and
    rng.threshold call in a module's syntax tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "random_raw":
            yield "random_raw", node.lineno
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Attribute) and t.attr == "state" for t in targets):
                yield "state", node.lineno
        if isinstance(node, ast.Call):
            f = node.func
            if (isinstance(f, ast.Attribute) and f.attr == "threshold"
                    or isinstance(f, ast.Name) and f.id == "threshold"):
                yield "threshold", node.lineno
        if isinstance(node, ast.ImportFrom) and any(a.name == "threshold" for a in node.names):
            yield "threshold", node.lineno


def test_one_path_from_philox_words_to_coins():
    # the Philox draw and its reset live in rng, the integer coins in lattice
    home = {"random_raw": "rng.py", "state": "rng.py", "threshold": "lattice.py"}
    strays = [(path.name, kind, line) for path in sorted(SRC.glob("*.py"))
              for kind, line in _uses(ast.parse(path.read_text()))
              if path.name != home[kind]]
    assert strays == []
    rng_tree = ast.parse((SRC / "rng.py").read_text())
    assert sum(kind == "state" for kind, _ in _uses(rng_tree)) == 1
    assert sum(kind == "random_raw" for kind, _ in _uses(rng_tree)) == 1
