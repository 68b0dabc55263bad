"""Counter-based per-cell uniforms."""

import numpy as np
import pytest

from sixvertex import rng


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
    u1, u2 = rng.row_uniforms(3, 1, 7, 12)
    for x in (1, 5, 12):
        assert rng.cell_uniforms(3, 1, x, 7) == (u1[x - 1], u2[x - 1])
    assert rng.row_uniforms(3, 1, 7, 5)[0].tolist() == u1[:5].tolist()


def test_row_uniforms_rejects_bad_addresses():
    # seeds and replicas are 64-bit key words: 2**64 must not alias 0
    for args in ((-1, 0, 1, 1), (0, -1, 1, 1), (0, 0, 0, 1), (0, 0, 1, 0),
                 (2**64, 0, 1, 1), (1 + 2**64, 0, 1, 1), (0, 2**64, 1, 1)):
        with pytest.raises(ValueError):
            rng.row_uniforms(*args)
