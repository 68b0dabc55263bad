"""Counter-based per-cell randomness.

Every lattice cell (x, y) of every replica owns two 64-bit Philox words: w1
drives the cross/continue coin (b1 axis) and w2 the nucleation/pass coin (b2
axis).  The stream is keyed by (seed, replica) and countered by the row
index, so draws depend only on the cell address: any traversal order,
chunking, or worker count reproduces identical samples, and different models
run with the same seed are coupled cell by cell.

A word w stands for the uniform u = (w >> 11) * 2**-53, the double numpy's
Generator.random makes of it (row_uniforms and cell_uniforms return those
doubles).  The samplers decide their coins on the words, exactly: for b in
[0, 1], m = w >> 11 is an integer below 2**53 and b * 2**53 is exact (a
power-of-two scaling), so u < b holds iff m < t for t = ceil(b * 2**53), and
u >= b iff not.  The threshold t lies in 0..2**53 and fits 64 bits: at b = 0
it is 0, so u < b never holds and u >= b always does; at b = 1 it is 2**53,
above every m, so u < b always holds and u >= b never does.
"""

from __future__ import annotations

import numpy as np

#: Largest seed or replica index: each is one 64-bit word of the Philox key.
MAX_SEED = (1 << 64) - 1

# One bit generator serves every row: Philox is counter-based, so resetting its
# key, counter and output buffer reproduces a freshly built stream exactly.
# The reset and the draw are two steps on shared state, so no two threads of
# one process may draw at once (worker processes are fine).
_BITGEN = np.random.Philox(0)


def _draw(seed: int, replica: int, row: int, block: int, count: int) -> np.ndarray:
    """count raw words of the row's stream, from its 4-word block `block` on."""
    if not (0 <= seed <= MAX_SEED and 0 <= replica <= MAX_SEED and 1 <= row <= MAX_SEED
            and 0 <= block <= MAX_SEED) or count < 1:  # each is one 64-bit word
        raise ValueError("need seed and replica in 0..MAX_SEED, row in 1..MAX_SEED, "
                         "width >= 1 and column in 1..2**65")
    _BITGEN.state = {  # plain ints: the setter reads them item by item
        "bit_generator": "Philox",
        "state": {"counter": (block, 0, row, 0), "key": (seed, replica)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return _BITGEN.random_raw(count)


def row_words(seed: int, replica: int, row: int, width: int) -> np.ndarray:
    """The raw Philox words of one lattice row: uint64, shape (width, 2).

    Row x-1 holds column x's pair (w1, w2); the stream is consumed two words
    per cell, so a column sees the same pair however wide the row is drawn.
    """
    return _draw(seed, replica, row, 0, 2 * width).reshape(width, 2)


def lane_words(seed: int, replicas: list, row: int, widths: list) -> np.ndarray:
    """row_words(seed, r, row, w), raveled, for each lane (r, w) of zip(replicas,
    widths), concatenated: the lane sweeps' draw, which checks the addresses
    once per row rather than once per lane."""
    if not (0 <= seed <= MAX_SEED and 0 <= min(replicas) and max(replicas) <= MAX_SEED
            and 1 <= row <= MAX_SEED) or min(widths) < 1:
        raise ValueError("need seed and replicas in 0..MAX_SEED, row in 1..MAX_SEED, widths >= 1")
    lane, words = {"counter": (0, 0, row, 0), "key": (seed, 0)}, []
    state = {"bit_generator": "Philox", "state": lane, "buffer": (0, 0, 0, 0),
             "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for r, w in zip(replicas, widths):
        lane["key"] = (seed, r)  # tuples: the setter reads them faster than lists
        _BITGEN.state = state
        words.append(_BITGEN.random_raw(2 * w))
    return np.concatenate(words)


def row_uniforms(seed: int, replica: int, row: int, width: int):
    """Uniform arrays (u1, u2), each of length width, for one lattice row:
    the doubles of row_words, bit for bit those of Generator.random."""
    u = (row_words(seed, replica, row, width) >> 11) * 2.0**-53
    return u[:, 0], u[:, 1]


def cell_uniforms(seed: int, replica: int, x: int, y: int) -> tuple[float, float]:
    """The two uniforms owned by a single cell; matches row_uniforms column x.

    Only the cell's own 4-word Philox block is drawn: cell x holds words
    2(x-1) and 2(x-1)+1 of its row, in block (x-1)//2.
    """
    w = _draw(seed, replica, y, (x - 1) // 2, 4)[2 * ((x - 1) % 2):] >> 11
    return float(w[0]) * 2.0**-53, float(w[1]) * 2.0**-53


def threshold(b) -> np.ndarray:
    """Integer thresholds ceil(b * 2**53) (uint64) of the coins u < b: u < b
    iff (w >> 11) < threshold(b); see the module docstring."""
    return np.ceil(np.asarray(b, dtype=np.float64) * 2.0**53).astype(np.uint64)
