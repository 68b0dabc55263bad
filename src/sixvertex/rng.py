"""Counter-based per-cell randomness.

Every lattice cell (x, y) of every replica owns two 64-bit Philox words: w1
drives the cross/continue coin (b1 axis) and w2 the nucleation/pass coin (b2
axis).  The stream is keyed by (seed, replica) and countered by the row
index, so draws depend only on the cell address: any traversal order,
chunking, or worker count reproduces identical samples, and different models
run with the same seed are coupled cell by cell.

One routine, _stream_words, resets the shared bit generator to an address
and draws; row_words and lane_words both go through it.

A word w stands for the uniform u = (w >> 11) * 2**-53, the double numpy's
Generator.random makes of it (row_uniforms returns those doubles).  The
samplers decide their coins on the words, exactly, in one place
(lattice._coins): for b in [0, 1], m = w >> 11 is an integer below
2**53 and b * 2**53 is exact (a power-of-two scaling), so u < b holds iff
m < t for t = ceil(b * 2**53), and u >= b iff not.  The threshold t lies in
0..2**53 and fits 64 bits: at b = 0 it is 0, so u < b never holds and
u >= b always does; at b = 1 it is 2**53, above every m, so u < b always
holds and u >= b never does.
"""

from __future__ import annotations

import numpy as np

#: Largest seed or replica index: each is one 64-bit word of the Philox key.
MAX_SEED = (1 << 64) - 1

# One bit generator serves every draw: Philox is counter-based, so resetting
# its key, counter and output buffer reproduces a freshly built stream
# exactly.  The reset and the draw are two steps on shared state, so no two
# threads of one process may draw at once (worker processes are fine).
# _STATE is the setter's input; every reset rewrites its counter and key first.
_BITGEN = np.random.Philox(0)
_LANE = {"counter": (0, 0, 1, 0), "key": (0, 0)}  # plain ints: the setter reads them item by item
_STATE = {"bit_generator": "Philox", "state": _LANE, "buffer": (0, 0, 0, 0), "buffer_pos": 4,
          "has_uint32": 0, "uinteger": 0}


def _stream_words(seed: int, replicas, row: int, widths) -> list:
    """The first 2 * widths[i] raw words (widths[i] cells) of replica
    replicas[i]'s row stream: the one reset of the shared bit generator.  The
    addresses, each one 64-bit word, are checked once per call."""
    if not (0 <= seed <= MAX_SEED and 0 <= min(replicas) and max(replicas) <= MAX_SEED
            and 1 <= row <= MAX_SEED) or min(widths) < 1:
        raise ValueError("need seed and replicas in 0..MAX_SEED, row in 1..MAX_SEED "
                         "and widths >= 1")
    _LANE["counter"], words = (0, 0, row, 0), []
    for r, w in zip(replicas, widths):
        _LANE["key"] = (seed, r)  # tuples: the setter reads them faster than lists
        _BITGEN.state = _STATE
        words.append(_BITGEN.random_raw(2 * w))
    return words


def row_words(seed: int, replica: int, row: int, width: int) -> np.ndarray:
    """The raw Philox words of one lattice row: uint64, shape (width, 2).

    Row x-1 holds column x's pair (w1, w2); the stream is consumed two words
    per cell, so a column sees the same pair however wide the row is drawn.
    """
    return _stream_words(seed, (replica,), row, (width,))[0].reshape(width, 2)


def lane_words(seed: int, replicas: list, row: int, widths: list) -> np.ndarray:
    """row_words(seed, r, row, w), raveled, for each lane (r, w) of zip(replicas,
    widths), concatenated: the lane sweeps' draw."""
    return np.concatenate(_stream_words(seed, replicas, row, widths))


def row_uniforms(seed: int, replica: int, row: int, width: int):
    """Uniform arrays (u1, u2), each of length width, for one lattice row:
    the doubles of row_words, bit for bit those of Generator.random."""
    u = (row_words(seed, replica, row, width) >> 11) * 2.0**-53
    return u[:, 0], u[:, 1]


def threshold(b) -> np.ndarray:
    """Integer thresholds ceil(b * 2**53) (uint64) of the coins u < b: u < b
    iff (w >> 11) < threshold(b); see the module docstring."""
    return np.ceil(np.asarray(b, dtype=np.float64) * 2.0**53).astype(np.uint64)
