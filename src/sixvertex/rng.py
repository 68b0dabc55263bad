"""Counter-based per-cell randomness.

Every lattice cell (x, y) of every replica owns two uniforms: u1 drives the
cross/continue coin (b1 axis) and u2 drives the nucleation/pass coin (b2
axis).  The stream is keyed by (seed, replica) and countered by the row
index, so draws depend only on the cell address: any traversal order,
chunking, or worker count reproduces identical samples, and different models
run with the same seed are coupled cell by cell.
"""

from __future__ import annotations

import numpy as np

#: Largest seed or replica index: each is one 64-bit word of the Philox key.
MAX_SEED = (1 << 64) - 1

# One generator serves every row: Philox is counter-based, so resetting its
# key, counter and output buffer reproduces a freshly built stream exactly.
# The reset and the draw are two steps on shared state, so row_uniforms must
# not run in several threads of one process at once (worker processes are fine).
_BITGEN = np.random.Philox(0)
_GEN = np.random.Generator(_BITGEN)
_EMPTY_BUFFER = np.zeros(4, dtype=np.uint64)


def row_uniforms(seed: int, replica: int, row: int, width: int):
    """Uniform arrays (u1, u2), each of length width, for one lattice row.

    The row stream is consumed two doubles per cell, so column x (1-based)
    always sees the same pair (u1[x-1], u2[x-1]) no matter how wide the row
    was sampled.
    """
    if not (0 <= seed <= MAX_SEED and 0 <= replica <= MAX_SEED) or row < 1 or width < 1:
        raise ValueError("need seed and replica in 0..MAX_SEED, row >= 1, width >= 1")
    _BITGEN.state = {
        "bit_generator": "Philox",
        "state": {
            "counter": np.array([0, 0, row, 0], dtype=np.uint64),
            "key": np.array([seed, replica], dtype=np.uint64),
        },
        "buffer": _EMPTY_BUFFER,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    r = _GEN.random(2 * width)
    return r[0::2], r[1::2]


def cell_uniforms(seed: int, replica: int, x: int, y: int) -> tuple[float, float]:
    """The two uniforms owned by a single cell; matches row_uniforms column x."""
    u1, u2 = row_uniforms(seed, replica, y, x)
    return float(u1[x - 1]), float(u2[x - 1])
