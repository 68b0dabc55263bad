"""Reference for the per-cell randomness: the two uniforms of one cell, from
a Philox stream built for that cell's own 4-word block.

Cell x of row y holds words 2(x-1) and 2(x-1)+1 of the row stream keyed by
(seed, replica), in block (x-1)//2.  Counter and key are passed as uint64
arrays, since a list holding 2**64 - 1 would be cast through int64.
"""

import numpy as np


def cell_uniforms(seed, replica, x, y):
    """The uniforms (u1, u2) of cell (x, y); rng.row_uniforms column x."""
    bitgen = np.random.Philox(counter=np.array([(x - 1) // 2, 0, y, 0], dtype=np.uint64),
                              key=np.array([seed, replica], dtype=np.uint64))
    w = bitgen.random_raw(4)[2 * ((x - 1) % 2):] >> 11
    return float(w[0]) * 2.0**-53, float(w[1]) * 2.0**-53
