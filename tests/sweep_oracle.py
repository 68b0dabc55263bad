"""Reference row sweep: the columnwise numpy scan with both rule sets
written out, kept as the oracle for the packed-bit carry kernel."""

import numpy as np

from sixvertex import rng


def scan_row(force0: np.ndarray, force1: np.ndarray, west0: bool) -> np.ndarray:
    """East-edge occupancies of one row from its columnwise transfer maps.

    Each column acts on the incoming horizontal occupancy as the identity,
    the constant 0, or the constant 1; the row output is determined by the
    last forcing column at or before each position.
    """
    idx = np.arange(force0.shape[0])
    last = np.maximum.accumulate(np.where(force0 | force1, idx, -1))
    return np.where(last >= 0, force1[np.maximum(last, 0)], west0)


def sweep_rows(width, height, field, seed, replica, variant):
    """Yield the boolean (north, east) occupancies of rows 1..height.

    variant "s6v" runs the step-data rules, anything else the complemented
    rules with empty boundary.
    """
    step = variant == "s6v"
    south = np.zeros(width, dtype=bool)
    west = np.full(width, step)  # west[0] is the boundary input, the rest is east shifted
    for y in range(1, height + 1):
        u1, u2 = rng.row_uniforms(seed, replica, y, width)
        b1r, b2r = field.rows(y, width)
        X, N = u1 < b1r, u2 >= b2r
        if step:  # the south line continues north iff X, the west line east iff not N
            east = scan_row(~south & N, south & ~X, True)
        else:     # meeting lines cross iff X, an empty vertex nucleates iff N
            east = scan_row(south & ~X, ~south & N, False)
        west[1:] = east[:-1]
        north = np.where(south, west | X, west & N) if step else \
            np.where(south, ~west | X, ~west & N)
        yield north, east
        south = north
