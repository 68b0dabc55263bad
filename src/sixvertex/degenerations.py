"""Degenerations of the complemented model.

Two specializations of the parameters collapse the vertex dynamics onto
known growth models:

* b1 = 0, b2 = 1 - p: lines never cross, and the height of the complemented
  model equals the longest-chain (patience/last-passage) height of a
  Bernoulli(p) point set, both in law and pathwise under the shared-coin
  coupling;
* (b1, b2) = (t, 1): the ten-weight algebra collapses onto the four symbols
  {0, t, 1-t, 1}, where the level product becomes a modified minimum
  (complementary symbols t and 1-t meet in 0; otherwise the usual order
  0 < {t, 1-t} < 1 applies).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .lattice import ParameterField, _coin_rows, _row_bits, height_H, make_field, sample_cs6v
from .lmatrix import VERIFY_TOL, _key_codes, fold_projection, l1_weight
from .report import VerificationReport
from .weights import B1, ONE, ONE_MINUS_B1, W, Weight, ZERO, eval_table, render

MAX_ENUM_CELLS = 12  # point subsets of the Hammersley enumeration: 2**12
MAX_TRANSFER_WIDTH = 16  # cs6v transfer states: 2**17 floats


# ---------------------------------------------------------------------------
# Point sets and the longest-chain height

@dataclass
class PointSet:
    """A 0/1 field over the cells of a width x height box.

    grid[x-1, y-1] marks a point at (x, y); coordinates are 1-based.
    """

    width: int
    height: int
    grid: np.ndarray

    def __post_init__(self):
        if self.grid.shape != (self.width, self.height):
            raise ValueError("grid shape must be (width, height)")

    def points(self) -> list[tuple[int, int]]:
        xs, ys = np.nonzero(self.grid)
        return sorted(zip((xs + 1).tolist(), (ys + 1).tolist()))


def sample_pointset(width: int, height: int, p: float, seed: int,
                    replica: int = 0) -> PointSet:
    """Independent Bernoulli(p) points, one per cell.

    Cell (x, y) holds a point iff it nucleates in the complemented model on
    make_field(0, 1 - p): the grid is read off the nucleate words of
    lattice._coin_rows, the coin u2 >= 1 - p on the cell's second uniform, so
    point sets and lattice samples with equal seeds couple cell by cell.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    coins = _coin_rows(width, height, make_field(0.0, 1.0 - p), seed, replica)
    return PointSet(width, height, _row_bits(width, height, coins)[:, 1].T.astype(bool, order="C"))


def _chain_heights(grid: np.ndarray) -> np.ndarray:
    """hammersley_height of the point grids grid[..., :, :], for any leading axes."""
    *lead, width, height = grid.shape
    H = np.zeros((*lead, width + 1, height + 1), dtype=np.int64)
    for y in range(1, height + 1):  # the chain step, row by row
        H[..., 1:, y] = np.maximum.accumulate(
            np.maximum(H[..., 1:, y - 1], H[..., :-1, y - 1] + grid[..., y - 1]), axis=-1)
    return H


def hammersley_height(ps: PointSet) -> np.ndarray:
    """Longest-chain height: entry [x, y] is the maximal number of points of
    ps below-left of (x, y) forming a chain that strictly increases in both
    coordinates.  Shape (width+1, height+1)."""
    return _chain_heights(ps.grid)


# ---------------------------------------------------------------------------
# Exact small-box distributions

def enumerate_cs6v_height_distribution(width: int, height: int,
                                       field: ParameterField) -> dict[int, float]:
    """Exact law of the complemented model's height at the top-right corner
    (empty boundary), by a row-by-row, cell-by-cell transfer of the mass of
    every state (north word, west bit) through the one-color weights."""
    if not (0 <= width <= MAX_TRANSFER_WIDTH and height >= 0):
        raise ValueError(f"transfer limited to widths 0..{MAX_TRANSFER_WIDTH} and heights >= 0")
    # Per field entry, the weights [south, west; north, east] as a matrix from
    # (west, south) to (north, east).
    values = np.array([[eval_table(b1, b2) for b1, b2 in zip(r1, r2)]
                       for r1, r2 in zip(field.b1.tolist(), field.b2.tolist())])
    step = values[..., _key_codes(1)].transpose(0, 1, 4, 5, 3, 2).reshape(field.I, field.J, 4, 4)
    words = 1 << width
    mass = np.zeros(2 * words)  # at a row's start: west bit, then the north word
    mass[0] = 1.0
    for y in range(height):
        for x in range(width):  # state bits: north of columns < x, west, south of columns >= x
            mass = np.matmul(step[x % field.I, y % field.J], mass.reshape(1 << x, 4, -1))
        mass = np.concatenate((mass.reshape(words, 2).sum(axis=1), np.zeros(words)))  # east leaves
    law = np.bincount([w.bit_count() for w in range(words)], weights=mass[:words])
    return {k: float(m) for k, m in enumerate(law) if m > 0.0}


@lru_cache(maxsize=None)
def _subset_heights(width: int, height: int) -> tuple:
    """(corner height, point count) of each point subset, in itertools.product
    order over grid[x, y] (y fastest), from one _chain_heights call."""
    bits = np.arange(1 << width * height)[:, None] >> np.arange(width * height)[::-1] & 1
    corner = _chain_heights(bits.reshape(len(bits), width, height))[:, width, height]
    return tuple(zip(corner.tolist(), bits.sum(axis=1).tolist()))


def enumerate_hammersley_distribution(width: int, height: int,
                                      p: float) -> dict[int, float]:
    """Exact law of the longest-chain height at (width, height) for the
    Bernoulli(p) point field, summed over the point subsets of _subset_heights."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    cells = width * height
    if cells > MAX_ENUM_CELLS:
        raise ValueError(f"enumeration limited to {MAX_ENUM_CELLS} cells")
    dist: dict[int, float] = {}
    for h, ones in _subset_heights(width, height):
        dist[h] = dist.get(h, 0.0) + (p ** ones) * ((1.0 - p) ** (cells - ones))
    return dist


def verify_hammersley_equivalence(width: int, height: int, p: float) -> VerificationReport:
    """The two exact corner laws agree: complemented model at (0, 1-p) versus
    longest-chain height of Bernoulli(p) points."""
    rep = VerificationReport(f"hammersley law {width}x{height} p={p}")
    da = enumerate_cs6v_height_distribution(width, height, make_field(0.0, 1.0 - p))
    db = enumerate_hammersley_distribution(width, height, p)
    for k in sorted(set(da) | set(db)):
        rep.cases += 1
        pa, pb = da.get(k, 0.0), db.get(k, 0.0)
        if abs(pa - pb) > VERIFY_TOL:
            rep.fail(f"P(H={k}): {pa!r} vs {pb!r}")
    rep.details["law"] = {str(k): db.get(k, 0.0) for k in sorted(db)}
    return rep


def verify_hammersley_coupling(width: int, height: int, p: float,
                               seeds) -> VerificationReport:
    """Pathwise identity under the shared-coin coupling: for every seed, the
    complemented model at (0, 1-p) and the longest-chain height of the
    coupled point set agree at every lattice point."""
    rep = VerificationReport(f"hammersley coupling {width}x{height} p={p}")
    field = make_field(0.0, 1.0 - p)
    for seed in seeds:
        rep.cases += 1
        e = sample_cs6v(width, height, field, seed)
        ps = sample_pointset(width, height, p, seed)
        if not np.array_equal(height_H(e), hammersley_height(ps)):
            bad = np.argwhere(height_H(e) != hammersley_height(ps))[0]
            rep.fail(f"seed {seed}: heights differ first at {tuple(bad)}")
    return rep


# ---------------------------------------------------------------------------
# The four-symbol collapse at (b1, b2) = (t, 1)

_T_SYMBOLS = (ZERO, B1, ONE_MINUS_B1, ONE)  # read B1 as t, ONE_MINUS_B1 as 1-t


def specialize_t(w: Weight) -> Weight:
    """Image of a weight under b2 -> 1, with b1 read as the symbol t."""
    if w.zero or w.a2 == 2:
        return ZERO
    return (ONE, B1, ONE_MINUS_B1)[w.a1]


def modified_min(values) -> Weight:
    """Minimum on {0, t, 1-t, 1}, except that t and 1-t together give 0.

    Otherwise symbols are ordered 0 < {t, 1-t} < 1 (only comparable chains
    occur once the mixed case is excluded).  The empty minimum is 1.
    """
    seen = set()
    for w in values:
        if w not in _T_SYMBOLS:
            raise ValueError(f"not a collapsed symbol: {render(w)}")
        seen.add(w)
    if B1 in seen and ONE_MINUS_B1 in seen:
        return ZERO
    for w in (ZERO, B1, ONE_MINUS_B1):
        if w in seen:
            return w
    return ONE


def verify_tpng_equivalence(n: int) -> VerificationReport:
    """At (b1, b2) = (t, 1) the level product agrees with the modified minimum
    of the collapsed level weights, for every n-color vertex key."""
    if not 1 <= n <= 3:
        raise ValueError("equivalence enumeration limited to n <= 3")
    rep = VerificationReport(f"modified-min equivalence n={n}")
    v = np.arange(1 << n)
    lhs = np.array([specialize_t(w).code for w in W])[_key_codes(n)]
    # Each key's collapsed level symbols as a base-4 number (digit r-1 for
    # level r), then the modified minimum of every such symbol tuple.
    symbol = np.array([_T_SYMBOLS.index(specialize_t(l1_weight(*bits)))
                       for bits in itertools.product((0, 1), repeat=4)])
    tuples = 0
    for r in range(1, n + 1):
        fold = np.array([fold_projection(x, r) for x in v])
        fi, fj, fk, fl = np.ix_(fold, fold, fold, fold)
        level = (fi << 3) | (fj << 2) | (fk << 1) | fl
        tuples = tuples + (symbol[level] << 2 * (r - 1))
    rhs = np.array([modified_min(_T_SYMBOLS[t >> 2 * r & 3] for r in range(n)).code
                    for t in range(4 ** n)])[tuples]
    rep.cases += lhs.size
    for i, j, k, l in np.argwhere(lhs != rhs).tolist():
        rep.fail(f"key ({i},{j};{k},{l}): {render(W[lhs[i, j, k, l]])} "
                 f"vs {render(W[rhs[i, j, k, l]])}")
    return rep
