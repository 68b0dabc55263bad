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

Both exact corner laws of the first degeneration run through one row transfer,
_transfer_law: the complemented model's one-color weights, or the chain step.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .lattice import ParameterField, _coin_rows, _row_bits, height_H, make_field, sample_cs6v
from .lmatrix import VERIFY_TOL, _key_codes, _levels_from_colors, l1_weight
from .report import VerificationReport
from .weights import B1, ONE, ONE_MINUS_B1, W, Weight, ZERO, eval_table, render

MAX_TRANSFER_WIDTH = 16  # transfer states: 2**17 floats


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


def hammersley_height(ps: PointSet) -> np.ndarray:
    """Longest-chain height: entry [x, y] is the maximal number of points of
    ps below-left of (x, y) forming a chain that strictly increases in both
    coordinates.  Shape (width+1, height+1)."""
    H = np.zeros((ps.width + 1, ps.height + 1), dtype=np.int64)
    for y in range(1, ps.height + 1):  # the chain step, row by row
        H[1:, y] = np.maximum.accumulate(
            np.maximum(H[1:, y - 1], H[:-1, y - 1] + ps.grid[:, y - 1]))
    return H


# ---------------------------------------------------------------------------
# Exact small-box distributions

def _transfer_law(width: int, height: int, step: np.ndarray) -> dict[int, float]:
    """Law of the number of north bits leaving the top of a box entered empty,
    by a row-by-row, cell-by-cell transfer of the mass of every state (north
    word, west bit); cell (x, y) applies step[x % I, y % J], a 4x4 matrix from
    (west, south) to (north, east)."""
    if not (0 <= width <= MAX_TRANSFER_WIDTH and height >= 0):
        raise ValueError(f"transfer limited to widths 0..{MAX_TRANSFER_WIDTH} and heights >= 0")
    I, J = step.shape[:2]
    words = 1 << width
    mass = np.zeros(2 * words)  # at a row's start: west bit, then the north word
    mass[0] = 1.0
    for y in range(height):
        for x in range(width):  # state bits: north of columns < x, west, south of columns >= x
            mass = np.matmul(step[x % I, y % J], mass.reshape(1 << x, 4, -1))
        mass = np.concatenate((mass.reshape(words, 2).sum(axis=1), np.zeros(words)))  # east leaves
    law = np.bincount([w.bit_count() for w in range(words)], weights=mass[:words])
    return {k: float(m) for k, m in enumerate(law) if m > 0.0}


def enumerate_cs6v_height_distribution(width: int, height: int,
                                       field: ParameterField) -> dict[int, float]:
    """Exact law of the complemented model's height at the top-right corner
    (empty boundary): _transfer_law through the one-color weights."""
    # Per field entry, the weights [south, west; north, east] as a step matrix.
    values = np.array([[eval_table(b1, b2) for b1, b2 in zip(r1, r2)]
                       for r1, r2 in zip(field.b1.tolist(), field.b2.tolist())])
    step = values[..., _key_codes(1)].transpose(0, 1, 4, 5, 3, 2).reshape(field.I, field.J, 4, 4)
    return _transfer_law(width, height, step)


def enumerate_hammersley_distribution(width: int, height: int,
                                      p: float) -> dict[int, float]:
    """Exact law of the longest-chain height at (width, height) for the
    Bernoulli(p) point field, through the chain step H'(x) = max(H'(x-1), H(x),
    H(x-1) + point) on d = H(x) - H(x-1) (south) and e = H'(x-1) - H(x-1)
    (west): e' = max(e - d, 0, point - d) goes east and d + e' - e north."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    step = np.zeros((1, 1, 4, 4))
    for e, d, point in itertools.product((0, 1), repeat=3):
        east = max(e - d, 0, point - d)
        step[0, 0, 2 * (d + east - e) + east, 2 * e + d] += p if point else 1.0 - p
    return _transfer_law(width, height, step)


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
    lhs = np.array([specialize_t(w).code for w in W])[_key_codes(n)]
    # Each key's collapsed level symbols as a base-4 number (digit r-1 for
    # level r), then the modified minimum of every such symbol tuple.
    symbol = np.array([_T_SYMBOLS.index(specialize_t(l1_weight(*bits)))
                       for bits in itertools.product((0, 1), repeat=4)])
    tuples, levels = 0, _levels_from_colors(np.arange(1 << n), n)
    for r in range(1, n + 1):
        fi, fj, fk, fl = np.ix_(*[levels >> (r - 1) & 1] * 4)
        level = (fi << 3) | (fj << 2) | (fk << 1) | fl
        tuples = tuples + (symbol[level] << 2 * (r - 1))
    rhs = np.array([modified_min(_T_SYMBOLS[t >> 2 * r & 3] for r in range(n)).code
                    for t in range(4 ** n)])[tuples]
    rep.cases += lhs.size
    for i, j, k, l in np.argwhere(lhs != rhs).tolist():
        rep.fail(f"key ({i},{j};{k},{l}): {render(W[lhs[i, j, k, l]])} "
                 f"vs {render(W[rhs[i, j, k, l]])}")
    return rep
