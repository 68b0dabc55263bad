"""Colored vertex transition weights built level by level.

A vertex key is four color vectors (i, j; k, l) = (south, west; north, east),
each an n-bit occupancy word with bit r-1 recording presence of color r
(color 1 has the highest priority).  The n-color weight is the product of
single-color weights of the r-fold projections: level r sees the parity of
the first r colors on each edge, and the ten-element symbolic algebra from
`weights` multiplies the level weights together, so shared randomness shows
up as idempotence and contradictory demands annihilate to 0.

One fold, `_ln_code`, computes the level product for one key or broadcast
arrays of keys; the exhaustive verifiers are reductions over the table of all
key codes (rows for stochasticity, fibers of a color projection for color
ignorance and mod-2 erasure).

The same structure yields an exact sampler driven by two coins per vertex:
one cross/continue coin on the b1 axis shared by all both-occupied levels,
and one nucleation coin on the b2 axis shared by all empty levels.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import fsum

import numpy as np

from . import weights
from .report import VerificationReport
from .weights import (B1, B1_B2, B1_ONE_MINUS_B2, B2, ONE, ONE_MINUS_B1, ONE_MINUS_B1_B2,
                      ONE_MINUS_B1_ONE_MINUS_B2, ONE_MINUS_B2, Weight, ZERO)

MAX_COLORS = 32

# Parameter grid of the numeric verifiers: the coarse lattice
# {0, 0.3, 0.7, 1}^2, which includes the degenerate corners (0,1) and (1,0).
VERIFY_GRID: tuple[tuple[float, float], ...] = tuple(
    itertools.product((0.0, 0.3, 0.7, 1.0), repeat=2)
)

VERIFY_TOL = 1e-12


# ---------------------------------------------------------------------------
# Color vectors

def format_colors(bits: int, n: int) -> str:
    """Render an occupancy word as a bit string, color 1 first: (1,0) -> '10'."""
    return "".join("1" if (bits >> r) & 1 else "0" for r in range(n))


def parse_colors(text: str) -> tuple[int, int]:
    """Inverse of format_colors; returns (bits, n)."""
    if not text or any(c not in "01" for c in text):
        raise ValueError(f"not a color bit string: {text!r}")
    return sum(1 << r for r, c in enumerate(text) if c == "1"), len(text)


def fold_projection(bits: int, r: int) -> int:
    """Parity of the first r colors: the level-r occupancy of an edge."""
    if r < 0:
        raise ValueError("projection level must be nonnegative")
    return (bits & ((1 << r) - 1)).bit_count() & 1


def _check_key(n: int, *vecs: int) -> None:
    if not 1 <= n <= MAX_COLORS:
        raise ValueError(f"color count must be in 1..{MAX_COLORS}, got {n}")
    for v in vecs:
        if not 0 <= v < (1 << n):
            raise ValueError(f"color vector {v} out of range for n={n}")


# ---------------------------------------------------------------------------
# Single-color weights and their level products

def _build_l1() -> tuple[Weight, ...]:
    table = [ZERO] * 16
    entries = {
        (1, 0, 1, 0): ONE,            # south line continues north
        (0, 1, 0, 1): ONE,            # west line continues east
        (0, 0, 0, 0): B2,             # stay empty
        (0, 0, 1, 1): ONE_MINUS_B2,   # nucleate a corner
        (1, 1, 1, 1): B1,             # two lines cross
        (1, 1, 0, 0): ONE_MINUS_B1,   # two lines annihilate
    }
    for (i, j, k, l), w in entries.items():
        table[(i << 3) | (j << 2) | (k << 1) | l] = w
    return tuple(table)


_L1 = _build_l1()


# Read-only weight codes of the one-color rule, indexed (i << 3) | (j << 2) |
# (k << 1) | l, and of the product, indexed [a, b].
_L1_CODES = np.array([w.code for w in _L1], dtype=np.int8)
_STAR_CODES = np.array([[weights.star(a, b).code for b in weights.W] for a in weights.W],
                       dtype=np.int8)
_L1_CODES.setflags(write=False)
_STAR_CODES.setflags(write=False)


def l1_weight(i: int, j: int, k: int, l: int) -> Weight:
    """Single-color vertex weight for occupation bits (south, west; north, east)."""
    for v in (i, j, k, l):
        if v not in (0, 1):
            raise ValueError("single-color occupations must be 0 or 1")
    return _L1[(i << 3) | (j << 2) | (k << 1) | l]


def _ln_code(i, j, k, l, n: int):
    """Weight code of the n-color key (i, j; k, l): the product over levels r
    of the one-color codes of the r-fold projections.  The words may be ints
    or integer arrays, which broadcast together."""
    si = sj = sk = sl = 0
    code = ONE.code
    for r in range(n):
        si ^= (i >> r) & 1
        sj ^= (j >> r) & 1
        sk ^= (k >> r) & 1
        sl ^= (l >> r) & 1
        code = _STAR_CODES[code, _L1_CODES[(si << 3) | (sj << 2) | (sk << 1) | sl]]
    return code


@lru_cache(maxsize=None)
def _key_codes(n: int) -> np.ndarray:
    """Read-only weight codes of all (2^n)^4 n-color keys, indexed [i, j, k, l]."""
    if not 1 <= n <= 4:
        raise ValueError("key tables limited to 1 <= n <= 4 (16^n keys)")
    v = np.arange(1 << n)
    codes = _ln_code(v[:, None, None, None], v[:, None, None], v[:, None], v, n)
    codes.setflags(write=False)
    return codes


def ln_weight(i: int, j: int, k: int, l: int, n: int) -> Weight:
    """n-color vertex weight: the product over levels r of the single-color
    weight of the r-fold projections of (i, j; k, l).  For n <= 4 the code is
    read from the cached table of all keys, which the same fold builds."""
    _check_key(n, i, j, k, l)
    return weights.W[_key_codes(n)[i, j, k, l] if n <= 4 else _ln_code(i, j, k, l, n)]


@dataclass(frozen=True)
class OutcomeDistribution:
    """Output law of one vertex given inputs: aligned outcome/probability lists.

    outcomes are (north, east) occupancy-word pairs sorted lexicographically
    by color tuples; probabilities are the evaluated weights and sum to 1.
    """

    n: int
    outcomes: tuple[tuple[int, int], ...]
    probs: tuple[float, ...]

    def as_dict(self) -> dict[tuple[int, int], float]:
        return dict(zip(self.outcomes, self.probs))


@lru_cache(maxsize=4096)
def _ln_distribution_cached(i, j, n, b1, b2):
    v = np.arange(1 << n)
    codes = _ln_code(i, j, v[:, None], v, n)
    outcomes = tuple(sorted(map(tuple, np.argwhere(codes).tolist()),
                            key=lambda kl: (format_colors(kl[0], n), format_colors(kl[1], n))))
    probs = tuple(weights.evaluate(weights.W[codes[kl]], b1, b2) for kl in outcomes)
    return OutcomeDistribution(n, outcomes, probs)


def ln_distribution(i: int, j: int, n: int, b1: float, b2: float) -> OutcomeDistribution:
    """Exact output law at numeric parameters, by enumeration of all 4^n outputs."""
    _check_key(n, i, j)
    if n > 8:
        raise ValueError("distribution enumeration limited to n <= 8")
    if not (0.0 <= b1 <= 1.0 and 0.0 <= b2 <= 1.0):
        raise ValueError("parameters must lie in [0, 1]")
    return _ln_distribution_cached(i, j, n, float(b1), float(b2))


# ---------------------------------------------------------------------------
# Two-coin sampler

def _levels_from_colors(words, n: int):
    """Level-parity words of n-color words (ints or arrays): bit L-1 is the
    parity of colors 1..L."""
    shift = 1
    while shift < n:
        words = words ^ (words << shift)
        shift <<= 1
    return words & ((1 << n) - 1)


def _colors_from_levels(levels, n: int):
    """Inverse of _levels_from_colors, in place for arrays: color c flips levels c-1 and c."""
    levels ^= levels << 1
    levels &= (1 << n) - 1
    return levels


def _two_coin(i, j, n: int, cross, nucleate):
    """(north, east) words of the two-coin rule for ints or broadcast arrays;
    cross and nucleate are level words, 0 or all n bits."""
    si, sj = _levels_from_colors(i, n), _levels_from_colors(j, n)
    one = si ^ sj  # levels with one input keep it
    shared = (si & cross) | (~si & nucleate)
    sk, sl = (si & one) | (shared & ~one), (sj & one) | (shared & ~one)
    return _colors_from_levels(sk, n), _colors_from_levels(sl, n)


def vertex_outcome(i: int, j: int, n: int, cross: bool, nucleate: bool) -> tuple[int, int]:
    """Deterministic outcome of the two-coin rule.

    Level r with one input keeps it; with two inputs both continue iff
    `cross`; with no input both outputs appear iff `nucleate`.  The output
    words are recovered from the level occupancies by successive parity
    differences.
    """
    _check_key(n, i, j)
    full = (1 << n) - 1
    return _two_coin(i, j, n, full if cross else 0, full if nucleate else 0)


def sample_vertex(i: int, j: int, n: int, b1: float, b2: float,
                  u1: float, u2: float) -> tuple[int, int]:
    """One exact draw from the vertex law using two uniforms in [0, 1).

    u1 drives the cross coin (crosses with probability b1); u2 drives the
    nucleation coin (nucleates with probability 1 - b2).
    """
    return vertex_outcome(i, j, n, u1 < b1, u2 >= b2)


def coin_law(i: int, j: int, n: int, b1: float, b2: float) -> dict[tuple[int, int], float]:
    """Law induced by the two-coin sampler, accumulated over the 4 coin combos."""
    out: dict[tuple[int, int], float] = {}
    for cross in (False, True):
        for nuc in (False, True):
            p = (b1 if cross else 1.0 - b1) * ((1.0 - b2) if nuc else b2)
            key = vertex_outcome(i, j, n, cross, nuc)
            out[key] = out.get(key, 0.0) + p
    return {k: v for k, v in out.items() if v > 0.0}


@lru_cache(maxsize=None)
def outcome_table(n: int) -> np.ndarray:
    """Packed outcome lookup for the two-coin rule.

    Shape (2^n, 2^n, 2, 2), indexed [i, j, cross, nucleate]; each entry holds
    (north << n) | east as uint32: vertex_outcome's rule on arrays.
    """
    if not 1 <= n <= 12:
        raise ValueError("outcome tables limited to 1 <= n <= 12")
    v = np.arange(1 << n, dtype=np.uint32)
    coin = np.array([0, (1 << n) - 1], dtype=np.uint32)
    k, l = _two_coin(v[:, None, None, None], v[:, None, None], n, coin[:, None], coin)
    table = (k << n) | l
    table.setflags(write=False)
    return table


# ---------------------------------------------------------------------------
# Partitions into consecutive color blocks

def validate_partition(cuts: tuple[int, ...], n: int) -> None:
    """Cut points r_1 < ... < r_m = n with r_1 >= 1 define consecutive blocks."""
    if not cuts or list(cuts) != sorted(set(cuts)) or cuts[0] < 1 or cuts[-1] != n:
        raise ValueError(f"invalid block partition {cuts} for n={n}")


def contiguous_partitions(n: int):
    """All partitions of colors 1..n into consecutive blocks, as cut tuples."""
    for inner in itertools.chain.from_iterable(
        itertools.combinations(range(1, n), r) for r in range(n)
    ):
        yield inner + (n,)


def partition_projection(bits: int, cuts: tuple[int, ...], n: int) -> int:
    """Merge each consecutive color block to its parity; block b -> bit b-1."""
    validate_partition(cuts, n)
    _check_key(n, bits)
    levels = [fold_projection(bits, r) for r in cuts]
    return sum((a ^ b) << c for c, (a, b) in enumerate(zip(levels, [0] + levels)))


# ---------------------------------------------------------------------------
# Exhaustive verifiers

# The partitions of unity that a stochastic row's nonzero weights may form.
_ROW_FAMILIES = ((ONE,), (B1, ONE_MINUS_B1), (B2, ONE_MINUS_B2),
                 (B1_B2, B1_ONE_MINUS_B2, ONE_MINUS_B1_B2, ONE_MINUS_B1_ONE_MINUS_B2))


def _exact_misses(vals: np.ndarray, want) -> np.ndarray:
    """Exactly rounded sums (fsum) over the last axis of vals where they miss
    want by more than VERIFY_TOL, NaN elsewhere.  numpy's sums pick the
    candidates: their rounding error cannot reach VERIFY_TOL / 2 unless the
    sum is far off anyway."""
    want = np.broadcast_to(want, vals.shape[:-1])
    got = np.full(want.shape, np.nan)
    for idx in zip(*np.nonzero(np.abs(vals.sum(axis=-1) - want) > VERIFY_TOL / 2)):
        total = fsum(vals[idx])
        if abs(total - want[idx]) > VERIFY_TOL:
            got[idx] = total
    return got


def verify_stochastic(n: int) -> VerificationReport:
    """Row sums of the n-color weights equal 1 with nonnegative entries.

    Checks every (south, west) input pair: numerically on each grid parameter
    pair (exact-rounded fsum within 1e-12), and symbolically (the multiset of
    nonzero row weights is one of the four partition-of-unity families).
    """
    if not 1 <= n <= 4:
        raise ValueError("stochasticity enumeration limited to n <= 4 (16^n keys)")
    rep = VerificationReport(f"stochasticity n={n}")
    size = 1 << n
    rows = _key_codes(n).reshape(size * size, -1)  # row i * size + j
    # at most 4 nonzero codes, which sorted end the row as one family does
    families = np.array([sorted([0] * (4 - len(f)) + [w.code for w in f]) for f in _ROW_FAMILIES])
    unity = (np.count_nonzero(rows, axis=1) <= 4) & \
        (np.sort(rows, axis=1)[:, None, -4:] == families).all(axis=2).any(axis=1)
    negative = np.zeros((len(VERIFY_GRID), len(rows)), dtype=bool)
    sums = np.empty((len(VERIFY_GRID), len(rows)))
    for g, (b1, b2) in enumerate(VERIFY_GRID):  # one grid point at a time: 16^n floats
        vals = np.array(weights.eval_table(b1, b2))[rows]
        negative[g], sums[g] = vals.min(axis=1) < 0.0, _exact_misses(vals, 1.0)
    rep.cases += len(rows) * (1 + len(VERIFY_GRID))
    for row in np.flatnonzero(~unity | negative.any(0) | ~np.isnan(sums).all(0)).tolist():
        i, j = divmod(row, size)
        if not unity[row]:
            rep.fail(f"row ({format_colors(i, n)},{format_colors(j, n)}): weights not a "
                     f"unity family: {tuple(sorted(c for c in rows[row].tolist() if c))}")
        for g, (b1, b2) in enumerate(VERIFY_GRID):
            if negative[g, row]:
                rep.fail(f"negative weight in row ({i},{j}) at ({b1},{b2})")
            if not np.isnan(sums[g, row]):
                rep.fail(f"row ({format_colors(i, n)},{format_colors(j, n)}) "
                         f"sums to {float(sums[g, row])!r} at (b1,b2)=({b1},{b2})")
    rep.details["grid"] = list(VERIFY_GRID)
    return rep


def _fiber_check(rep: VerificationReport, n: int, proj, m: int, head: str,
                 target: str) -> VerificationReport:
    """Summing the n-color law over the output fibers of a color projection
    (proj[v] is the m-color word of the n-color word v) gives the m-color law
    of the projected inputs within 1e-12 on the grid.  proj is linear over
    xor and onto, so all fibers have 2^(n-m) words."""
    size, psize, tail = 1 << n, 1 << m, 1 << (n - m)
    proj = np.asarray(proj)
    order = np.argsort(proj, kind="stable")  # words of fiber p at p*tail..(p+1)*tail-1
    codes = _key_codes(n)[:, :, order[:, None], order].reshape(
        size, size, psize, tail, psize, tail).transpose(0, 1, 2, 4, 3, 5).reshape(
        size, size, psize, psize, -1)
    mcodes = _key_codes(m)[proj[:, None], proj]
    tables = np.array([weights.eval_table(b1, b2) for b1, b2 in VERIFY_GRID])
    got = np.empty(mcodes.shape + (len(VERIFY_GRID),))  # the grid point varies fastest
    for g, tbl in enumerate(tables):
        got[..., g] = _exact_misses(tbl[codes], tbl[mcodes])
    rep.cases += got.size
    for i, j, kp, lp, g in np.argwhere(~np.isnan(got)).tolist():
        b1, b2 = VERIFY_GRID[g]
        rep.fail(f"{head} i={format_colors(i, n)} j={format_colors(j, n)} "
                 f"{target}=({format_colors(kp, m)},{format_colors(lp, m)}) at ({b1},{b2}): "
                 f"{float(got[i, j, kp, lp, g])!r} vs {float(tables[g, mcodes[i, j, kp, lp]])!r}")
    return rep


def verify_color_ignorance(n: int, m: int) -> VerificationReport:
    """Summing the n-color law over the last n-m colors gives the m-color law.

    For every input pair and every prefix output pair, the sum of evaluated
    n-color weights over all completions of the outputs' trailing colors
    matches the m-color weight of the prefixes within 1e-12 on the grid.
    """
    if not 1 <= n <= 3 or not 1 <= m <= n:
        raise ValueError("color-ignorance enumeration limited to 1 <= m <= n <= 3")
    return _fiber_check(VerificationReport(f"color ignorance n={n} m={m}"), n,
                        np.arange(1 << n) & ((1 << m) - 1), m,
                        "marginal mismatch", "prefix")


def verify_mod2_erasure(n: int, cuts: tuple[int, ...]) -> VerificationReport:
    """Merging consecutive color blocks by parity maps the n-color law to the
    m-block law: summing over fibers of the block projection matches the
    m-color weight of the projected key within 1e-12 on the grid."""
    if not 1 <= n <= 3:
        raise ValueError("erasure enumeration limited to n <= 3")
    validate_partition(cuts, n)
    return _fiber_check(VerificationReport(f"mod-2 erasure n={n} cuts={cuts}"), n,
                        [partition_projection(v, cuts, n) for v in range(1 << n)],
                        len(cuts), f"erasure mismatch cuts={cuts}", "target")


def verify_sampler_matrix(n: int) -> VerificationReport:
    """The two-coin sampler induces exactly the enumerated vertex law.

    For every input pair and grid parameter pair, the law accumulated over
    the four coin combinations matches ln_distribution entrywise within
    1e-12.
    """
    if not 1 <= n <= 3:
        raise ValueError("sampler-law comparison limited to n <= 3")
    rep = VerificationReport(f"sampler law n={n}")
    size = 1 << n
    codes = _key_codes(n).reshape(size, size, -1)  # output (k, l) at k * size + l
    bad = np.zeros((size, size, len(VERIFY_GRID)), dtype=bool)
    for g, (b1, b2) in enumerate(VERIFY_GRID):
        dist, law = np.array(weights.eval_table(b1, b2))[codes], np.zeros(codes.shape)
        for cross, nuc in itertools.product((0, 1), repeat=2):  # coin_law's order
            hit = outcome_table(n)[:, :, cross, nuc, None] == np.arange(size * size)
            law += (b1 if cross else 1.0 - b1) * ((1.0 - b2) if nuc else b2) * hit
        rep.cases += int(((law > 0.0) | (codes != 0)).sum())  # outcomes of either law
        bad[:, :, g] = (np.abs(law - dist) > VERIFY_TOL).any(axis=2)
    for i, j, g in np.argwhere(bad).tolist():
        b1, b2 = VERIFY_GRID[g]
        law_ij, dist_ij = coin_law(i, j, n, b1, b2), ln_distribution(i, j, n, b1, b2).as_dict()
        for key in set(law_ij) | set(dist_ij):
            if abs(law_ij.get(key, 0.0) - dist_ij.get(key, 0.0)) > VERIFY_TOL:
                rep.fail(f"law mismatch i={format_colors(i, n)} j={format_colors(j, n)} "
                         f"outcome={key} at ({b1},{b2}): "
                         f"{law_ij.get(key, 0.0)!r} vs {dist_ij.get(key, 0.0)!r}")
    return rep


# ---------------------------------------------------------------------------
# Two-color golden table

def l2_golden_table() -> list[tuple[int, int, int, int, Weight]]:
    """All nonzero two-color keys with weights, in canonical bit-string order."""
    codes = _key_codes(2)
    rows = [(*key, weights.W[codes[tuple(key)]]) for key in np.argwhere(codes).tolist()]
    rows.sort(key=lambda r: tuple(format_colors(v, 2) for v in r[:4]))
    return rows


def golden_table_lines() -> list[str]:
    """Text form of the two-color table: 'i j k l weight' per line."""
    return [
        f"{format_colors(i, 2)} {format_colors(j, 2)} "
        f"{format_colors(k, 2)} {format_colors(l, 2)} {weights.render(w)}"
        for i, j, k, l, w in l2_golden_table()
    ]


#: Expected multiplicity of each weight among the 32 nonzero two-color keys.
GOLDEN_WEIGHT_COUNTS = {
    "1": 4, "b1": 5, "b2": 5, "1-b1": 5, "1-b2": 5,
    "b1*b2": 2, "b1*(1-b2)": 2, "(1-b1)*b2": 2, "(1-b1)*(1-b2)": 2,
}


def verify_golden_table() -> VerificationReport:
    """Internal consistency of the two-color table.

    Checks the entry count, the absence of the two keys whose coin demands
    contradict across levels, level-parity conservation on every entry, and
    the weight multiset.
    """
    rep = VerificationReport("two-color table")
    rows = l2_golden_table()
    rep.cases += 1
    if len(rows) != 32:
        rep.fail(f"expected 32 nonzero keys, found {len(rows)}")
    keys = {(i, j, k, l) for i, j, k, l, _ in rows}
    # (10,10;11,11): needs a level-1 cross and a level-2 annihilation at once.
    # (00,00;11,11): creation at level 2 demands nucleation, level 1 forbids it.
    for bad in ((0b01, 0b01, 0b11, 0b11), (0b00, 0b00, 0b11, 0b11)):
        rep.cases += 1
        if bad in keys:
            rep.fail(f"contradictory key present: {bad}")
    # Creation/annihilation happens in pairs, so level occupancy is conserved
    # mod 2 only: levels 1 and 2 of i ^ j ^ k ^ l are even.
    moved = np.bitwise_xor.reduce(np.array([row[:4] for row in rows]).reshape(-1, 4), axis=1)
    odd = _levels_from_colors(moved, 2)[:, None] >> np.arange(2) & 1
    rep.cases += odd.size
    for row, level in np.argwhere(odd).tolist():
        rep.fail(f"level-{level + 1} parity not conserved on key {rows[row][:4]}")
    counts = dict(Counter(weights.render(row[4]) for row in rows))
    rep.cases += 1
    if counts != GOLDEN_WEIGHT_COUNTS:
        rep.fail(f"weight multiset mismatch: {counts}")
    return rep
