"""Lattice dynamics on the positive quadrant.

Vertices live at integer points (x, y) with x, y >= 1.  Two single-color
models share one family of per-cell coins:

* the six vertex model with step data (one line entering every row from the
  left boundary), where a south line continues north with probability b1 and
  a west line continues east with probability b2;
* its horizontal complement (empty boundary), where two meeting lines cross
  with probability b1 and an empty vertex nucleates a corner with
  probability 1 - b2.

Flipping every horizontal occupancy maps one model onto the other, bit for
bit, when both are driven by the same coins, so both are sampled by one
sweep of the complemented rule.  A row of that rule is a carry chain: a
column generates an east line where an empty vertex nucleates, kills the
incoming one where a south line meets it without crossing, and propagates
it otherwise.  With the row's coins and south edges packed into integers
(bit x-1 for column x), the carries of one addition, generate plus
(generate or propagate), are the west inputs of every column at once.

The colored variant runs the level-coupled multicolor rule blockwise: the
quadrant is tiled by L-shaped shells of blocks, each shell's vertices use the
rule with as many colors as the shell index, and nucleations emit the shell's
own color, which has the lowest priority among those already present.

The multicolor samplers never tabulate the n-color rule.  They sweep
level-parity words, whose bit L-1 is the parity of the first L colors: every
level is the single-color complemented model, run as one carry sweep of the
shared cross and nucleation coins with its own nucleation window.  A shell-k
vertex may nucleate only at levels L >= n - k + 1, so level L nucleates only
at x > (n-L)*bx and y > (n-L)*by; boundary lines enter each level as its
south word and its carries into column 1.  Colors and levels convert only
through lmatrix's level pair: color masks are recovered once per ensemble by
differencing consecutive levels, so any color count up to MAX_COLORS is
sampled level by level at the cost of single-color sweeps.

Parameters are biperiodic: vertex (x, y) reads entry ((x-1) mod I,
(y-1) mod J) of two I x J matrices.

The admissibility check reads every vertex's (south, west; north, east) key
off the edge planes as arrays and folds each shell's keys in one call of the
level product.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import rng
from .lmatrix import MAX_COLORS, _colors_from_levels, _levels_from_colors, _ln_code
from .report import VerificationReport


# ---------------------------------------------------------------------------
# Parameters

@dataclass(frozen=True)
class ParameterField:
    """Biperiodic parameter matrices b1, b2 of shape (I, J), entries in [0, 1]."""

    b1: np.ndarray
    b2: np.ndarray

    def __post_init__(self):
        b1 = np.atleast_2d(np.asarray(self.b1, dtype=np.float64))
        b2 = np.atleast_2d(np.asarray(self.b2, dtype=np.float64))
        if b1.shape != b2.shape or b1.ndim != 2 or b1.size == 0:
            raise ValueError("b1 and b2 must be equal-shape nonempty 2d arrays")
        if not ((b1 >= 0).all() and (b1 <= 1).all() and (b2 >= 0).all() and (b2 <= 1).all()):
            raise ValueError("parameter entries must lie in [0, 1]")
        b1.setflags(write=False)
        b2.setflags(write=False)
        object.__setattr__(self, "b1", b1)
        object.__setattr__(self, "b2", b2)

    @property
    def I(self) -> int:
        return self.b1.shape[0]

    @property
    def J(self) -> int:
        return self.b1.shape[1]

    def at(self, x: int, y: int) -> tuple[float, float]:
        """Parameters of vertex (x, y), 1-based."""
        a, b = (x - 1) % self.I, (y - 1) % self.J
        return float(self.b1[a, b]), float(self.b2[a, b])

    @cached_property
    def _thresholds(self) -> np.ndarray:
        """rng.threshold of (b1, b2) per entry, shape (I, J, 2), for the
        integer coins (_coins).  A field that never crosses (every b1
        threshold is 0) keeps only the b2 thresholds, shape (I, J, 1)."""
        t = rng.threshold(np.stack((self.b1, self.b2), axis=-1))
        return t if t[..., 0].any() else t[..., 1:].copy()

    def rows(self, y: int, width: int) -> tuple[np.ndarray, np.ndarray]:
        """Parameter arrays for columns 1..width of row y."""
        a = np.arange(width) % self.I
        b = (y - 1) % self.J
        return self.b1[a, b], self.b2[a, b]


def make_field(b1, b2) -> ParameterField:
    """Build a field from scalars (homogeneous) or I x J arrays."""
    b1, b2 = np.atleast_2d(np.asarray(b1, dtype=np.float64), np.asarray(b2, dtype=np.float64))
    b1, b2 = np.broadcast_arrays(b1, b2)
    return ParameterField(b1.copy(), b2.copy())


# ---------------------------------------------------------------------------
# Path ensembles

def _mask_dtype(n_colors: int):
    return np.uint8 if n_colors <= 8 else np.uint32


@dataclass
class PathEnsemble:
    """Edge occupancies of one sampled configuration.

    v_edges[x-1, y-1] is the color mask on the north edge of vertex (x, y),
    h_edges[x-1, y-1] the mask on its east edge; bit c-1 carries the c-th
    highest priority color, so every plane has an integer dtype with at least
    n_colors value bits (bool only at one color).  boundary_left[y-1] is the
    mask entering the west edge of (1, y), boundary_bottom[x-1] the mask
    entering the south edge of (x, 1).  variant is "s6v" or "cs6v" and
    records which vertex rules produced the sample.
    """

    variant: str
    n_colors: int
    width: int
    height: int
    v_edges: np.ndarray
    h_edges: np.ndarray
    boundary_left: np.ndarray
    boundary_bottom: np.ndarray

    def __post_init__(self):
        if self.variant not in ("s6v", "cs6v"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if isinstance(self.n_colors, bool) or not isinstance(self.n_colors, (int, np.integer)) \
                or not 1 <= self.n_colors <= MAX_COLORS:
            raise ValueError(f"n_colors must be an integer in 1..{MAX_COLORS}")
        if self.v_edges.shape != (self.width, self.height) or \
                self.h_edges.shape != (self.width, self.height):
            raise ValueError("edge array shapes must be (width, height)")
        if self.boundary_left.shape != (self.height,) or \
                self.boundary_bottom.shape != (self.width,):
            raise ValueError("boundary array shapes must be (height,)/(width,)")
        for a in (self.v_edges, self.h_edges, self.boundary_left, self.boundary_bottom):
            bits = {"b": 1, "u": 8 * a.dtype.itemsize, "i": 8 * a.dtype.itemsize - 1}
            if bits.get(a.dtype.kind, 0) < self.n_colors:
                raise ValueError(f"{a.dtype} planes cannot hold {self.n_colors} colors")

    def inputs_at(self, x: int, y: int) -> tuple[int, int]:
        """(south, west) input masks of vertex (x, y)."""
        south = self.boundary_bottom[x - 1] if y == 1 else self.v_edges[x - 1, y - 2]
        west = self.boundary_left[y - 1] if x == 1 else self.h_edges[x - 2, y - 1]
        return int(south), int(west)

    def outputs_at(self, x: int, y: int) -> tuple[int, int]:
        """(north, east) output masks of vertex (x, y)."""
        return int(self.v_edges[x - 1, y - 1]), int(self.h_edges[x - 1, y - 1])


def _packed(bits: np.ndarray) -> int:
    """The int whose bit x-1 is set iff bits[x-1] is nonzero."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def _coins(words: np.ndarray, thresholds: np.ndarray, mask: int) -> tuple[int, int]:
    """The packed (cross, nucleate) coin words u1 < b1, u2 >= b2 of the raw
    Philox pairs (w1, w2) words[..., :], cell i (in C order) at bit i: (w >> 11)
    < t against the cells' thresholds (see ParameterField._thresholds) gives
    cross and the complement of nucleate, exactly for every b in [0, 1]; with
    b2 thresholds alone (a field that never crosses) only w2 is compared.  mask
    has the cells' bits, and nucleate none other.  May shift words in place."""
    if thresholds.shape[-1] == 1:
        return 0, mask & _packed(words[..., 1] >> 11 >= thresholds[..., 0])
    below = np.right_shift(words, 11, out=words) < thresholds
    packed = np.packbits(np.ascontiguousarray(below.reshape(-1, 2).T), axis=1,
                         bitorder="little").tobytes()
    half = len(packed) // 2
    return (int.from_bytes(packed[:half], "little"),
            mask & ~int.from_bytes(packed[half:], "little"))


def _coin_rows(width: int, height: int, field: ParameterField, seed: int,
               replica: int):
    """Yield the packed (cross, nucleate) coin words of rows 1..height (see
    _coins), read off the raw Philox words of rng.row_words without making a
    double.  The field's J distinct threshold rows are gathered once per call."""
    a, mask = np.arange(width) % field.I, (1 << width) - 1
    params = [field._thresholds[a, b] for b in range(min(field.J, height))]
    for y, thresholds in zip(range(1, height + 1), itertools.cycle(params)):
        yield _coins(rng.row_words(seed, replica, y, width), thresholds, mask)


def _carry_rows(mask: int, coins, south: int = 0, west=0):
    """Yield the (north, east) words of the complemented rule, one row per
    packed (cross, nucleate) coin pair; see the module docstring for the
    carry scan.  mask has the swept columns' bits, and nucleate none other; a
    bit outside mask kills the carry.  south is the word entering row 1 from
    below, and west yields each row's carry-in word (0: none): the boundary
    line entering a box's column 1 sits at that column's bit."""
    s = south
    for (cross, nucleate), cin in zip(coins, west or itertools.repeat(0)):
        g = ~s & nucleate  # generate: an empty vertex nucleates
        a = ~(s & ~cross) & mask  # generate or propagate: all but kill
        carries = (a + g + cin) ^ a ^ g  # the line entering each column
        w = carries & mask
        s = (s & (~w | cross)) | (~s & ~w & nucleate)
        yield s, carries >> 1


def _liquid_rows(width: int, height: int, field: ParameterField, seed: int, replica: int):
    """_carry_rows((1 << width) - 1, _coin_rows(...)), drawing only coins that can
    matter: a vertex entered by one line passes it on whatever its coins, so row y's
    t trailing south lines and a west line past its last south line need none.  Row y
    draws from column t + 1 rounded down to odd (a Philox block), in chunks that double
    (for the rest of the sweep) until one nucleates past that line or the row ends."""
    a, s, mask = np.arange(width) % field.I, 0, (1 << width) - 1
    params = [field._thresholds[a, b] for b in range(min(field.J, height))]

    def coins(step=2):  # reads s, the row's south word
        for y, thresholds in zip(range(1, height + 1), itertools.cycle(params)):
            top, cross, nucleate = s.bit_length(), 0, 0
            lo, hi = (s ^ (s + 1)).bit_length() - 1 & ~1, top + step
            if hi >= width and lo < step:  # too little to leave out: the full draw
                yield _coins(rng.row_words(seed, replica, y, width), thresholds, mask)
                continue
            while lo < width:
                hi = min(hi, width)
                c, n = _coins(rng.row_words(seed, replica, y, hi - lo, lo + 1),
                              thresholds[lo:hi], (1 << hi - lo) - 1)
                cross, nucleate = cross | c << lo, nucleate | n << lo
                if nucleate >> top or hi == width:
                    break
                step *= 2
                lo, hi = hi & ~1, hi + step  # a cell redrawn at an odd hi gets the same coins
            yield cross, nucleate

    for s, east in _carry_rows(mask, coins()):
        yield s, east


def sample_s6v(width: int, height: int, field: ParameterField, seed: int,
               replica: int = 0) -> PathEnsemble:
    """Sample the six vertex model with step initial data on a width x height box.

    One line enters each row from the left; none enter from below.  Row y,
    column x consumes the cell uniforms (u1, u2): the south line continues
    north iff u1 < b1, the west line continues east iff u2 < b2.  The sample
    is the horizontal complement of sample_cs6v's with the same coins.
    """
    return complement(sample_cs6v(width, height, field, seed, replica))


def sample_cs6v(width: int, height: int, field: ParameterField, seed: int,
                replica: int = 0) -> PathEnsemble:
    """Sample the complemented model with empty boundary on a width x height box.

    Same cell coins as sample_s6v: two meeting lines cross iff u1 < b1, an
    empty vertex nucleates a corner iff u2 >= b2.  This is the one-level case
    of the multicolor sweep.
    """
    return _sweep_levels(width, height, 1, field, seed, replica,
                         np.zeros(height, dtype=np.uint8), np.zeros(width, dtype=np.uint8))


def complement(e: PathEnsemble) -> PathEnsemble:
    """Flip every horizontal occupancy of a single-color ensemble.

    Vertical edges are untouched; the variant toggles between the two rule
    sets, for which the complemented configuration is admissible.
    """
    if e.n_colors != 1:
        raise ValueError("complementation is defined for single-color ensembles")
    variant = "cs6v" if e.variant == "s6v" else "s6v"
    return PathEnsemble(
        variant, 1, e.width, e.height,
        e.v_edges.copy(),
        (1 - e.h_edges).astype(e.h_edges.dtype),
        (1 - e.boundary_left).astype(e.boundary_left.dtype),
        e.boundary_bottom.copy(),
    )


def _replay_s6v(field: ParameterField, coins) -> tuple[np.ndarray, np.ndarray]:
    """(v_edges, h_edges) of the step-data model replayed vertex by vertex from
    each row's coins (u1, u2), independently of the carry sweep: a lone south
    line continues north iff u1 < b1, a lone west line east iff u2 < b2."""
    height, width = len(coins), len(coins[0][0])
    v, hE = np.zeros((2, width, height), dtype=np.uint8)
    south, table = [0] * width, np.stack((field.b1, field.b2), axis=-1).tolist()
    for y, (u1, u2) in enumerate(coins):
        west, east, row = 1, [], [col[y % field.J] for col in table]  # row[x % I] = at(x+1, y+1)
        for x, c1, c2 in zip(range(width), u1.tolist(), u2.tolist()):
            b1, b2 = row[x % field.I]
            s = south[x]
            north = s if s == west else int(c1 < b1 if s else c2 >= b2)
            south[x], west = north, s + west - north
            east.append(west)
        v[:, y], hE[:, y] = south, east
    return v, hE


# ---------------------------------------------------------------------------
# Height functions

def height_h(e: PathEnsemble) -> np.ndarray:
    """Height of the step-data model: an int array of shape (width+1, height+1).

    h[x, y] = y minus the number of vertical lines crossing row y at columns
    <= x; h[0, y] = y and h[x, 0] = 0.  Nonincreasing in x, nondecreasing in
    y, with unit steps.
    """
    if e.variant != "s6v" or e.n_colors != 1:
        raise ValueError("height_h needs a single-color s6v ensemble")
    if not (e.boundary_left == 1).all() or not (e.boundary_bottom == 0).all():
        raise ValueError("height_h assumes step boundary data")
    h = np.zeros((e.width + 1, e.height + 1), dtype=np.int64)
    ys = np.arange(1, e.height + 1, dtype=np.int64)
    h[0, 1:] = ys
    h[1:, 1:] = ys[None, :] - np.cumsum(e.v_edges.astype(np.int64), axis=0)
    return h


def height_H(e: PathEnsemble) -> np.ndarray:
    """Height of the complemented model: lines entering [1,x] x [1,y] from the
    left boundary plus lines exiting its top; shape (width+1, height+1).

    H[x, 0] = 0; H[0, y] counts left entries up to row y (zero for the empty
    boundary).  Nondecreasing in both coordinates with unit steps.
    """
    if e.variant != "cs6v" or e.n_colors != 1:
        raise ValueError("height_H needs a single-color cs6v ensemble")
    H = np.zeros((e.width + 1, e.height + 1), dtype=np.int64)
    left = np.cumsum(e.boundary_left.astype(np.int64))
    H[0, 1:] = left
    H[1:, 1:] = left[None, :] + np.cumsum(e.v_edges.astype(np.int64), axis=0)
    return H


# ---------------------------------------------------------------------------
# Color projections

def _color_mask(e: PathEnsemble, colors) -> int:
    if colors is None:
        return (1 << e.n_colors) - 1
    mask = 0
    for c in colors:
        if not 1 <= c <= e.n_colors:
            raise ValueError(f"color {c} out of range 1..{e.n_colors}")
        mask |= 1 << (c - 1)
    return mask


def mod2_project(e: PathEnsemble, colors=None) -> PathEnsemble:
    """Merge a set of colors (default: all) into one: the top level of their masks."""
    mask, n = _color_mask(e, colors), e.n_colors
    return PathEnsemble(e.variant, 1, e.width, e.height, *(
        (_levels_from_colors(a & mask, n) >> (n - 1)).astype(np.uint8)
        for a in (e.v_edges, e.h_edges, e.boundary_left, e.boundary_bottom)))


def select_color(e: PathEnsemble, color: int) -> PathEnsemble:
    """Keep only the lines of one color (1 = highest priority)."""
    return mod2_project(e, (color,))


# ---------------------------------------------------------------------------
# Block coloring of the quadrant

@dataclass(frozen=True)
class ColoringScheme:
    """Directional block tiling of the quadrant.

    For a direction (x, y) given as positive rationals and a field with
    periods (I, J), N is the least positive integer making both N*x/I and
    N*y/J integers; blocks have extents (bx, by) = (N*x, N*y).  The vertex
    (a, b) belongs to shell k = min(ceil(a/bx), ceil(b/by)); shell k's own
    color is the k-th in priority order among the colors present there.
    """

    x: Fraction
    y: Fraction
    N: int
    bx: int
    by: int

    def block(self, a, b):
        """Shell index (1-based) of vertex (a, b); a and b may be integer arrays."""
        if np.min(a) < 1 or np.min(b) < 1:
            raise ValueError("vertex coordinates are 1-based")
        return np.minimum(-(-a // self.bx), -(-b // self.by))


def make_coloring(x, y, field: ParameterField) -> ColoringScheme:
    """Build the block scheme for direction (x, y) over the field's periods."""
    x, y = Fraction(x), Fraction(y)
    if x <= 0 or y <= 0:
        raise ValueError("direction components must be positive")
    N = math.lcm((x / field.I).denominator, (y / field.J).denominator)
    bx, by = N * x, N * y
    assert bx.denominator == 1 and by.denominator == 1
    return ColoringScheme(x, y, N, int(bx), int(by))


# ---------------------------------------------------------------------------
# Multicolor samplers

def _row_bits(width: int, height: int, rows) -> np.ndarray:
    """Bits (height, 2, width) of packed (north, east) rows: one buffer, unpacked once."""
    nbytes = (width + 7) // 8
    buf = bytearray()
    for north, east in rows:
        buf += north.to_bytes(nbytes, "little") + east.to_bytes(nbytes, "little")
    return np.unpackbits(np.frombuffer(buf, dtype=np.uint8).reshape(height, 2, nbytes),
                         axis=2, count=width, bitorder="little")


def _sweep_levels(width: int, height: int, n: int, field: ParameterField,
                  seed: int, replica: int, left: np.ndarray, bottom: np.ndarray,
                  block: tuple[int, int] = (0, 0)) -> PathEnsemble:
    """Sample the n-color complemented model on a width x height box entered
    by the boundary color masks left[y-1] (row y) and bottom[x-1] (column x),
    which the ensemble keeps.

    Level L is one carry sweep of the shared coins, entered by bit L-1 of the
    boundary level words; it nucleates only at x > (n-L)*bx and y > (n-L)*by
    for block = (bx, by), everywhere for the default (0, 0).  Levels are added
    into the mask dtype one at a time, then differenced into color masks and
    transposed once.
    """
    coins = list(_coin_rows(width, height, field, seed, replica))
    entries = _levels_from_colors(np.concatenate((bottom, left)), n)  # south, then west
    dtype, mask = _mask_dtype(n), (1 << width) - 1
    for L in range(1, n + 1):
        x0, y0 = (n - L) * block[0], (n - L) * block[1]
        window = mask >> x0 << x0
        level_coins = ((cross, nucleate & window if y > y0 else 0)
                       for y, (cross, nucleate) in enumerate(coins, start=1))
        entry = (entries >> (L - 1)) & 1
        bits = _row_bits(width, height, _carry_rows(mask, level_coins, _packed(entry[:width]),
                                                    entry[width:].tolist()))
        if L == 1:
            words = bits.astype(dtype, copy=False)
        else:
            words |= np.left_shift(bits, L - 1, dtype=dtype)
    words = _colors_from_levels(words, n)
    return PathEnsemble("cs6v", n, width, height, words[:, 0].T.copy(),
                        words[:, 1].T.copy(), left, bottom)


def sample_colored_cs6v(n_blocks: int, scheme: ColoringScheme, field: ParameterField,
                        seed: int, replica: int = 0) -> PathEnsemble:
    """Sample the colored complemented model on n_blocks shells of the scheme.

    The grid is (bx * n_blocks) x (by * n_blocks) with empty boundary.  A
    shell-k vertex applies the k-color rule to the k highest-priority global
    colors; nucleations emit shell k's own color.  Bit p-1 of the returned
    masks carries the p-th priority color, so shell k's color sits at bit
    n_blocks - k.
    """
    if not 1 <= n_blocks <= MAX_COLORS:
        raise ValueError(f"n_blocks must be in 1..{MAX_COLORS}")
    width, height = scheme.bx * n_blocks, scheme.by * n_blocks
    if max(width, height) > rng.MAX_SEED:
        raise ValueError(f"box side above {rng.MAX_SEED}, the coins' address space")
    dtype = _mask_dtype(n_blocks)
    return _sweep_levels(width, height, n_blocks, field, seed, replica, np.zeros(height, dtype),
                         np.zeros(width, dtype), (scheme.bx, scheme.by))


def sample_two_colored_with_boundary(width: int, height: int, field: ParameterField,
                                     boundary_left, boundary_bottom, seed: int,
                                     replica: int = 0) -> PathEnsemble:
    """Sample the two-color complemented model with deterministic second-color
    boundary lines entering from the left and bottom.

    Boundary masks may only contain color 2 (bit 1); nucleations emit color 1.
    """
    left = np.asarray(boundary_left, dtype=np.uint8)
    bottom = np.asarray(boundary_bottom, dtype=np.uint8)
    if left.shape != (height,) or bottom.shape != (width,):
        raise ValueError("boundary mask shapes must be (height,) and (width,)")
    for arr in (left, bottom):
        if (arr & 0b01).any() or (arr & ~np.uint8(0b11)).any():
            raise ValueError("boundary lines may only carry color 2")
    return _sweep_levels(width, height, 2, field, seed, replica, left.copy(), bottom.copy())


# ---------------------------------------------------------------------------
# Configuration checks

def admissibility_violations(e: PathEnsemble, scheme: "ColoringScheme | None" = None) -> list[str]:
    """Vertices whose (inputs; outputs) key has zero weight under the rule set.

    For the s6v variant the key is checked after complementing the horizontal
    edges (the rule sets are horizontal complements of each other).  For a
    blockwise colored sample pass its scheme: a shell-k vertex is then checked
    against the k-color rule on its local color window, and colors of later
    shells must be absent there.
    """
    k, l, left, bottom = (np.asarray(a, dtype=np.int64) for a in (
        e.v_edges, e.h_edges, e.boundary_left, e.boundary_bottom))
    i = np.concatenate((bottom[:, None], k[:, :-1]), axis=1)  # south inputs
    j = np.concatenate((left[None, :], l[:-1]), axis=0)  # west inputs
    flip = (1 << e.n_colors) - 1 if e.variant == "s6v" else 0
    if scheme is None:
        shells = np.full(k.shape, e.n_colors)
    else:
        shells = np.minimum(scheme.block(np.arange(1, e.width + 1)[:, None],
                                         np.arange(1, e.height + 1)), e.n_colors)
    kind = np.zeros(k.shape, dtype=np.int8)  # 1: later-shell color, 2: unsupported key
    for n in np.flatnonzero(np.bincount(shells.ravel())).tolist():  # np.unique loads numpy.ma
        at = shells == n
        shift = e.n_colors - n
        code = _ln_code(i[at] >> shift, (j[at] >> shift) ^ flip, k[at] >> shift,
                        (l[at] >> shift) ^ flip, n)
        later = (i[at] | j[at] | k[at] | l[at]) & ((1 << shift) - 1) != 0
        kind[at] = np.where(later, 1, np.where(code == 0, 2, 0))
    bad = []
    for y, x in np.argwhere(kind.T).tolist():
        if kind[x, y] == 1:
            bad.append(f"vertex ({x + 1},{y + 1}): later-shell color present")
        else:
            bad.append(f"vertex ({x + 1},{y + 1}): key ({i[x, y]},{j[x, y]};"
                       f"{k[x, y]},{l[x, y]}) unsupported")
    return bad


# Bits per lane-packed row word of the monotonicity trials and shell counts.
LANE_BITS = 1 << 15


def _lane_coin_rows(seed: int, replicas, widths, heights, stride: int,
                    field: ParameterField, mask: int):
    """_coin_rows's words for rows 1..max(heights) of lanes of stride bits,
    decided by _coins: lane i is a guard bit, then replica replicas[i]'s
    columns 1..widths[i], drawn on its rows y <= heights[i] (later rows keep
    stale coins).  mask has the swept bits, and nucleate none other."""
    cols, widths, heights = np.arange(stride), np.asarray(widths), np.asarray(heights)
    thr = np.zeros((field.J, stride, field._thresholds.shape[-1]), dtype=np.uint64)
    thr[:, 1:] = field._thresholds[cols[:-1] % field.I].transpose(1, 0, 2)  # guards: never swept
    drawn = (cols >= 1) & (cols <= widths[:, None])
    buf = np.zeros((len(widths), stride, 2), dtype=np.uint64)  # as V16: one item (w1, w2) per cell
    for y in range(1, int(heights.max()) + 1):
        live = heights >= y
        buf.view("V16")[..., 0][drawn & live[:, None]] = rng.lane_words(
            seed, np.asarray(replicas)[live].tolist(), y, widths[live].tolist()).view("V16")
        yield _coins(buf, thr[(y - 1) % field.J], mask)


def _monotonicity_trials(trials: int, max_size: int, field: ParameterField, seed: int):
    """Yield (w, h, H1, H2, first row whose line parity breaks or 0) per trial
    of verify_monotonicity; see there for the lane layout."""
    geom, stride = np.random.default_rng(seed), max_size + 1
    lanes, cols = max(1, LANE_BITS // stride), np.arange(stride)
    for t0 in range(0, trials, lanes):
        n, ws, hs = min(lanes, trials - t0), [], []
        left, bottom = np.zeros((2, n, stride), dtype=np.uint8)  # left[i, y]: row y's line
        for i in range(n):  # the geometry stream, trial by trial
            ws.append(int(geom.integers(1, max_size + 1)))
            hs.append(int(geom.integers(1, max_size + 1)))
            left[i, 1:hs[i] + 1] = geom.random(hs[i]) < 0.5
            bottom[i, 1:ws[i] + 1] = geom.random(ws[i]) < 0.5
        w, h = np.array(ws), np.array(hs)
        mask = _packed((cols >= 1) & (cols <= w[:, None]))
        c1, c2 = itertools.tee(_lane_coin_rows(seed, t0 + np.arange(n), w, h, stride, field, mask))
        west = (_packed(np.where(cols == 1, left[:, y, None], 0)) for y in range(1, max(hs) + 1))
        rows = zip(_carry_rows(mask, c1), _carry_rows(mask, c2, _packed(bottom), west))
        h1, h2, odd_row = np.zeros((3, n), dtype=np.int64)
        south = bottom.sum(axis=1, dtype=np.int64)
        for y, pair in enumerate(rows, start=1):
            (north1, _), (north2, east2) = _row_bits(n * stride, 2, pair).reshape(2, 2, n, stride)
            count2 = north2.sum(axis=1, dtype=np.int64)
            odd = (south + count2 + left[:, y] + east2[np.arange(n), w]) & 1
            odd_row[(odd_row == 0) & (odd == 1) & (h >= y)] = y
            top = h == y
            h1[top], h2[top] = north1[top].sum(axis=1), count2[top]
            south = count2
        h2 += left.sum(axis=1, dtype=np.int64)
        yield from zip(ws, hs, h1.tolist(), h2.tolist(), odd_row.tolist())


def verify_monotonicity(trials: int, max_size: int, field: ParameterField,
                        seed: int) -> VerificationReport:
    """Second-color boundary lines never lower the folded height below the
    first-color height at the top-right corner.

    Each trial draws a box size, a second-color boundary subset, and a fresh
    replica; violations list any trial with H1 > H2, or whose mod-2 fold
    loses a line on some row: lines are created and annihilated in pairs, so
    the south inputs plus the left line of a row equal its north outputs plus
    its east line mod 2.

    The trials run as lanes of one Python int per row, LANE_BITS bits at a
    time: lane i is a guard bit, then max_size column bits.  The sweep's mask
    leaves out the guard bits and the columns past the trial's width, so no
    line crosses between lanes; a trial's left boundary line enters as the
    carry-in bit at its column 1.  Level 1 (color 1) and level 2 (the mod-2
    fold, entered by the boundary lines) are swept row by row on trial t's
    coins (replica t); H1 and H2 are lane popcounts of their top north words.
    """
    if trials < 1 or max_size < 1:
        raise ValueError("need trials >= 1 and max_size >= 1")
    rep = VerificationReport("boundary monotonicity")
    for t, (w, h, h1, h2, odd_row) in enumerate(
            _monotonicity_trials(trials, max_size, field, seed)):
        problems = [f"H1={h1} > H2={h2}"] if h1 > h2 else []
        if odd_row:
            problems.append(f"line parity broken on row {odd_row}")
        rep.cases += 1
        if problems:
            rep.fail(f"trial {t}: {'; '.join(problems)} on {w}x{h}")
    return rep
