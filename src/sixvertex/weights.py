"""Symbolic vertex weights closed under an idempotent, annihilating product.

The weight set W has ten elements: 0, 1, and every product of at most one
factor per parameter axis, where the axis factors are b1 or (1-b1) and b2 or
(1-b2).  The product of two weights keeps one copy of each shared factor
(x * x = x) and collapses to 0 whenever complementary factors of the same
axis meet (b * (1-b) = 0).  W is closed under this product; W' denotes the
six elements that are not genuine two-axis products.

All ten weights exist as interned module-level singletons, so identity
comparison (`w is ZERO`) is reliable and the product is a table lookup.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

# Axis tags: 0 = factor absent, 1 = plain factor (b), 2 = complement (1-b).
_TAG_NAMES_1 = ("", "b1", "1-b1")
_TAG_NAMES_2 = ("", "b2", "1-b2")


@dataclass(frozen=True)
class Weight:
    """One element of W.

    zero:  true only for the zero weight (axis tags are then meaningless).
    a1:    axis-1 tag (0 none, 1 -> b1, 2 -> 1-b1).
    a2:    axis-2 tag (0 none, 1 -> b2, 2 -> 1-b2).
    code:  dense index 0..9, stable across runs, usable for table lookups.
    """

    zero: bool
    a1: int
    a2: int
    code: int

    def __repr__(self) -> str:
        return f"Weight({render(self)!r})"


def _build_all() -> tuple[Weight, ...]:
    ws = [Weight(True, 0, 0, 0)]
    order = [(0, 0), (1, 0), (0, 1), (2, 0), (0, 2), (1, 1), (1, 2), (2, 1), (2, 2)]
    for a1, a2 in order:
        ws.append(Weight(False, a1, a2, len(ws)))
    return tuple(ws)


W: tuple[Weight, ...] = _build_all()

ZERO = W[0]
ONE = W[1]
B1 = W[2]
B2 = W[3]
ONE_MINUS_B1 = W[4]
ONE_MINUS_B2 = W[5]
B1_B2 = W[6]
B1_ONE_MINUS_B2 = W[7]
ONE_MINUS_B1_B2 = W[8]
ONE_MINUS_B1_ONE_MINUS_B2 = W[9]

# The six weights that are not two-axis products.
W_PRIME: tuple[Weight, ...] = (ZERO, ONE, B1, B2, ONE_MINUS_B1, ONE_MINUS_B2)

_BY_TAGS = {(w.a1, w.a2): w for w in W if not w.zero}


def _star_slow(a: Weight, b: Weight) -> Weight:
    if a.zero or b.zero:
        return ZERO
    tags = []
    for xa, xb in ((a.a1, b.a1), (a.a2, b.a2)):
        if xa and xb and xa != xb:
            return ZERO  # complementary factors on one axis annihilate
        tags.append(xa or xb)
    return _BY_TAGS[tags[0], tags[1]]


_STAR_TABLE = tuple(
    tuple(_star_slow(a, b) for b in W) for a in W
)


def star(a: Weight, b: Weight) -> Weight:
    """Product of two weights: idempotent, commutative, annihilating."""
    return _STAR_TABLE[a.code][b.code]


def star_product(ws) -> Weight:
    """Product of an iterable of weights; the empty product is 1."""
    out = ONE
    for w in ws:
        out = _STAR_TABLE[out.code][w.code]
        if out.zero:
            return ZERO
    return out


def evaluate(w: Weight, b1: float, b2: float) -> float:
    """Numeric value of a weight at parameters b1, b2 in [0, 1]."""
    if not (0.0 <= b1 <= 1.0 and 0.0 <= b2 <= 1.0):
        raise ValueError(f"parameters must lie in [0, 1], got b1={b1}, b2={b2}")
    if w.zero:
        return 0.0
    out = 1.0
    if w.a1:
        out *= b1 if w.a1 == 1 else 1.0 - b1
    if w.a2:
        out *= b2 if w.a2 == 1 else 1.0 - b2
    return out


def eval_table(b1: float, b2: float) -> tuple[float, ...]:
    """Values of all ten weights at (b1, b2), indexed by Weight.code."""
    return tuple(evaluate(w, b1, b2) for w in W)


def render(w: Weight) -> str:
    """Canonical text form: '0', '1', 'b1', '1-b2', 'b1*(1-b2)', ..."""
    if w.zero:
        return "0"
    parts = []
    if w.a1:
        parts.append(_TAG_NAMES_1[w.a1])
    if w.a2:
        parts.append(_TAG_NAMES_2[w.a2])
    if not parts:
        return "1"
    if len(parts) == 1:
        return parts[0]
    return "*".join(p if "-" not in p else f"({p})" for p in parts)


_PARSE = {render(w): w for w in W}


def parse(text: str) -> Weight:
    """Inverse of render; accepts exactly the ten canonical forms."""
    try:
        return _PARSE[text]
    except KeyError:
        raise ValueError(f"not a canonical weight: {text!r}") from None


def is_partition_of_unity(ws) -> bool:
    """True when a multiset of weights sums to 1 identically in (b1, b2).

    Sufficient check on a few generic parameter points: the sum of evaluations
    is a polynomial of joint degree <= (1, 1) in (b1, b2), so agreement with 1
    on a 2 x 2 generic grid decides identity.
    """
    pts = list(itertools.product((0.25, 0.75), repeat=2))
    return all(
        math.isclose(math.fsum(evaluate(w, p, q) for w in ws), 1.0, abs_tol=1e-12)
        for p, q in pts
    )
