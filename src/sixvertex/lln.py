"""Law-of-large-numbers checks: limit shapes, diagonal line counts, and
convergence experiments.

The homogeneous step-data model has an explicit hydrodynamic limit
h(nx, ny)/n -> g(x, y); its complement correspondingly approaches y - g.
The longest-chain height has the classical parabolic limit, which is the
b1 = 0 specialization of the same formula.  For periodic parameters no
closed form is claimed: the superadditive line counts X along a rational
direction certify that the ergodic-theorem hypotheses hold empirically
(two-sample KS tests, with the exact equal-size null law, on counts read
off replicas run as lanes of one packed carry sweep of the colored levels),
and convergence experiments report Cauchy gaps and replica spread instead
of a reference value.
Convergence experiments read heights as the sweep passes (O(width) state
per replica) and draw only the coins that can matter (lattice._liquid_rows).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import pool
from .lattice import (
    ColoringScheme,
    ParameterField,
    PathEnsemble,
    LANE_BITS,
    _carry_rows,
    _lane_coin_rows,
    _liquid_rows,
    _row_bits,
    height_H,
    make_coloring,
    mod2_project,
    sample_colored_cs6v,
)
from .lmatrix import MAX_COLORS, _levels_from_colors
from .report import VerificationReport
from .rng import MAX_SEED

#: Significance level of the two KS tests in verify_ergodic_hypotheses.
KS_ALPHA = 0.01


# ---------------------------------------------------------------------------
# Closed-form limits

def limit_shape_g(x: float, y: float, b1: float, b2: float) -> float:
    """Hydrodynamic limit of h(nx, ny)/n for the homogeneous step-data model.

    For b1 < b2 the plane splits at the slopes (1-b2)/(1-b1) and its
    reciprocal: flat facets g = 0 and g = y - x outside, a parabolic bulk
    (sqrt(y(1-b1)) - sqrt(x(1-b2)))^2 / (b2 - b1) between.  For b1 >= b2
    only the facets survive: g = max(y - x, 0).
    """
    if not (0.0 <= b1 <= 1.0 and 0.0 <= b2 <= 1.0):
        raise ValueError("parameters must lie in [0, 1]")
    if x < 0 or y < 0:
        raise ValueError("direction components must be nonnegative")
    if b1 >= b2:
        return max(y - x, 0.0)
    a1, a2 = 1.0 - b1, 1.0 - b2
    if x * a2 >= y * a1:
        return 0.0
    if x * a1 <= y * a2:
        return y - x
    return (math.sqrt(y * a1) - math.sqrt(x * a2)) ** 2 / (b2 - b1)


def hammersley_limit(x: float, y: float, p: float) -> float:
    """Limit of the longest-chain height H(nx, ny)/n for Bernoulli(p) points.

    Equals y - limit_shape_g(x, y, 0, 1-p): a parabolic bulk
    (2 sqrt(pxy) - (x+y)p)/(1-p) when p < min(x/y, y/x), saturating at
    min(x, y) outside.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError("p must lie in [0, 1)")
    if x < 0 or y < 0:
        raise ValueError("direction components must be nonnegative")
    if p * y < x and p * x < y:
        return (2.0 * math.sqrt(p * x * y) - (x + y) * p) / (1.0 - p)
    return min(x, y)


# ---------------------------------------------------------------------------
# Diagonal line counts

def compute_X(e: PathEnsemble, scheme: ColoringScheme, m: int, n: int) -> int:
    """Number of lines of the shells m+1..n crossing row n*by at columns
    m*bx+1 .. n*bx, counted mod 2 per edge.

    Shell k's color sits at bit e.n_colors - k of the masks, so the count
    reads the top level of the n - m colors from bit e.n_colors - n.
    """
    if not 0 <= m <= n <= e.n_colors:
        raise ValueError("need 0 <= m <= n <= n_colors")
    if m == n:
        return 0
    row = scheme.by * n
    if row > e.height or scheme.bx * n > e.width:
        raise ValueError("ensemble too small for the requested shells")
    arr = e.v_edges[scheme.bx * m: scheme.bx * n, row - 1].astype(np.int64)
    return int((_levels_from_colors(arr >> (e.n_colors - n), n - m) >> (n - m - 1)).sum())


def verify_superadditivity(ensembles, scheme: ColoringScheme,
                           n_max: int) -> VerificationReport:
    """X(0, n) >= X(0, m) + X(m, n) on every sampled trajectory and pair m <= n."""
    rep = VerificationReport(f"superadditivity n_max={n_max}")
    for idx, e in enumerate(ensembles):
        if e.n_colors < n_max:
            raise ValueError("ensemble has fewer shells than n_max")
        X0 = {n: compute_X(e, scheme, 0, n) for n in range(n_max + 1)}
        for m in range(n_max + 1):
            for n in range(m, n_max + 1):
                rep.cases += 1
                lhs = X0[n]
                rhs = X0[m] + compute_X(e, scheme, m, n)
                if lhs < rhs:
                    rep.fail(f"replica {idx}: X(0,{n})={lhs} < X(0,{m})+X({m},{n})={rhs}")
    return rep


def verify_prop_X_height(e: PathEnsemble, scheme: ColoringScheme) -> VerificationReport:
    """X(0, k) equals the folded height at the block corner (k*bx, k*by),
    exactly, for every k up to the ensemble's shell count."""
    rep = VerificationReport("X equals corner height")
    H = height_H(mod2_project(e))
    for k in range(e.n_colors + 1):
        rep.cases += 1
        x_val = compute_X(e, scheme, 0, k)
        h_val = int(H[scheme.bx * k, scheme.by * k])
        if x_val != h_val:
            rep.fail(f"k={k}: X(0,k)={x_val} != H={h_val}")
    return rep


def _superadditive_task(args):
    return sample_colored_cs6v(*args)


def sample_shell_ensembles(direction, field: ParameterField, n_blocks: int,
                           replicas: int, seed: int, workers: int = 1):
    """Colored samples with n_blocks shells for replicas 0..replicas-1."""
    scheme = make_coloring(*direction, field)
    args = [(n_blocks, scheme, field, seed, r) for r in range(replicas)]
    return pool.run_tasks(_superadditive_task, args, workers)


def _shell_count_task(args):
    """X(0,k), X(k,2k) and X(1,k+1), shape (3, r1 - r0), of replicas r0..r1-1;
    see verify_ergodic_hypotheses for the lane layout."""
    field, bx, by, k, seed, r0, r1 = args
    n, stride = 2 * k, 2 * k * bx + 1
    chunk, out = max(1, LANE_BITS // stride), np.empty((3, r1 - r0), dtype=np.int64)
    for c0 in range(r0, r1, chunk):
        lanes = min(chunk, r1 - c0)
        tile = ((1 << lanes * stride) - 1) // ((1 << stride) - 1)  # bit 0 of every lane
        mask = tile * ((1 << stride) - 2)
        coins = list(_lane_coin_rows(seed, range(c0, c0 + lanes), [n * bx] * lanes,
                                     [n * by] * lanes, stride, field, mask))
        reads = []
        for a, b in ((0, k), (k, 2 * k), (1, k + 1)):  # level n - a, swept to row b*by
            window = tile * ((1 << stride) - (2 << a * bx))
            level_coins = ((cross, nucleate & window if y > a * by else 0)
                           for y, (cross, nucleate) in enumerate(coins[:b * by], start=1))
            *_, (north, _) = _carry_rows(mask, level_coins)
            reads.append((north & tile * ((2 << b * bx) - (2 << a * bx)), 0))
        bits = _row_bits(lanes * stride, 3, reads)[:, 0].reshape(3, lanes, stride)
        out[:, c0 - r0:c0 - r0 + lanes] = bits.sum(axis=2)
    return out


def _ks_pvalue(a, b) -> float:
    """Two-sided two-sample KS p-value of samples of one size R, by the exact
    null law (Gnedenko-Korolyuk): P(D >= h/R) = 2 sum_{k>=1} (-1)^(k+1)
    C(2R, R-kh) / C(2R, R), with h the largest gap between the samples'
    counts at or below a pooled value.  The sum runs Horner-style from its
    last term, A0 (1 - A1 (1 - ...)) with A_k = C(2R, R-(k+1)h) / C(2R, R-kh),
    as scipy.stats.ks_2samp(method="exact") evaluates it, clipped to [0, 1]."""
    a, b = np.sort(a), np.sort(b)
    n = len(a)
    if n == 0 or len(b) != n:
        raise ValueError(f"KS samples must be nonempty and of one size, got {len(a)} and {len(b)}")
    both = np.concatenate([a, b])
    h = int(np.abs(np.searchsorted(a, both, side="right")
                   - np.searchsorted(b, both, side="right")).max())
    if h == 0:
        return 1.0
    p = 0.0
    for k in range(n // h, -1, -1):
        term = 1.0
        for j in range(h):
            term = (n - k * h - j) * term / (n + k * h + j + 1)
        p = term * (1.0 - p)
    return min(max(2 * p, 0.0), 1.0)


def verify_ergodic_hypotheses(direction, field: ParameterField, k: int,
                              replicas: int, seed: int, workers: int = 1) -> VerificationReport:
    """Empirical check of the superadditive ergodic theorem's hypotheses for
    the array X(m, n) along a rational direction.

    Samples 2k-shell colored boxes and tests: distributional invariance of
    X(m, m+k) under m -> m+k and under m -> m+1 (two-sample KS at significance
    KS_ALPHA), nonnegativity, and finite means (reported).  The KS p-value is
    the exact law of the statistic for two independent samples of one
    continuous law (_ks_pvalue).  The counts are integers, whose ties only
    lower the statistic, so the test is conservative.  X(0,k) and X(k,2k)
    read disjoint coins and are independent; X(1,k+1) reads coins of X(0,k)
    (correlation 0.24 to 0.64 at k = 2 to 8), so the shift-1 test compares
    paired samples and its p-value is not exact.  With one replica per side
    every outcome has p = 1 and the tests could never fail, so replicas >= 2.

    No ensemble is built: the replicas are lanes of one carry sweep, lane r a
    guard bit and then the box's 2k*bx columns on replica r's coins, at most
    LANE_BITS bits a word.  The column mask and each level's nucleation
    window (x > (2k-L)*bx, y > (2k-L)*by) are tiled across the lanes, and
    X(m, n) is a lane's popcount, over columns m*bx+1..n*bx, of level 2k-m
    at row n*by, where its sweep stops: level 2k-n nucleates only on rows
    y > n*by, so it is empty there.  `workers` contiguous lane groups run as
    one pool task each.
    """
    if not 1 <= k <= MAX_COLORS // 2:
        raise ValueError(f"need k in 1..{MAX_COLORS // 2}, got k={k}")
    if replicas < 2:
        raise ValueError(f"need replicas >= 2 for the KS tests, got {replicas}")
    scheme = make_coloring(*direction, field)
    groups = max(1, min(workers, replicas))  # the pool runs workers <= 1 inline
    bounds = [replicas * g // groups for g in range(groups + 1)]
    args = [(field, scheme.bx, scheme.by, k, seed, r0, r1) for r0, r1 in zip(bounds, bounds[1:])]
    x0k, xk2k, x1k1 = np.concatenate(pool.run_tasks(_shell_count_task, args, workers), axis=1)
    rep = VerificationReport(f"ergodic hypotheses k={k}")
    rep.cases = 3
    if min(x0k.min(), xk2k.min(), x1k1.min()) < 0:
        rep.fail("negative line count")
    p_shift_k = _ks_pvalue(x0k, xk2k)
    if p_shift_k <= KS_ALPHA:
        rep.fail(f"X(0,k) vs X(k,2k): KS p={p_shift_k:.4g} <= {KS_ALPHA}")
    p_shift_1 = _ks_pvalue(x0k, x1k1)
    if p_shift_1 <= KS_ALPHA:
        rep.fail(f"X(0,k) vs X(1,k+1): KS p={p_shift_1:.4g} <= {KS_ALPHA}")
    rep.details.update({
        "mean_X0k": float(x0k.mean()),
        "mean_Xk2k": float(xk2k.mean()),
        "mean_X1k1": float(x1k1.mean()),
        "ks_p_shift_k": p_shift_k,
        "ks_p_shift_1": p_shift_1,
        "replicas": replicas,
    })
    return rep


# ---------------------------------------------------------------------------
# Convergence experiments

@dataclass
class ConvergenceReport:
    """Height ratios h(nx, ny)/n across sizes and replicas.

    ratios has shape (replicas, len(sizes)).  reference is the closed-form
    limit when one exists (homogeneous parameters), else None; the running
    value at the largest size is reported either way, with no claim that it
    equals the ergodic constant in the periodic case.
    """

    model: str
    direction: tuple[str, str]
    sizes: list[int]
    ratios: np.ndarray
    reference: float | None
    seed: int

    @property
    def final_mean(self) -> float:
        return float(self.ratios[:, -1].mean())

    @property
    def replica_std(self) -> float:
        return float(self.ratios[:, -1].std())

    def cauchy_gaps(self) -> np.ndarray:
        """|ratio(size_i) - ratio(size_{i-1})| per replica, consecutive sizes."""
        return np.abs(np.diff(self.ratios, axis=1))

    def abs_errors(self) -> np.ndarray | None:
        if self.reference is None:
            return None
        return np.abs(self.ratios - self.reference)

    def to_csv(self, meta: dict | None = None) -> str:
        import json

        lines = []
        if meta is not None:
            lines.append("# " + json.dumps(meta, sort_keys=True))
        lines.append("size,replica,ratio,reference,abs_error")
        ref = "" if self.reference is None else repr(float(self.reference))
        for si, size in enumerate(self.sizes):
            for r in range(self.ratios.shape[0]):
                ratio = float(self.ratios[r, si])
                err = "" if self.reference is None else repr(abs(ratio - self.reference))
                lines.append(f"{size},{r},{ratio!r},{ref},{err}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self, meta: dict | None = None) -> dict:
        out = {
            "model": self.model,
            "direction": list(self.direction),
            "sizes": list(self.sizes),
            "ratios": self.ratios.tolist(),
            "reference": self.reference,
            "final_mean": self.final_mean,
            "replica_std": self.replica_std,
            "max_last_cauchy_gap": (
                float(self.cauchy_gaps()[:, -1].max()) if len(self.sizes) > 1 else None
            ),
            "seed": self.seed,
        }
        if meta is not None:
            out["meta"] = meta
        return out


def _floor_point(x: Fraction, y: Fraction, n: int) -> tuple[int, int]:
    return int(n * x // 1), int(n * y // 1)


def _ratio_task(args):
    """One replica's ratios for ascending sizes, read off while one carry sweep
    of _liquid_rows (the full draw's rows) advances to each floor point (px, py):
    the popcount of row py's north word below bit px is H for cs6v, for hammersley
    (b1 = 0) the longest chain of the coupled point set, and py - h for s6v."""
    model, field, x, y, sizes, seed, replica = args
    wmax, hmax = _floor_point(x, y, max(sizes))
    rows = _liquid_rows(wmax, hmax, field, seed, replica)
    step = model == "s6v"
    out, at = [], 0
    for n in sizes:
        px, py = _floor_point(x, y, n)
        for _ in range(py - at):
            north, _ = next(rows)
        at = py
        count = (north & ((1 << px) - 1)).bit_count()
        out.append((py - count if step else count) / n)
    return out


def convergence_experiment(direction, field: ParameterField, sizes, replicas: int,
                           seed: int, model: str = "s6v",
                           workers: int = 1) -> ConvergenceReport:
    """Sample height ratios h(floor(nx), floor(ny))/n for each size and replica.

    Each replica sweeps one box at the largest size and reads every smaller
    size from the same realization, so per-replica gaps measure actual
    Cauchy behavior along a growing sample.  The heights are read as the
    packed-bit carry sweep passes each floor row, one popcount per size, so
    a replica holds O(width) memory (plus the field's J parameter rows), not
    the box; it draws no coin of a vertex entered by one line, which passes
    it on whatever its coins, so every ratio is the full draw's bit for bit.
    sizes must be integers (a bool or a non-integral value is rejected, not
    rounded), every floor point must have both coordinates in 1..rng.MAX_SEED
    (the coins' address space).  With homogeneous parameters the closed-form
    limit is attached as reference.  model="hammersley" needs the 1x1 field
    b1 = 0, b2 = 1 - p in (0, 1): it sweeps the cs6v coins, whose height at
    b1 = 0 is the longest chain of the coupled Bernoulli(p) point set, so its
    ratios are cs6v's and only its reference differs.
    """
    x, y = Fraction(direction[0]), Fraction(direction[1])
    if x <= 0 or y <= 0:
        raise ValueError("direction components must be positive")
    sizes = list(sizes)
    if any(isinstance(n, (bool, np.bool_)) or not (hasattr(n, "__index__") or float(n).is_integer())
           for n in sizes):  # an int too large for a float is integral too
        raise ValueError(f"sizes must be integers, got {sizes}")
    sizes = sorted(int(n) for n in sizes)
    if not sizes or sizes[0] < 1:
        raise ValueError("sizes must be positive")
    if min(_floor_point(x, y, sizes[0])) < 1:
        raise ValueError(f"size {sizes[0]} yields an empty box in direction ({x}, {y})")
    if max(_floor_point(x, y, sizes[-1])) > MAX_SEED:
        raise ValueError(f"size {sizes[-1]}: box side above {MAX_SEED}, the coins' address space")
    if model not in ("s6v", "cs6v", "hammersley"):
        raise ValueError(f"unknown model {model!r}")
    if replicas < 1:
        raise ValueError(f"need replicas >= 1, got {replicas}")
    if model == "hammersley" and not (field.I == field.J == 1 and field.b1[0, 0] == 0
                                      and 0 < field.b2[0, 0] < 1):
        raise ValueError("the hammersley model needs a 1x1 field with b1 = 0 "
                         "and b2 = 1 - p in (0, 1)")
    reference = None
    if field.I == 1 and field.J == 1:
        b1v, b2v = float(field.b1[0, 0]), float(field.b2[0, 0])
        g = limit_shape_g(float(x), float(y), b1v, b2v)
        if model == "s6v":
            reference = g
        elif model == "cs6v":
            reference = float(y) - g
        else:
            reference = hammersley_limit(float(x), float(y), 1.0 - b2v)
    args = [(model, field, x, y, sizes, seed, r) for r in range(replicas)]
    rows = pool.run_tasks(_ratio_task, args, workers)
    ratios = np.array(rows, dtype=np.float64)
    return ConvergenceReport(model, (str(x), str(y)), sizes, ratios, reference, seed)
