"""Exact counting and enumeration of lattice points on degree-k spheres.

r_{d,k}(mu) = #{u in Z^d : sum_i |u_i|^k = mu}.  Odd k uses |y|^k throughout,
so every table is symmetric under coordinate sign flips.

Tables are computed as the d-th convolution power of the one-dimensional
sequence g_k[m] = #{y in Z : |y|^k = m} (left-to-right binary powering,
truncated at lambda_max).  Everything in the counting paths is
arbitrary-precision integer arithmetic: r_{10,2}(10^5) is about 10^36 and
the convolution identity below requires bit-for-bit exactness.

The identity used throughout for cross-checks:

    r_{a+b,k}(mu) = sum_{nu=0}^{mu} r_{a,k}(nu) * r_{b,k}(mu - nu).

The joint count over an l-fold product sphere is just r in dimension l*d:

    N(lam) = #{(u_1..u_l) : sum_j sum_i |u_{j,i}|^k = lam} = r_{l*d,k}(lam).

_ball_offsets is the one vectorised k-ball descent, with three users:
enumerate_shell joins two half balls by level (meet in the middle), the
operator engine pushes each support point through the ball of offsets, and
the exact norm-scan regions of sharpness walk a Euclidean (d-1)-ball.

Growth diagnostics (dyadic block averaging + log-log fit) live here too;
raw counts oscillate arithmetically, so slopes are fitted to block means.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from ._convolve import power_trunc
from .errors import AnalysisError, ParameterError, RangeError
from .grids import _as_int, _as_point, _or_inf, _within_budget
from .reports import ExponentReport


@dataclass(frozen=True)
class SphereSpec:
    """Ambient dimension and degree of the sphere sum |u_1|^k+...+|u_d|^k."""

    dim: int
    degree: int

    def __post_init__(self):
        object.__setattr__(self, "dim", _as_int(self.dim, "dim", 1))
        object.__setattr__(self, "degree", _as_int(self.degree, "degree", 2))


@dataclass(frozen=True)
class RepCountTable:
    """Exact counts r_{d,k}(mu) for mu = 0..lambda_max."""

    spec: SphereSpec
    lambda_max: int
    counts: tuple[int, ...]

    def count(self, mu: int) -> int:
        if not 0 <= _as_int(mu, "mu", None) <= self.lambda_max:
            raise RangeError(
                f"mu={mu} outside table range 0..{self.lambda_max} "
                f"(dim={self.spec.dim}, degree={self.spec.degree})"
            )
        return self.counts[mu]


@dataclass(frozen=True)
class Shell:
    """All lattice points u in Z^d with sum |u_i|^k = lam, in lexicographic order."""

    spec: SphereSpec
    lam: int
    points: tuple[tuple[int, ...], ...]


def kth_root_floor(m: int, k: int) -> int:
    """Largest integer r >= 0 with r**k <= m (m >= 0)."""
    if m < 0:
        raise ParameterError("kth_root_floor expects m >= 0")
    if m < 2:
        return m
    if k == 2:
        return math.isqrt(m)
    # integer Newton (no float, so no overflow) from 2^ceil(bits/k) >= the root
    r = 1 << -(-m.bit_length() // k)
    while True:
        s = ((k - 1) * r + m // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def one_dim_counts(degree: int, lambda_max: int) -> list[int]:
    """g_k[m] = #{y in Z : |y|^k = m} on 0..lambda_max."""
    g = [0] * (lambda_max + 1)
    g[0] = 1
    y = 1
    while y**degree <= lambda_max:
        g[y**degree] = 2
        y += 1
    return g


def rep_counts(spec: SphereSpec, lambda_max: int) -> RepCountTable:
    """Exact table of r_{d,k}(mu), mu = 0..lambda_max.

    Computed as the dim-th truncated convolution power of the
    one-dimensional series; never by shell enumeration.  A lambda_max above
    DEFAULT_SUPPORT_BUDGET raises BudgetError before anything is allocated.
    """
    lambda_max = _as_int(lambda_max, "lambda_max", 0)
    _within_budget(lambda_max, "count table lambda_max")
    g = one_dim_counts(spec.degree, lambda_max)
    counts = power_trunc(g, spec.dim, lambda_max + 1)
    return RepCountTable(spec=spec, lambda_max=lambda_max, counts=tuple(counts))


class TableCache:
    """Memoizes one RepCountTable per (dim, degree): the largest one asked for.

    A request at or below the stored table's lambda_max is served by it;
    a larger request replaces it.  Callers read only counts[:lam + 1].
    """

    def __init__(self):
        self._tables: dict[tuple[int, int], RepCountTable] = {}

    def table(self, spec: SphereSpec, lambda_max: int) -> RepCountTable:
        key = (spec.dim, spec.degree)
        tab = self._tables.get(key)
        if tab is None or tab.lambda_max < lambda_max:
            tab = rep_counts(spec, lambda_max)
            self._tables[key] = tab
        return tab


DEFAULT_CACHE = TableCache()


def joint_count(spec: SphereSpec, linearity: int, lam: int) -> int:
    """N(lam) = r_{l*d,k}(lam): lattice points on the joint sphere in Z^(l*d)."""
    linearity, lam = _as_int(linearity, "linearity", 1), _as_int(lam, "lam", None)
    if lam < 0:
        raise RangeError(f"lam must be >= 0, got {lam}")
    joint = SphereSpec(dim=spec.dim * linearity, degree=spec.degree)
    return DEFAULT_CACHE.table(joint, lam).count(lam)


def _ball_offsets(dim: int, degree: int, lam_max: int) -> tuple[np.ndarray, np.ndarray]:
    """All u in Z^dim with |u|^k <= lam_max in lexicographic order, and their levels.

    Returns the points as the columns of a (dim, N) int64 array and their
    levels |u|^k as an (N,) int64 array.  Axis-by-axis descent from the
    empty point (level 0, so dim = 0 gives that one point): each prefix is
    extended by every coordinate c with |c|^k within its remaining level,
    in ascending order, so the points stay sorted and no rejected point is
    ever built.  A first axis, or a step, of more than DEFAULT_SUPPORT_BUDGET
    points raises BudgetError before it is built.  lam_max < 2^62, so no
    level wraps int64.
    """
    root = kth_root_floor(lam_max, degree)
    _within_budget(2 * root + 1, f"points on the first axis of a k-ball of level {lam_max}")
    powers = np.arange(root + 1, dtype=np.int64) ** degree
    pts, level = np.zeros((0, 1), dtype=np.int64), np.zeros(1, dtype=np.int64)
    for _ in range(dim):
        roots = np.searchsorted(powers, lam_max - level, side="right") - 1
        width = 2 * roots + 1
        rows = int(width.sum())
        _within_budget(rows, f"points of a k-ball of level {lam_max} in {len(pts) + 1} axes")
        prefix = np.repeat(np.arange(len(level)), width)
        coord = np.arange(rows, dtype=np.int64)
        coord -= (np.cumsum(width) - width + roots)[prefix]     # index of c = 0, per new point
        level = level[prefix] + powers[np.abs(coord)]
        grown = np.empty((len(pts) + 1, rows), dtype=np.int64)
        np.take(pts, prefix, axis=1, out=grown[:-1], mode="clip")   # "raise" would buffer out
        grown[-1] = coord
        pts = grown
    return pts, level


_SHELL_BLOCK = 1 << 12      # shell points converted to tuples at a time


def _joined(head, tail, order, start, count, ints):
    """Yield head point i joined with tail points order[start[i] : start[i] + count[i]], i in order.

    Coordinates become the int objects ints[c] when ints is given (negative
    c index from the back).  Blocks of about _SHELL_BLOCK points bound the
    index arrays and column lists.
    """
    ends = np.cumsum(count)
    a = done = 0
    while a < len(count):
        b = min(int(np.searchsorted(ends, done + _SHELL_BLOCK)) + 1, len(count))
        cnt = count[a:b]
        rows = np.repeat(np.arange(a, b), cnt)
        idx = np.arange(done, ends[b - 1]) + np.repeat(start[a:b] - ends[a:b] + cnt, cnt)
        cols = [head[:, rows], tail[:, order[idx]]]
        if ints is not None:
            cols = [ints[c] for c in cols]
        yield from zip(*cols[0].tolist(), *cols[1].tolist())
        a, done = b, int(ends[b - 1])


def enumerate_shell(spec: SphereSpec, lam: int) -> Shell:
    """Exhaustive duplicate-free shell, in lexicographic order.

    Meet in the middle: the head (first ceil(d/2) axes) and the tail (last
    floor(d/2) axes) are k-balls of level lam.  The tail is stably sorted
    by level, so the points of each level stay in lexicographic order, and
    each head point h, in order, is joined with the tail points of level
    lam - |h|^k.  Head order then tail order is lexicographic order.  For
    d >= 2, BudgetError is raised when lam >= 2^62, when a ball needs more
    than DEFAULT_SUPPORT_BUDGET points, or when the shell has more points.
    """
    lam = _as_int(lam, "lam", 0)
    d, k = spec.dim, spec.degree
    root = kth_root_floor(lam, k)
    if d == 1:
        points = () if root**k != lam else ((0,),) if root == 0 else ((-root,), (root,))
        return Shell(spec=spec, lam=lam, points=points)
    _within_budget(lam, f"shell level in dimension {d} (int64 levels)", (1 << 62) - 1)
    head, head_lev = _ball_offsets(d - d // 2, k, lam)
    tail, tail_lev = _ball_offsets(d // 2, k, lam) if d % 2 else (head, head_lev)
    order = np.argsort(tail_lev, kind="stable")
    tail_lev = tail_lev[order]
    need = np.subtract(lam, head_lev, out=head_lev)  # in place: tail_lev is a sorted copy
    start = np.searchsorted(tail_lev, need, side="left")
    count = np.searchsorted(tail_lev, need, side="right")
    count -= start
    total = int(count.sum())
    _within_budget(total, "shell points")
    live = np.flatnonzero(count)            # head points with a partner
    # one int object per value -R..R, shared by every tuple, unless that
    # table would outnumber the shell's coordinates
    ints = None
    if 2 * root + 1 <= total * d:
        ints = np.concatenate([np.arange(root + 1), np.arange(-root, 0)]).astype(object)
    joined = _joined(head[:, live], tail, order, start[live], count[live], ints)
    del head, head_lev, tail_lev, need, start, count, live    # before the tuples exist
    return Shell(spec=spec, lam=lam, points=tuple(joined))


def growth_exponent_fit(table: RepCountTable, window: tuple[int, int]) -> ExponentReport:
    """Dyadic-block log-log slope of the counts over [window_lo, window_hi].

    Counts are averaged over each block [2^j, 2^(j+1)) before fitting;
    the expected slope for dimension m, degree k is m/k - 1.  A block mean
    past the float range is refused with BudgetError.
    """
    window = _as_point(window, "window")
    if len(window) != 2 or not 1 <= window[0] <= window[1] <= table.lambda_max:
        raise ParameterError(f"window {window} must be a pair 1 <= lo <= hi <= {table.lambda_max}")
    lo, hi = window
    blocks = range((lo - 1).bit_length(), (hi + 1).bit_length() - 1)  # [2^j, 2^(j+1)) in [lo, hi]
    if len(blocks) < 2:
        raise ParameterError(f"window [{lo}, {hi}] spans {len(blocks)} dyadic blocks; need >= 2")
    xs, ys = [], []
    for j in blocks:
        seg = table.counts[2**j : 2 ** (j + 1)]
        avg = _or_inf(lambda: sum(seg) / len(seg))
        _within_budget(avg, f"mean count of the block [2^{j}, 2^{j + 1})", sys.float_info.max)
        if avg <= 0.0:
            raise AnalysisError(f"all-zero dyadic block [{2**j}, {2**(j+1)}); fit is degenerate")
        xs.append(math.log(2**j * math.sqrt(2.0)))  # geometric block center
        ys.append(math.log(avg))
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
    intercept = my - slope * mx
    residual = math.sqrt(sum((y - (intercept + slope * x)) ** 2 for x, y in zip(xs, ys)) / n)
    expected = table.spec.dim / table.spec.degree - 1.0
    return ExponentReport(
        fitted_slope=slope,
        expected_slope=expected,
        residual=residual,
        sample_range=f"dyadic blocks 2^{blocks[0]}..2^{blocks[-1] + 1} ({n} blocks)",
    )


def asymptotic_validity_note(spec: SphereSpec) -> str | None:
    """Advisory note when the dimension may be too low for the clean growth
    exponent d/k - 1 of the count table.  Never enforced, only reported.

    For degree 2 the count is clean once d > 4; for higher degree the
    threshold is d > d0(k), with d0 the best known linear-theory dimension
    bound, which this library does not know.
    """
    d, k = spec.dim, spec.degree
    if k == 2:
        if d <= 4:
            return (
                f"composed dimension {d} <= 4: the degree-2 growth "
                f"exponent {d / 2 - 1:g} is not guaranteed at this size"
            )
        return None
    return (
        f"degree {k}: the growth exponent {d / k - 1:g} is guaranteed only for "
        f"dim > d0({k}), the linear-theory dimension threshold, which is not checked"
    )


def write_counts_csv(table: RepCountTable, stream) -> None:
    """CSV export: header lambda,count, one row per lambda, decimal counts."""
    stream.write("lambda,count\n")
    for mu, c in enumerate(table.counts):
        stream.write(f"{mu},{c}\n")


def write_shell_csv(shell: Shell, stream) -> None:
    """CSV export: header x1,...,xd, one row per point, lexicographic order."""
    stream.write(",".join(f"x{i + 1}" for i in range(shell.spec.dim)) + "\n")
    for p in shell.points:
        stream.write(",".join(str(c) for c in p) + "\n")
