"""Sharpness machinery: witness family, decay fits, norm scans, exponents.

The witness family is f_1 = indicator of [-L, L]^d with the other l-1
inputs equal to delta_0.  For this family the maximal operator has an exact
closed form, no level truncation: at a point x the average is nonzero only
for levels in the finite candidate set

    lam(w) = (l-1) * sum_i |x_i|^k + sum_i |x_i - w_i|^k,   w in [-L, L]^d,

and under asymptotic normalization

    witness_value(x) = max over candidate lam >= 1 of
                       #(w attaining lam) * lam^-(l*d/k - 1).

The candidate lam = l * sum |x_i|^k (from w = 0) is always present, so
witness_value(x) >= (l * sum |x_i|^k)^-(l*d/k - 1) for x != 0.  The level
lam = 0 arises only at x = 0, w = 0 and is excluded (level scans start at 1).

Each level is a sum of independent per-axis terms, so witness_values adds
them axis by axis (the long axis innermost, in int32 while the levels fit)
over fixed-size row blocks: memory stays bounded for any batch.  Under
asymptotic normalization with l*d > k the weight
lam^-(l*d/k - 1) falls as lam grows, so only a row's first level and the
levels whose count beats every smaller level's can hold its maximum, and
only those are weighted; the maximum is the same float, as the float64
weights and products are monotone too.  An exact region evaluates each multiset of |x_i| once: the
witness value depends on nothing else.  The region sums keep their own
chunks (60k points, 30k samples): those fix the float summation order and
the random stream, hence the bytes.

Pointwise this family decays like |x|^-(l*d - k), so its l^r norm over a
ball diverges as the radius grows exactly when r <= d/(l*d - k); dyadic
shell sums of witness^r then have asymptotic ratio 2^(d - (l*d - k) * r).
At desk scale the observed ratios sit somewhat below that limit: candidate
levels collide on lattice-special directions (axes, hyperplanes x.w = c)
and those collisions thin out only slowly with the radius.

critical_r / r0_bound / p0_bound are exact rational evaluations of the
threshold formulas; region_classify applies the bilinear degree-2 verdict
rules to an (p, q, r, d) tuple.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .counts import SphereSpec, _ball_offsets, kth_root_floor
from .errors import AnalysisError, ParameterError
from .grids import _as_int, _as_point, _as_real, _or_inf, _within_budget
from .operators import Normalization, _norm_factors
from .reports import ExponentReport, RegionVerdict, ScanReport

_EXACT_REGION_BUDGET = 200_000
_DEFAULT_SAMPLES = 8_000
_DEFAULT_SEED = 20250808
_BLOCK_LEVELS = 1 << 16  # ties 2^17, at half its peak, of 2^14..2^18 (int32 levels, L = 1, 2, Z^5)
_EXACT_LEVEL_BUDGET = 1 << 17  # largest exact=True joint level: experiment 2's tables


@dataclass(frozen=True)
class WitnessSpec:
    """Witness family: one box of radius box_radius, linearity-1 deltas."""

    dim: int
    degree: int
    linearity: int
    box_radius: int

    def __post_init__(self):
        for name, low in (("dim", 1), ("degree", 2), ("linearity", 2), ("box_radius", 1)):
            object.__setattr__(self, name, _as_int(getattr(self, name), name, low))

    def decay_exponent(self) -> int:
        return self.linearity * self.dim - self.degree


def critical_r(dim: int, degree: int, linearity: int) -> Fraction:
    """Exact l^r threshold d / (l*d - k) below which the witness norm diverges."""
    dim, degree = _as_int(dim, "dim", 1), _as_int(degree, "degree", 2)
    linearity = _as_int(linearity, "linearity", 1)
    if linearity * dim <= degree:
        raise ParameterError(
            f"need linearity*dim > degree, got {linearity}*{dim} <= {degree}"
        )
    return Fraction(dim, linearity * dim - degree)


def _as_fraction(x) -> Fraction:
    """x as an exact rational (a float gives its exact binary value)."""
    try:
        return Fraction(x)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise ParameterError(f"cannot interpret {x!r} as a finite rational number") from None


def _as_delta0(delta0) -> Fraction:
    """delta0 as an exact rational, at least 0."""
    if (d0 := _as_fraction(delta0)) < 0:
        raise ParameterError(f"delta0 must be >= 0, got {delta0!r}")
    return d0


def r0_bound(delta0, linearity: int) -> Fraction:
    """(2 + 2*delta0) / ((l-1)*(2 + 2*delta0) + (1 + 2*delta0)), exact."""
    d0 = _as_delta0(delta0)
    linearity = _as_int(linearity, "linearity", 1)
    top = 2 + 2 * d0
    return top / ((linearity - 1) * top + (1 + 2 * d0))


def p0_bound(delta0, dim: int, degree: int) -> Fraction:
    """max(1 + 1/(1 + 2*delta0), d/(d - k)), exact."""
    d0 = _as_delta0(delta0)
    dim, degree = _as_int(dim, "dim", None), _as_int(degree, "degree", None)
    if dim <= degree:
        raise ParameterError(f"need dim > degree, got {dim} <= {degree}")
    return max(1 + 1 / (1 + 2 * d0), Fraction(dim, dim - degree))


def witness_values(points: np.ndarray, spec: WitnessSpec, *, exact: bool = False) -> np.ndarray:
    """Exact witness supremum at every row of points ((N, dim) integer array).

    Levels are summed axis by axis, the long axis innermost, in row blocks of
    at most _BLOCK_LEVELS (a larger row is its own block), row-sorted and
    grouped by a run-length pass; lam = 0 (only at x = 0) is excluded.  They
    are int32 when d * ((l-1) big^k + (big+L)^k) < 2^31, big the batch's
    largest |x_i| (always for exact=True), else int64.  A row's value depends
    only on its own levels, so neither blocking nor the dtype changes it.

    Under asymptotic normalization with l*d/k > 1, a run of levels is
    weighted only when it is its row's first or its count beats that of
    every smaller level of the row; any other run has a count no larger than
    some smaller level's and a weight no larger (the float64 lam^-e does not
    rise with lam, and the rounded c * p does not fall as c or p rise), so it
    cannot raise the row's maximum: the output bytes are those of weighting
    every run, which tests/test_sharpness.py checks up to levels near 2^61.
    lam = 0, weighted 0, is the first level only at x = 0, where it has
    count 1 and every other level count >= 2 (w and -w).  exact=True
    (N(lam) is not monotone) and l*d/k <= 1 weight every run.

    exact=True divides candidate counts by the true joint count N(lam)
    instead of lam^(l*d/k - 1), which needs the joint table up to the largest
    candidate level; decay fits and norm scans use the asymptotic form.
    BudgetError is raised before allocating when (2L+1)^d > DEFAULT_SUPPORT_BUDGET,
    when the largest level reaches 2^62 (int64 levels would overflow) or an exact table would
    pass _EXACT_LEVEL_BUDGET; ParameterError when a coordinate is not an int64 integer.
    """
    try:        # a float, str or past-int64 coordinate is not cast safely
        pts = np.asarray(points).astype(np.int64, casting="safe", copy=False)
    except TypeError:
        raise ParameterError("witness points must have int64 integer coordinates") from None
    if pts.ndim != 2 or pts.shape[1] != spec.dim:
        raise ParameterError(f"points must be an (N, {spec.dim}) integer array")
    L, k = spec.box_radius, spec.degree
    nb = (2 * L + 1) ** spec.dim
    _within_budget(nb, "witness box points")
    n = len(pts)
    if n == 0:
        return np.zeros(0)
    big = max(-int(pts.min()), int(pts.max()))
    bound = spec.dim * ((spec.linearity - 1) * big**k + (big + L) ** k)     # >= each level
    if exact or bound >= 1 << 62:
        absf = np.abs(pts.astype(np.float64))   # the top level takes w_i = -sign(x_i) * L
        top = ((spec.linearity - 1) * absf**k + (absf + L) ** k).sum(axis=1).max()
        _within_budget(float(top), "witness level (int64 levels)", (1 << 62) - 1)
    dtype = np.int32 if bound < 1 << 31 else np.int64   # exact=True: bound <= d * top <= d * 2^17
    base = ((spec.linearity - 1) * (np.abs(pts) ** k).sum(axis=1)).astype(dtype)
    if exact:
        _within_budget(int(top), "exact witness level", _EXACT_LEVEL_BUDGET)
        norms = _norm_factors(SphereSpec(spec.dim, k), spec.linearity, Normalization.EXACT, int(top))
        norms[0] = 0.0      # lam = 0 (only at x = 0) weighs 0
    w = np.arange(-L, L + 1)
    expo = spec.linearity * spec.dim / k - 1.0
    records_only = not exact and expo > 0.0
    rows = max(1, _BLOCK_LEVELS // nb)
    out = np.empty(n)
    for lo in range(0, n, rows):
        x = pts[lo : lo + rows]
        firsts = np.arange(len(x)) * nb  # where each row's levels start in flat
        levels = base[lo : lo + rows, None]
        step = (np.abs(x[:, :, None] - w) ** k).astype(dtype)
        for axis in range(spec.dim):     # the long axis innermost; the row sort fixes the order
            levels = (step[:, axis, :, None] + levels[:, None, :]).reshape(len(x), -1)
        levels.sort(axis=1)
        flat = levels.ravel()
        edge = np.empty(len(flat) + 1, dtype=bool)     # True where a run of equal levels starts
        np.not_equal(flat[1:], flat[:-1], out=edge[1:-1])
        edge[::nb] = True  # never merge runs across rows; this also sets both ends
        multi = edge[:-1] > edge[1:]        # the start of each run of two or more levels,
        ends = np.flatnonzero(edge[1:] > edge[:-1]) + 1    # and its end, in the same order
        # records_only keeps a row's first run and its records (see the docstring): a
        # one-level run never beats the first, so the records are found among the rest
        keep = multi if records_only else edge[:-1].copy()
        keep[firsts] = True
        starts = np.flatnonzero(keep)
        counts = np.ones(len(starts), dtype=np.int64)
        longer = ~edge[starts + 1]
        counts[longer] = ends - starts[longer]
        if records_only:
            key = starts // nb * (nb + 1) + counts      # keys rise from row to row
            keep = np.ones(len(key), dtype=bool)
            keep[1:] = key[1:] > np.maximum.accumulate(key)[:-1]
            starts, counts = starts[keep], counts[keep]
        lam_vals = flat[starts]
        if exact:
            denom = norms[lam_vals]
            vals = np.where(denom > 0.0, counts / np.where(denom > 0.0, denom, 1.0), 0.0)
        else:
            lamf = lam_vals.astype(np.float64)
            pos = lamf >= 1.0
            vals = np.where(pos, counts * np.where(pos, lamf, 1.0) ** (-expo), 0.0)
        row_start = np.searchsorted(starts, firsts)
        out[lo : lo + len(x)] = np.maximum.reduceat(vals, row_start)
    return out


def witness_value(x, spec: WitnessSpec, *, exact: bool = False) -> float:
    """Closed-form supremum of the witness maximal function at x.

    Asymptotic normalization by default; exact=True is the comparison mode
    dividing by true joint counts (see witness_values).
    """
    return float(witness_values([x], spec, exact=exact)[0])


def decay_fit(
    spec: WitnessSpec,
    direction,
    t_range: tuple[int, int],
    num_samples: int = 64,
) -> ExponentReport:
    """Fit log witness_value(t * direction) against log |t * direction|.

    Expected slope is -(l*d - k); samples are log-spaced integers in t_range.
    """
    direction = _as_point(direction, "direction", spec.dim)
    if all(c == 0 for c in direction):
        raise ParameterError("direction must be nonzero")
    try:
        t_lo, t_hi = t_range
    except (TypeError, ValueError):
        raise ParameterError(f"t_range must be a pair (t_lo, t_hi), got {t_range!r}") from None
    t_lo = _as_int(t_lo, "t_lo", 1)
    t_hi, num_samples = _as_int(t_hi, "t_hi", t_lo), _as_int(num_samples, "num_samples", 2)
    if t_lo == t_hi:
        raise AnalysisError("degenerate t_range: a single sample point cannot be fitted")
    if t_hi < 10 * t_lo:
        raise ParameterError(f"t_range {t_range!r} spans less than one decade")
    top = round(t_lo * (t_hi / t_lo))   # the largest sample: the last, as ts rounds it below
    if max(t_hi, top) * max(map(abs, direction)) >= 1 << 63:
        raise ParameterError(f"t_max {t_hi} times direction {direction} leaves int64")
    _within_budget(num_samples, "decay samples")
    ts = sorted({int(round(t_lo * (t_hi / t_lo) ** (i / (num_samples - 1))))
                 for i in range(num_samples)})
    dir_arr = np.array(direction, dtype=np.int64)
    pts = np.array(ts, dtype=np.int64)[:, None] * dir_arr[None, :]
    vals = witness_values(pts, spec)
    if not np.all(vals > 0.0):
        raise AnalysisError("witness values vanished along the ray; fit is degenerate")
    xs = np.log(np.sqrt((pts.astype(np.float64) ** 2).sum(axis=1)))
    ys = np.log(vals)
    mx, my = xs.mean(), ys.mean()
    slope = float(((xs - mx) * (ys - my)).sum() / ((xs - mx) ** 2).sum())
    resid = ys - (my + slope * (xs - mx))
    return ExponentReport(
        fitted_slope=slope,
        expected_slope=-float(spec.decay_exponent()),
        residual=float(np.sqrt(np.mean(resid**2))),
        sample_range=f"t in [{t_lo}, {t_hi}] along {direction}, {len(ts)} samples",
    )


def _ball_volume(dim: int, radius: float) -> float:
    """Volume of the radius ball in R^dim; inf past the float range."""
    return _or_inf(lambda: math.pi ** (dim / 2) / math.gamma(dim / 2 + 1) * float(radius) ** dim)


def _region_exact_sum(spec: WitnessSpec, r_lo: float, r_hi: float, r_exp: float) -> float:
    """Exact sum of witness^r over r_lo < |x| <= r_hi (integer radii).

    x_0 runs over -r_hi..r_hi and the other coordinates over the (d-1)-ball
    of radius r_hi, walked once by the shared k-ball descent; both are in
    ascending order, so the points are visited in lexicographic order, in
    chunks of at most 60k points.  A point's witness value depends only on
    the multiset of its |x_i| (the box is symmetric under sign changes and
    permutations of the axes, so the levels are the same integers), so
    witness_values runs once per class, on the sorted |x_i|, and the values
    are scattered back.  Each chunk then sums the same float64 array as an
    evaluation of every point would, in the same order: the bytes are equal.
    """
    lo2, R = int(r_lo) ** 2, int(r_hi)
    # a class key, digits |x_i| <= R in base R+1, fits int64: (R+1)^d <= 2^63
    _within_budget(R, f"radius of an exact region in Z^{spec.dim}",
                   kth_root_floor(1 << 63, spec.dim) - 1)
    tail, tail_lev = _ball_offsets(spec.dim - 1, 2, R * R)
    place = (R + 1) ** np.arange(spec.dim, dtype=np.int64)
    keys = []
    for x0 in range(-R, R + 1):
        lev = tail_lev + x0 * x0
        cols = np.flatnonzero((lev > lo2) & (lev <= R * R))
        for i in range(0, len(cols), 60_000):
            pts = np.insert(tail[:, cols[i : i + 60_000]], 0, x0, axis=0).T
            keys.append(np.sort(np.abs(pts), axis=1) @ place)
    classes, inverse = np.unique(np.concatenate(keys), return_inverse=True)
    vals = witness_values(classes[:, None] // place % (R + 1), spec)[inverse]
    total = 0.0
    for chunk in np.split(vals, np.cumsum([len(k) for k in keys])[:-1]):
        total += float((chunk ** r_exp).sum())
    return total


def _region_sampled_sum(
    spec: WitnessSpec, r_lo: float, r_hi: float, r_exp: float, rng, samples: int
) -> float:
    """Unbiased volume-weighted estimate of the region sum.

    Points are drawn uniformly from the continuous annulus and rounded to
    the lattice; the mean is weighted by the annulus volume, which estimates
    the cell-weighted lattice sum (boundary cells carry fractional weight).
    """
    d = spec.dim
    total = 0.0
    done = 0
    batch = 30_000
    while done < samples:
        nbatch = min(batch, samples - done)
        u = rng.standard_normal((nbatch, d))
        u /= np.linalg.norm(u, axis=1)[:, None]
        rho = (rng.random(nbatch) * (r_hi**d - r_lo**d) + r_lo**d) ** (1.0 / d)
        pts = np.rint(u * rho[:, None]).astype(np.int64)
        total += float((witness_values(pts, spec) ** r_exp).sum())
        done += nbatch
    vol = _ball_volume(d, r_hi) - _ball_volume(d, r_lo)
    return vol * total / samples


@np.errstate(over="ignore")     # a sum past the float range is refused at the end
def partial_norm_scan(
    spec: WitnessSpec,
    r: float,
    radii: list[int],
    *,
    seed: int = _DEFAULT_SEED,
    exact_budget: int = _EXACT_REGION_BUDGET,
    samples_per_region: int = _DEFAULT_SAMPLES,
) -> ScanReport:
    """Partial l^r norms of witness_value over |x| <= R plus shell sums.

    Regions are the inner ball (0, radii[0]] and annuli between consecutive
    radii.  Regions whose estimated lattice count fits the budget are
    enumerated exactly; larger ones are sampled (seeded per region, so the
    result is independent of any execution partitioning).  AnalysisError is
    raised when a region sum or partial norm leaves the float range.
    """
    r = _as_real(r, "r")
    if not r > 0.0:
        raise ParameterError(f"r must be positive, got {r!r}")
    radii = [_as_int(R, "each radius", 1) for R in _as_point(radii, "radii")]
    if len(radii) < 2:
        raise ParameterError("need at least two radii")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ParameterError(f"radii must be strictly increasing, got {radii!r}")
    seed, exact_budget = _as_int(seed, "seed", 0), _as_int(exact_budget, "exact_budget", 0)
    samples_per_region = _as_int(samples_per_region, "samples_per_region", 1)
    # before any region: every radius, region volume and sampled d-th power is then a finite float,
    # and every rounded sample fits int64
    _within_budget(_ball_volume(spec.dim, radii[-1]), "volume of the outer ball", sys.float_info.max)
    _within_budget(radii[-1], "outer radius (int64 samples)", (1 << 62) - 1)
    edges = [0.0] + [float(R) for R in radii]
    region_sums: list[float] = []
    modes: list[str] = []
    origin = _or_inf(pow, witness_value((0,) * spec.dim, spec), r)  # checks the witness budget first
    for idx, (lo, hi) in enumerate(zip(edges, edges[1:])):
        est = _ball_volume(spec.dim, hi) - _ball_volume(spec.dim, lo)
        if est <= exact_budget:
            s = _region_exact_sum(spec, lo, hi, r)
            if idx == 0:  # the inner region includes the origin itself
                s += origin
            modes.append("exact")
        else:
            rng = np.random.default_rng([seed, idx])
            s = _region_sampled_sum(spec, lo, hi, r, rng, samples_per_region)
            modes.append("sampled")
        region_sums.append(s)
    partial = []
    acc = 0.0
    for s in region_sums:
        acc += s
        partial.append(_or_inf(pow, acc, 1.0 / r))
    # witness^r is positive: a sum that reads inf overflowed, one that reads 0 underflowed
    if bad := [x for x in region_sums + partial if not 0.0 < x < math.inf]:
        raise AnalysisError(f"witness^r at r = {r!r} leaves the float range: a region sum or "
                            f"partial norm reads {bad[0]!r}")
    shell_sums = region_sums[1:]
    ratios = [b / a for a, b in zip(shell_sums, shell_sums[1:])]
    return ScanReport(r=r, radii=radii, partial_norms=partial, shell_sums=shell_sums,
                      ratios=ratios, seed=seed, region_modes=modes)


def region_classify(p, q, r, dim: int) -> RegionVerdict:
    """Boundedness verdict for the bilinear degree-2 maximal operator.

    BOUNDED:   dim >= 5, p > 1, q > 1, 1/p + 1/q >= 1/r, r > d/(2d-2).
    UNBOUNDED: r <= d/(2d-2)  (witness norm diverges; at equality the strict
               convention is used and the reason notes that the degree-k
               divergence statement includes equality).
    UNKNOWN:   endpoints p = 1 or q = 1, dimensions 3-4 (different methods
               give r > d/(d-2) there), dim < 3, or 1/p + 1/q < 1/r.
    """
    dim = _as_int(dim, "dim", 1)
    pf, qf, rf = _as_fraction(p), _as_fraction(q), _as_fraction(r)
    if pf <= 0 or qf <= 0 or rf <= 0:
        raise ParameterError(f"p, q, r must be positive, got ({p!r}, {q!r}, {r!r})")
    r_disp = repr(r) if isinstance(r, float) else str(rf)
    crit = critical_r(dim, 2, 2)
    if rf <= crit:
        reason = f"r = {r_disp} <= d/(2d-2) = {crit}: witness l^r norm diverges"
        if rf == crit:
            reason += (
                " (strict-inequality convention; the degree-k divergence "
                "statement includes equality, the conventions disagree only here)"
            )
        return RegionVerdict(verdict="UNBOUNDED", reason=reason)
    problems = []
    if dim < 5:
        if dim >= 3:
            problems.append(
                f"dim {dim} in {{3,4}}: this method needs d >= 5; other methods "
                f"give r > d/(d-2) = {Fraction(dim, dim - 2)} there"
            )
        else:
            problems.append(f"dim {dim} < 3: outside the studied range")
    p_disp = repr(p) if isinstance(p, float) else str(pf)
    q_disp = repr(q) if isinstance(q, float) else str(qf)
    if pf <= 1:
        problems.append(f"p = {p_disp} <= 1 endpoint (restricted weak-type territory)")
    if qf <= 1:
        problems.append(f"q = {q_disp} <= 1 endpoint (restricted weak-type territory)")
    if 1 / pf + 1 / qf < 1 / rf:
        problems.append(
            f"1/p + 1/q = {float(1 / pf + 1 / qf):.6g} < 1/r = {float(1 / rf):.6g}: "
            "outside the Holder range; no divergence witness is known for this regime"
        )
    if problems:
        return RegionVerdict(verdict="UNKNOWN", reason="; ".join(problems))
    return RegionVerdict(
        verdict="BOUNDED",
        reason=f"d = {dim} >= 5, p > 1, q > 1, 1/p + 1/q >= 1/r, r > d/(2d-2) = {crit}",
    )
