"""Multilinear spherical averages and maximal operators on Z^d.

The signed l-linear degree-k average at level lam is

    T_lam(f_1..f_l)(x) = (1/norm(lam)) * sum f_1(x-u_1) ... f_l(x-u_l),

the sum running over (u_1..u_l) with |u_1|^k + ... + |u_l|^k = lam
(each |u_j|^k meaning the coordinate sum of k-th powers).  norm(lam) is
either the exact joint count N(lam) or the asymptotic power lam^(l*d/k - 1).
The absolute value lives in the maximal operator, not the average, so the
average stays multilinear.

Evaluation strategy: sphere sums in Z^(l*d) collapse to one-dimensional
convolutions of per-function level profiles  A_j(x, nu) = sum_{|u|^k = nu}
f_j(x - u),  nu = 0..Lam.  The left fold of pairwise level convolutions

    P(x, .) = A_1(x, .) * A_2(x, .) * ... * A_l(x, .)

gives T_lam(x) = P(x, lam) / norm(lam).  One engine, _live_profiles, builds
the profiles for every operator, and each operator is a reduction of them.
It walks the integer points of the sup-norm dilation (radius
floor(Lam^(1/k))) of the supports' bounding boxes, intersected across
inputs, in fixed-size lexicographic chunks, and drops the rows whose
k-distance to some bounding box exceeds Lam, then the rows where some
profile is identically zero; every operator is zero there, so pruning never
changes a value.  Profiles are scattered from the support in fixed-size
blocks whose sums are added in support order, so the summation order of
every value depends on the support alone: outputs are byte-identical for
any chunk size.

Pointwise domination: for nonnegative inputs and asymptotic normalization,

    sup_lam T_lam(f_1..f_l) <= M(f_1) * S~^(l-1)(f_2..f_l)

with constant exactly 1, where M is the k-ball Hardy-Littlewood maximal
function and S~^(l-1) is the (l-1)-linear spherical maximal operator
*including its level-zero term* (the trivial shell {0}, normalized by 1).
The level-zero term is forced by the discrete splitting: the inner sphere
sum at level lam - |u_1|^k degenerates to a point mass when |u_1|^k = lam,
and dropping it breaks the inequality at points where the remaining inputs
have mass (e.g. f_2 = delta_0 at x = 0).  domination_check verifies the
inequality with that convention; the standalone spherical maximal operator
keeps the conventional range mu >= 1.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .counts import DEFAULT_CACHE, SphereSpec, TableCache, kth_root_floor
from .errors import EmptySphereWarning, ParameterError
from .grids import GridFunction
from .reports import DominationReport

_CHUNK_ROWS = 1 << 13       # rows per grid chunk: the one bound on working memory
_SUPPORT_BLOCK = 256        # support points per scatter: fixes each row's sum order


class Normalization(enum.Enum):
    EXACT = "exact"
    ASYMPTOTIC = "asymptotic"


@dataclass(frozen=True)
class OperatorConfig:
    """Shared configuration of the averaging/maximal operators."""

    spec: SphereSpec
    linearity: int
    lambda_max: int
    normalization: Normalization = Normalization.EXACT
    lambda_min: int = 1

    def __post_init__(self):
        if not isinstance(self.linearity, int) or self.linearity < 1:
            raise ParameterError(f"linearity must be an integer >= 1, got {self.linearity!r}")
        if not isinstance(self.lambda_max, int) or not isinstance(self.lambda_min, int):
            raise ParameterError("lambda_min and lambda_max must be integers")
        if not 1 <= self.lambda_min <= self.lambda_max:
            raise ParameterError(
                f"need 1 <= lambda_min <= lambda_max, got [{self.lambda_min}, {self.lambda_max}]"
            )
        if not isinstance(self.normalization, Normalization):
            raise ParameterError("normalization must be a Normalization value")


def _validate(
    fs: list[GridFunction],
    spec: SphereSpec,
    lambda_max: int,
    linearity: int | None = None,
    nonnegative: bool = False,
) -> None:
    """The input checks shared by every operator."""
    if linearity is not None and len(fs) != linearity:
        raise ParameterError(f"expected {linearity} input functions, got {len(fs)}")
    if not isinstance(lambda_max, int) or lambda_max < 1:
        raise ParameterError(f"lambda_max must be an integer >= 1, got {lambda_max!r}")
    for i, f in enumerate(fs):
        if f.dim != spec.dim:
            raise ParameterError(f"input dimension {f.dim} != spec dimension {spec.dim}")
        if nonnegative and any(v < 0.0 for v in f.values.values()):
            raise ParameterError(f"input {i} must be nonnegative for the domination check")


def _common_grid_box(fs: list[GridFunction], radius: int) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Intersection of each support bbox dilated by radius in sup-norm."""
    if any(f.bbox is None for f in fs):
        return None
    lo = tuple(max(c) - radius for c in zip(*(f.bbox[0] for f in fs)))
    hi = tuple(min(c) + radius for c in zip(*(f.bbox[1] for f in fs)))
    return None if any(a > b for a, b in zip(lo, hi)) else (lo, hi)


def _iter_grid_chunks(box):
    """Yield (N,d) int64 arrays covering the box in lexicographic order."""
    lo, hi = box
    shape = tuple(h - l + 1 for l, h in zip(lo, hi))
    total = math.prod(shape)
    lo_arr = np.array(lo, dtype=np.int64)
    for start in range(0, total, _CHUNK_ROWS):
        flat = np.arange(start, min(start + _CHUNK_ROWS, total), dtype=np.int64)
        yield np.stack(np.unravel_index(flat, shape), axis=1).astype(np.int64) + lo_arr


def _bbox_reach_mask(points: np.ndarray, bbox, degree: int, lam_max: int) -> np.ndarray:
    """Rows whose k-distance to the bounding box is <= lam_max.

    A lower bound on the distance to the support itself, so the complement
    has identically zero level profiles.
    """
    lo, hi = bbox
    gap_sum = np.zeros(len(points), dtype=np.int64)
    for axis in range(points.shape[1]):
        col = points[:, axis]
        gap = np.maximum(np.maximum(lo[axis] - col, col - hi[axis]), 0)
        gap_sum += gap**degree
    return gap_sum <= lam_max


def _level_profile(
    points: np.ndarray, sup_pts: np.ndarray, sup_vals: np.ndarray, degree: int, lam_max: int
) -> np.ndarray:
    """Profile A(i, nu) = sum over the support of f(s) at level nu = |x_i - s|^k.

    Each block of _SUPPORT_BLOCK support points scatters all rows through
    one weighted bincount, and the block sums are added in support order.
    So the summation order of a row is fixed by the support alone, whatever
    rows are evaluated with it; the caller's chunk size bounds the memory.
    """
    n, width = len(points), lam_max + 1
    prof = np.zeros((n, width), dtype=np.float64)
    for s in range(0, len(sup_vals), _SUPPORT_BLOCK):
        sup = sup_pts[s : s + _SUPPORT_BLOCK]          # (B, d)
        vals = sup_vals[s : s + _SUPPORT_BLOCK]        # (B,)
        lev = np.zeros((n, len(vals)), dtype=np.int64)
        for axis in range(points.shape[1]):
            dcol = points[:, axis][:, None] - sup[None, :, axis]
            if degree == 2:
                lev += dcol * dcol
            else:
                lev += np.abs(dcol) ** degree
        mask = lev <= lam_max
        idx = (np.arange(n, dtype=np.int64)[:, None] * width + lev)[mask]
        weights = np.broadcast_to(vals[None, :], mask.shape)[mask]
        prof += np.bincount(idx, weights=weights, minlength=n * width).reshape(n, width)
    return prof


def _level_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise truncated convolution along the level axis."""
    n, width = a.shape
    out = np.zeros_like(a)
    for mu in range(width):
        col = a[:, mu]
        if not col.any():
            continue
        out[:, mu:] += col[:, None] * b[:, : width - mu]
    return out


def _fold(profiles: list[np.ndarray]) -> np.ndarray:
    """Left fold of level convolutions, ((A_1 * A_2) * A_3) * ..."""
    out = profiles[0]
    for p in profiles[1:]:
        out = _level_convolve(out, p)
    return out


def _live_profiles(fs: list[GridFunction], degree: int, lam_max: int, absolute: bool = False):
    """The evaluation engine: yield (chunk, live_idx, profiles) per grid chunk.

    Chunks cover the common evaluation box in lexicographic order.  live_idx
    lists the rows of chunk where no input's profile is identically zero;
    profiles[j] holds, for those rows, the levels 0..lam_max of fs[j] (of
    |fs[j]| when absolute).  Profiles are built smallest support first,
    shrinking the live set as empty rows appear, so large supports are only
    scattered where needed.
    """
    box = _common_grid_box(fs, kth_root_floor(lam_max, degree))
    if box is None:
        return
    supports = [f.arrays() for f in fs]
    if absolute:
        supports = [(pts, np.abs(vals)) for pts, vals in supports]
    order = sorted(range(len(fs)), key=lambda j: len(supports[j][1]))
    for chunk in _iter_grid_chunks(box):
        live = np.ones(len(chunk), dtype=bool)
        for f in fs:
            live &= _bbox_reach_mask(chunk, f.bbox, degree, lam_max)
        idx = np.flatnonzero(live)
        built: dict[int, np.ndarray] = {}
        for j in order:
            if len(idx) == 0:
                break
            prof = _level_profile(chunk[idx], *supports[j], degree, lam_max)
            keep = prof.any(axis=1)
            if not keep.all():
                idx, prof = idx[keep], prof[keep]
                built = {jj: p[keep] for jj, p in built.items()}
            built[j] = prof
        if len(idx) == 0:
            yield chunk, idx, [np.zeros((0, lam_max + 1)) for _ in fs]
        else:
            yield chunk, idx, [built[j] for j in range(len(fs))]


def _evaluate(
    fs: list[GridFunction], degree: int, lam_max: int, reduce, absolute: bool = False
) -> GridFunction:
    """The function x -> reduce(profiles)(x) on the live rows, 0 elsewhere."""
    values: dict[tuple[int, ...], float] = {}
    for chunk, idx, profiles in _live_profiles(fs, degree, lam_max, absolute):
        if len(idx) == 0:
            continue
        out = reduce(profiles)
        nz = np.flatnonzero(out)
        values.update(zip(map(tuple, chunk[idx[nz]].tolist()), out[nz].tolist()))
    return GridFunction(fs[0].dim, values)


def _norm_factors(
    spec: SphereSpec, ell: int, normalization: Normalization, lam_max: int, cache: TableCache | None
) -> np.ndarray:
    """norm(lam) for lam = 0..lam_max; 0 marks an empty sphere (skip)."""
    if normalization is Normalization.ASYMPTOTIC:
        expo = ell * spec.dim / spec.degree - 1.0
        lam = np.arange(lam_max + 1, dtype=np.float64)
        lam[0] = 1.0  # level zero uses unit normalization
        return lam**expo
    joint = SphereSpec(dim=spec.dim * ell, degree=spec.degree)
    tab = (cache if cache is not None else DEFAULT_CACHE).table(joint, lam_max)
    return np.array([float(c) for c in tab.counts[: lam_max + 1]], dtype=np.float64)


def multilinear_average(fs: list[GridFunction], lam: int, cfg: OperatorConfig,
                        cache: TableCache | None = None) -> GridFunction:
    """Signed l-linear spherical average at a single level lam.

    Exact normalization at an empty sphere (N(lam) = 0) returns the zero
    function and emits EmptySphereWarning; a supremum scan must skip such
    levels rather than abort.
    """
    _validate(fs, cfg.spec, cfg.lambda_max, cfg.linearity)
    if not isinstance(lam, int) or not cfg.lambda_min <= lam <= cfg.lambda_max:
        raise ParameterError(f"lam={lam!r} outside [{cfg.lambda_min}, {cfg.lambda_max}]")
    norms = _norm_factors(cfg.spec, cfg.linearity, cfg.normalization, lam, cache)
    if cfg.normalization is Normalization.EXACT and norms[lam] == 0.0:
        warnings.warn(f"empty sphere at lam={lam}: average defined as 0", EmptySphereWarning)
        return GridFunction(cfg.spec.dim, {})
    return _evaluate(fs, cfg.spec.degree, lam, lambda profs: _fold(profs)[:, lam] / norms[lam])


def multilinear_maximal(fs: list[GridFunction], cfg: OperatorConfig,
                        cache: TableCache | None = None) -> GridFunction:
    """sup over lam in [lambda_min, lambda_max] of |T_lam(f_1..f_l)|."""
    _validate(fs, cfg.spec, cfg.lambda_max, cfg.linearity)
    norms = _norm_factors(cfg.spec, cfg.linearity, cfg.normalization, cfg.lambda_max, cache)
    levels = [lam for lam in range(cfg.lambda_min, cfg.lambda_max + 1) if norms[lam] != 0.0]
    if not levels:
        return GridFunction(cfg.spec.dim, {})
    return _evaluate(
        fs, cfg.spec.degree, cfg.lambda_max,
        lambda profs: (np.abs(_fold(profs)[:, levels]) / norms[levels]).max(axis=1),
    )


def hl_maximal(f: GridFunction, spec: SphereSpec, lambda_max: int) -> GridFunction:
    """Discrete Hardy-Littlewood maximal function over k-balls:

    M(f)(x) = max_{1 <= lam <= lambda_max} lam^(-d/k) * sum_{|u|^k <= lam} |f(x-u)|.
    """
    _validate([f], spec, lambda_max)
    weights = np.arange(1, lambda_max + 1, dtype=np.float64) ** (-spec.dim / spec.degree)
    return _evaluate(
        [f], spec.degree, lambda_max,
        lambda profs: (np.cumsum(profs[0], axis=1)[:, 1:] * weights).max(axis=1),
        absolute=True,
    )


def linear_spherical_maximal(g: GridFunction, spec: SphereSpec, lambda_max: int) -> GridFunction:
    """Discrete linear spherical maximal function:

    S(g)(x) = max_{1 <= mu <= lambda_max} mu^(-(d/k - 1)) * |G_mu(x)|
    with G_mu the slice levels of g.
    """
    _validate([g], spec, lambda_max)
    weights = np.arange(1, lambda_max + 1, dtype=np.float64) ** (-(spec.dim / spec.degree - 1.0))
    return _evaluate(
        [g], spec.degree, lambda_max,
        lambda profs: (np.abs(profs[0][:, 1:]) * weights).max(axis=1),
    )


def domination_check_multilinear(
    fs: list[GridFunction],
    spec: SphereSpec,
    lambda_max: int,
) -> DominationReport:
    """Check sup_lam T_lam(f_1..f_l) <= M(f_1) * S~^(l-1)(f_2..f_l) pointwise.

    Asymptotic normalization throughout; inputs must be nonnegative.  The
    majorant's spherical factor includes its level-zero term (see module
    docstring).  Returns the maximum of LHS - RHS over the evaluation grid,
    which for a correct implementation is <= float tolerance.

    Pruned rows (some input unreachable within lambda_max) have LHS = 0 and
    RHS = 0 exactly, hence violation 0; they are counted, not recomputed.
    """
    if len(fs) < 2:
        raise ParameterError("domination check needs at least two input functions")
    _validate(fs, spec, lambda_max, nonnegative=True)
    if (len(fs) - 1) * spec.dim < spec.degree:
        raise ParameterError(
            f"domination needs (linearity-1)*dim >= degree; got "
            f"({len(fs)} - 1) * {spec.dim} < {spec.degree} (the spherical "
            "normalization is not monotone there and the bound fails)"
        )
    d, k, ell = spec.dim, spec.degree, len(fs)
    full_norm = _norm_factors(spec, ell, Normalization.ASYMPTOTIC, lambda_max, None)
    rest_norm = _norm_factors(spec, ell - 1, Normalization.ASYMPTOTIC, lambda_max, None)
    ball_w = np.arange(1, lambda_max + 1, dtype=np.float64) ** (-d / k)

    worst = -math.inf
    worst_pt: tuple[int, ...] | None = None
    pruned_pt: tuple[int, ...] | None = None
    checked = 0
    for pts, idx, profs in _live_profiles(fs, k, lambda_max):
        checked += len(pts)
        if pruned_pt is None and len(idx) < len(pts):
            pruned = np.setdiff1d(np.arange(len(pts)), idx, assume_unique=True)
            pruned_pt = tuple(int(c) for c in pts[pruned[0]])
        if len(idx) == 0:
            continue
        a, rest = profs[0], _fold(profs[1:])
        joint = _level_convolve(a, rest)
        lhs = (joint[:, 1:] / full_norm[1:]).max(axis=1)
        m_side = (np.cumsum(a, axis=1)[:, 1:] * ball_w).max(axis=1)
        s_side = (rest / rest_norm).max(axis=1)   # includes the level-zero term
        viol = lhs - m_side * s_side
        i = int(np.argmax(viol))
        if viol[i] > worst:
            worst = float(viol[i])
            worst_pt = tuple(int(c) for c in pts[idx[i]])
    if pruned_pt is not None and 0.0 > worst:
        worst, worst_pt = 0.0, pruned_pt  # pruned rows attain LHS - RHS = 0
    if worst == -math.inf:
        worst, worst_pt = 0.0, None
    return DominationReport(worst, worst_pt, lambda_max, checked)


def domination_check(
    f: GridFunction,
    g: GridFunction,
    spec: SphereSpec,
    lambda_max: int,
) -> DominationReport:
    """Bilinear domination check: sup_lam T_lam(f, g) <= M(f) * S~(g)."""
    return domination_check_multilinear([f, g], spec, lambda_max)
