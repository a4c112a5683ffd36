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
Its rows lie in the common box: the sup-norm dilations (radius
floor(Lam^(1/k))) of the supports' bounding boxes, intersected across
inputs.  When that box spans more than one chunk and the smallest support
S_0 plus the k-ball B = {u : |u|^k <= Lam} has no more points than the box
(and the support budget), only the rows of S_0 + B are walked: any other
row has A_0 identically zero.  Otherwise the whole box is walked.  Either
way rows come in lexicographic order, in chunks of at most _CHUNK_ROWS rows
and _CHUNK_CELLS profile cells; a single row above the cell budget raises
BudgetError.  Rows whose k-distance to some bounding box exceeds Lam are
dropped, then rows where some profile is identically zero; every operator
is zero there, so pruning never changes a value.  Profiles are scattered
from the support in fixed-size blocks whose sums are added in support
order, and every later step works row by row, so the summation order of
every value depends on the support alone: outputs are byte-identical for
any chunk size and either row source.

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

from .counts import DEFAULT_CACHE, SphereSpec, _ball_offsets, kth_root_floor
from .errors import BudgetError, EmptySphereWarning, ParameterError
from .grids import DEFAULT_SUPPORT_BUDGET, GridFunction
from .reports import DominationReport

_CHUNK_ROWS = 1 << 13       # rows per grid chunk
_CHUNK_CELLS = 1 << 18      # cells per chunk (rows x levels) and per scatter slice: bounds working memory
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


def _common_grid_box(fs: list[GridFunction], radius: int) -> tuple[np.ndarray, tuple[int, ...]] | None:
    """(lower corner, shape) of the intersection of each support bbox dilated by radius in sup-norm."""
    if any(f.bbox is None for f in fs):
        return None
    lo = [max(c) - radius for c in zip(*(f.bbox[0] for f in fs))]
    hi = [min(c) + radius for c in zip(*(f.bbox[1] for f in fs))]
    if any(a > b for a, b in zip(lo, hi)):
        return None
    return np.array(lo, dtype=np.int64), tuple(b - a + 1 for a, b in zip(lo, hi))


def _candidate_rows(sup_pts: np.ndarray, offsets: np.ndarray, lo: np.ndarray, shape) -> np.ndarray:
    """Sorted distinct flat box indices of the points s + u inside the box.

    s runs over the rows of sup_pts, u over the columns of offsets.
    """
    block = max(1, _CHUNK_CELLS // offsets.shape[1])
    cand = np.empty(len(sup_pts) * offsets.shape[1], dtype=np.int64)
    end = 0
    for s in range(0, len(sup_pts), block):
        sup = sup_pts[s : s + block]
        flat = np.zeros((len(sup), offsets.shape[1]), dtype=np.int64)
        inside = np.ones(flat.shape, dtype=bool)
        for axis, size in enumerate(shape):
            coord = sup[:, axis, None] + (offsets[axis] - lo[axis])
            inside &= (coord >= 0) & (coord < size)
            flat *= size
            flat += coord
        flat = flat[inside]
        cand[end : end + len(flat)] = flat
        end += len(flat)
    cand = cand[:end]
    cand.sort()
    first = np.ones(end, dtype=bool)
    first[1:] = cand[1:] != cand[:-1]
    return cand[first]


def _row_chunks(lo: np.ndarray, shape, sup_pts: np.ndarray, degree: int, lam_max: int):
    """Yield sorted flat box indices of the rows to evaluate, one chunk at a time.

    sup_pts is the smallest support.  Its dilation by the k-ball holds every
    row where that input's profile can be nonzero; it is walked instead of
    the box when the box spans several chunks and the dilation is no larger
    than the box or the support budget.  A box of 2^63 rows or more, whose
    row indices do not fit int64, raises BudgetError.
    """
    total, rows = math.prod(shape), min(_CHUNK_ROWS, _CHUNK_CELLS // (lam_max + 1))
    if total >= 1 << 63:
        raise BudgetError(f"an evaluation box of {total} rows exceeds the int64 row index range")
    if rows == 0:
        raise BudgetError(
            f"one row of {lam_max + 1} levels exceeds the chunk budget of {_CHUNK_CELLS} cells"
        )
    if total > rows:
        dim = len(shape)
        ball = sum(DEFAULT_CACHE.table(SphereSpec(dim, degree), lam_max).counts[: lam_max + 1])
        if len(sup_pts) * ball <= min(total, DEFAULT_SUPPORT_BUDGET):
            cand = _candidate_rows(sup_pts, _ball_offsets(dim, degree, lam_max)[0], lo, shape)
            for start in range(0, len(cand), rows):
                yield cand[start : start + rows]
            return
    for start in range(0, total, rows):
        yield np.arange(start, min(start + rows, total), dtype=np.int64)


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

    Each block of _SUPPORT_BLOCK support points scatters the rows through
    one weighted bincount, and the block sums are added in support order.
    So the summation order of a row is fixed by the support alone, whatever
    rows are evaluated with it.  Rows are scattered in slices of at most
    _CHUNK_CELLS (row, support point) pairs, which bounds the temporaries.
    """
    n, width = len(points), lam_max + 1
    prof = np.zeros((n, width), dtype=np.float64)
    block = min(_SUPPORT_BLOCK, len(sup_vals))
    step = max(1, _CHUNK_CELLS // block)
    lev_buf = np.empty((min(n, step), block), dtype=np.int64)
    tmp_buf = np.empty_like(lev_buf)
    for r in range(0, n, step):
        pts = points[r : r + step]
        rows = len(pts)
        row_base = np.arange(rows, dtype=np.int64)[:, None] * width
        out = prof[r : r + step].reshape(-1)
        for s in range(0, len(sup_vals), block):
            sup = sup_pts[s : s + block]          # (B, d)
            vals = sup_vals[s : s + block]        # (B,)
            lev, tmp = lev_buf[:rows, : len(vals)], tmp_buf[:rows, : len(vals)]
            for axis in range(points.shape[1]):
                term = tmp if axis else lev
                np.subtract(pts[:, axis, None], sup[None, :, axis], out=term)
                if degree == 2:
                    np.multiply(term, term, out=term)
                else:
                    np.power(np.abs(term, out=term), degree, out=term)
                if axis:
                    lev += tmp
            mask = lev <= lam_max
            idx = np.add(lev, row_base, out=tmp)[mask]
            weights = np.broadcast_to(vals[None, :], mask.shape)[mask]
            out += np.bincount(idx, weights=weights, minlength=rows * width)
    return prof


def _level_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise truncated convolution along the level axis.

    A level of a that is nonzero in fewer than a quarter of the rows updates
    only those rows.  The terms skipped are exact zeros added to sums that
    are never -0.0, so every value is the same as in the dense update.
    """
    n, width = a.shape
    out = np.zeros_like(a)
    nz = a != 0
    for mu, count in enumerate(np.count_nonzero(nz, axis=0).tolist()):
        if count == 0:
            continue
        if 4 * count < n:
            rows = np.flatnonzero(nz[:, mu])
            out[rows, mu:] += a[rows, mu][:, None] * b[rows, : width - mu]
        else:
            out[:, mu:] += a[:, mu][:, None] * b[:, : width - mu]
    return out


def _fold(profiles: list[np.ndarray]) -> np.ndarray:
    """Left fold of level convolutions, ((A_1 * A_2) * A_3) * ..."""
    out = profiles[0]
    for p in profiles[1:]:
        out = _level_convolve(out, p)
    return out


def _live_profiles(fs: list[GridFunction], degree: int, lam_max: int):
    """The evaluation engine: yield (points, flat, profiles) per chunk of live rows.

    Chunks cover the live rows of the common evaluation box in lexicographic
    order: those where no input's profile is identically zero.  points holds
    their coordinates, flat their indices in the box (row-major), and
    profiles[j] the levels 0..lam_max of fs[j].
    Profiles are built smallest support first, shrinking the live set as
    empty rows appear, so large supports are only scattered where needed.
    """
    box = _common_grid_box(fs, kth_root_floor(lam_max, degree))
    if box is None:
        return
    lo, shape = box
    supports = [f.arrays() for f in fs]
    order = sorted(range(len(fs)), key=lambda j: len(supports[j][1]))
    for flat in _row_chunks(lo, shape, supports[order[0]][0], degree, lam_max):
        points = np.stack(np.unravel_index(flat, shape), axis=1) + lo
        live = np.ones(len(flat), dtype=bool)
        for f in fs:
            live &= _bbox_reach_mask(points, f.bbox, degree, lam_max)
        flat, points = flat[live], points[live]
        built: dict[int, np.ndarray] = {}
        for j in order:
            if len(flat) == 0:
                break
            prof = _level_profile(points, *supports[j], degree, lam_max)
            keep = prof.any(axis=1)
            if not keep.all():
                flat, points, prof = flat[keep], points[keep], prof[keep]
                built = {jj: p[keep] for jj, p in built.items()}
            built[j] = prof
        if len(flat):
            yield points, flat, [built[j] for j in range(len(fs))]


def _evaluate(fs: list[GridFunction], degree: int, lam_max: int, reduce) -> GridFunction:
    """The function x -> reduce(profiles)(x) on the live rows, 0 elsewhere.

    BudgetError is raised before the output grows past DEFAULT_SUPPORT_BUDGET points.
    """
    values: dict[tuple[int, ...], float] = {}
    for points, _, profiles in _live_profiles(fs, degree, lam_max):
        out = reduce(profiles)
        nz = np.flatnonzero(out)
        if len(values) + len(nz) > DEFAULT_SUPPORT_BUDGET:
            raise BudgetError(
                f"operator output exceeds the support budget of {DEFAULT_SUPPORT_BUDGET} points"
            )
        values.update(zip(map(tuple, points[nz].tolist()), out[nz].tolist()))
    return GridFunction(fs[0].dim, values)


def _norm_factors(spec: SphereSpec, ell: int, normalization: Normalization, lam_max: int) -> np.ndarray:
    """norm(lam) for lam = 0..lam_max; 0 marks an empty sphere (skip)."""
    if normalization is Normalization.ASYMPTOTIC:
        expo = ell * spec.dim / spec.degree - 1.0
        lam = np.arange(lam_max + 1, dtype=np.float64)
        lam[0] = 1.0  # level zero uses unit normalization
        return lam**expo
    joint = SphereSpec(dim=spec.dim * ell, degree=spec.degree)
    tab = DEFAULT_CACHE.table(joint, lam_max)
    return np.array([float(c) for c in tab.counts[: lam_max + 1]], dtype=np.float64)


def multilinear_average(fs: list[GridFunction], lam: int, cfg: OperatorConfig) -> GridFunction:
    """Signed l-linear spherical average at a single level lam.

    Exact normalization at an empty sphere (N(lam) = 0) returns the zero
    function and emits EmptySphereWarning; a supremum scan must skip such
    levels rather than abort.
    """
    _validate(fs, cfg.spec, cfg.lambda_max, cfg.linearity)
    if not isinstance(lam, int) or not cfg.lambda_min <= lam <= cfg.lambda_max:
        raise ParameterError(f"lam={lam!r} outside [{cfg.lambda_min}, {cfg.lambda_max}]")
    norms = _norm_factors(cfg.spec, cfg.linearity, cfg.normalization, lam)
    if cfg.normalization is Normalization.EXACT and norms[lam] == 0.0:
        warnings.warn(f"empty sphere at lam={lam}: average defined as 0", EmptySphereWarning)
        return GridFunction(cfg.spec.dim, {})
    return _evaluate(fs, cfg.spec.degree, lam, lambda profs: _fold(profs)[:, lam] / norms[lam])


def multilinear_maximal(fs: list[GridFunction], cfg: OperatorConfig) -> GridFunction:
    """sup over lam in [lambda_min, lambda_max] of |T_lam(f_1..f_l)|."""
    _validate(fs, cfg.spec, cfg.lambda_max, cfg.linearity)
    norms = _norm_factors(cfg.spec, cfg.linearity, cfg.normalization, cfg.lambda_max)
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
        [GridFunction(f.dim, {p: abs(v) for p, v in f.values.items()})], spec.degree, lambda_max,
        lambda profs: (np.cumsum(profs[0], axis=1)[:, 1:] * weights).max(axis=1),
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
    full_norm = _norm_factors(spec, ell, Normalization.ASYMPTOTIC, lambda_max)
    rest_norm = _norm_factors(spec, ell - 1, Normalization.ASYMPTOTIC, lambda_max)
    ball_w = np.arange(1, lambda_max + 1, dtype=np.float64) ** (-d / k)

    worst = -math.inf
    worst_pt: tuple[int, ...] | None = None
    box = _common_grid_box(fs, kth_root_floor(lambda_max, k))
    checked = 0 if box is None else math.prod(box[1])
    next_row = 0        # the box rows before it are all live
    pruned: int | None = None
    for pts, flat, profs in _live_profiles(fs, k, lambda_max):
        if pruned is None:
            gaps = np.flatnonzero(flat != np.arange(next_row, next_row + len(flat)))
            if len(gaps):
                pruned = next_row + int(gaps[0])
            else:
                next_row += len(flat)
        a, rest = profs[0], _fold(profs[1:])
        joint = _level_convolve(a, rest)
        lhs = (joint[:, 1:] / full_norm[1:]).max(axis=1)
        m_side = (np.cumsum(a, axis=1)[:, 1:] * ball_w).max(axis=1)
        s_side = (rest / rest_norm).max(axis=1)   # includes the level-zero term
        viol = lhs - m_side * s_side
        i = int(np.argmax(viol))
        if viol[i] > worst:
            worst = float(viol[i])
            worst_pt = tuple(int(c) for c in pts[i])
    if pruned is None and next_row < checked:
        pruned = next_row
    if pruned is not None and 0.0 > worst:  # pruned rows attain LHS - RHS = 0
        lo, shape = box
        worst, worst_pt = 0.0, tuple(int(c) for c in np.unravel_index(pruned, shape) + lo)
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
