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

gives T_lam(x) = P(x, lam) / norm(lam).  One engine, _engine, builds the
profiles for every operator, and each operator is a reduction of them.
Its rows lie in the common box (the supports' bounding boxes dilated by
floor(Lam^(1/k)), intersected), walked in lexicographic order at most a
chunk at a time, over the segments (rows sharing a coordinate prefix) the
smallest support reaches (_Stencil.walk) or the whole box (_engine).  Each
profile, smallest support first, is pushed through the k-ball or pulled onto
the rows still live, and rows where one is zero are dropped.  Each profile
cell is the sum of its pairs in support order from +0.0, however it is
built, and later steps work row by row, so outputs are byte-identical for
any chunking.  M and S read only the levels where some row of the chunk has
mass: another weighs +0.0 in S and cannot raise M (see _hl_reduction).

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
import itertools
import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from . import grids
from .counts import DEFAULT_CACHE, SphereSpec, _ball_offsets, kth_root_floor
from .errors import EmptySphereWarning, ParameterError
from .grids import GridFunction, _as_int, _or_inf, _within_budget
from .reports import DominationReport

_CHUNK_ROWS = 1 << 13       # rows per grid chunk
_CHUNK_CELLS = 1 << 18      # cells per chunk (levels x rows): bounds working memory
_SLICE = 1 << 15            # pairs per scatter slice: its temporaries stay in cache


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
        for name, low in (("linearity", 1), ("lambda_max", None), ("lambda_min", None)):
            object.__setattr__(self, name, _as_int(getattr(self, name), name, low))
        if not 1 <= self.lambda_min <= self.lambda_max:
            raise ParameterError(
                f"need 1 <= lambda_min <= lambda_max, got [{self.lambda_min}, {self.lambda_max}]"
            )
        if not isinstance(self.normalization, Normalization):
            raise ParameterError("normalization must be a Normalization value")


def _validate(fs: list[GridFunction], spec: SphereSpec, lambda_max: int, linearity: int | None = None,
              domination: bool = False, level: tuple | None = None) -> int:
    """The checks every operator starts with; returns top, the largest level it evaluates:
    multilinear_average's level = (lam, lambda_min), else lambda_max.  After the parameter checks,
    levels 0..top of one row must fit a chunk, refused before any array of levels is built."""
    if domination and len(fs) < 2:
        raise ParameterError("domination check needs at least two input functions")
    if linearity is not None and len(fs) != linearity:
        raise ParameterError(f"expected {linearity} input functions, got {len(fs)}")
    top = lambda_max = _as_int(lambda_max, "lambda_max", 1)
    for i, f in enumerate(fs):
        if f.dim != spec.dim:
            raise ParameterError(f"input dimension {f.dim} != spec dimension {spec.dim}")
        if domination and (f.arrays()[1] < 0.0).any():
            raise ParameterError(f"input {i} must be nonnegative for the domination check")
    if domination and (len(fs) - 1) * spec.dim < spec.degree:
        raise ParameterError(f"domination needs (linearity-1)*dim >= degree; got ({len(fs)} - 1) * "
                             f"{spec.dim} < {spec.degree} (the spherical normalization is not "
                             "monotone there and the bound fails)")
    if level is not None:
        top, lambda_min = _as_int(level[0], "lam", None), level[1]
        if not lambda_min <= top <= lambda_max:
            raise ParameterError(f"lam={top!r} outside [{lambda_min}, {lambda_max}]")
    _within_budget(top + 1, "chunk cells of one row of levels", _CHUNK_CELLS)
    return top


class _Stencil:
    """The k-ball B = {u : |u|^k <= lam_max} as a stencil: support point s adds f(s) to cell
    (s + u, |u|^k) for every u in B.

    The box's rows fall into segments, the rows that share their first `axis` coordinates, and B
    into runs, the offsets that share theirs.  B is lexicographic, so a run is a range of B, and a
    point sends at most one run into a segment: the one whose prefix is the segment's minus the
    point's, found by searchsorted on a radix-(2r + 3) key of the prefix (r the radius).
    """

    def __init__(self, lo: np.ndarray, shape, axis: int, degree: int, lam_max: int, supports):
        offsets, levels = _ball_offsets(len(shape), degree, lam_max)
        self.radius = kth_root_floor(lam_max, degree)
        self.shape, self.axis, self.width = shape, axis, lam_max + 1
        self.size = math.prod(shape[axis:])                         # rows per segment
        self.radix = (2 * self.radius + 3) ** np.arange(axis - 1, -1, -1, dtype=np.int64)
        key = self.radix @ (offsets[:axis] + self.radius + 1)
        self.start = np.flatnonzero(np.diff(key, prepend=-1))      # the runs of B
        self.length = np.diff(self.start, append=len(key))
        self.key, self.prefix = key[self.start], offsets[:axis, self.start]
        self.tail = offsets[axis:]
        strides = np.array([math.prod(shape[i + 1 :]) for i in range(axis, len(shape))], np.int64)
        self.level, self.row = levels, strides @ self.tail      # per offset: level, row in a segment
        self.supports = []      # per input: box-relative points split at axis, their rows, values
        for pts, vals in supports:
            head, tail = np.split((pts - lo).T, [axis])
            edge = np.array(shape[axis:])[:, None] - self.radius
            near = ((tail < self.radius) | (tail >= edge)).any(axis=0)  # some pair leaves the box
            self.supports.append((head, tail, strides @ tail, near, vals))

    def pairs(self, j: int, pts: np.ndarray, run: np.ndarray, ball: np.ndarray,
              offset=0) -> np.ndarray:
        """The cell level * stride + row in the segment, plus offset[i] for pts[i], of each pair
        that points pts of input j send through their runs, in order, or -1 where the pair leaves
        the box; ball holds level * stride + row of each offset of B."""
        _, tail, base, near, _ = self.supports[j]
        k = self.length[run]
        ends = np.cumsum(k)
        idx = np.arange(ends[-1]) + np.repeat(self.start[run] - ends + k, k)
        cells = ball[idx] + np.repeat(base[pts] + offset, k)
        edge = np.flatnonzero(np.repeat(near[pts], k))
        if len(edge):
            p, u, out = np.repeat(pts, k)[edge], idx[edge], np.zeros(len(edge), dtype=bool)
            for i, size in enumerate(self.shape[self.axis :]):
                out |= (tail[i][p] + self.tail[i][u]).astype(np.uint64) >= size
            cells[edge[out]] = -1
        return cells

    def push(self, j: int, flat: np.ndarray):
        """Profile of input j on the sorted rows flat, or None where pulling them is cheaper.

        The pairs land in the slab of segments from flat's first to its last, level-major: cell
        level * (n + 1) + row of its n rows and a scratch row.  A slab of more than _CHUNK_CELLS
        rows, or of several segments that need more than _CHUNK_CELLS (segment, point) lookups,
        is pulled; one of more than _CHUNK_CELLS cells is profiled on flat's rows alone, at
        level * len(flat) + slot.  np.add.at adds the pairs in support order, in slices of about
        _SLICE.
        """
        head, _, _, near, vals = self.supports[j]
        r, width = self.radius, self.width
        first, stop = flat[0] // self.size, flat[-1] // self.size + 1
        n = (stop - first) * self.size
        if n > _CHUNK_CELLS or (stop - first > 1 and (stop - first) * len(vals) > _CHUNK_CELLS):
            return None
        at = np.array(np.unravel_index(np.arange(first, stop), self.shape[: self.axis]))
        u = np.clip(at[..., None] - head[:, None], -r - 1, r + 1)      # -r - 1, r + 1: no run
        key = np.tensordot(self.radix, u + r + 1, 1)
        run = np.minimum(np.searchsorted(self.key, key), len(self.key) - 1)
        seg, pts = np.nonzero(self.key[run] == key)                     # by segment, then point
        run = run[seg, pts]
        k = self.length[run]
        if k.sum() + 2 * k[near[pts]].sum() >= len(flat) * len(vals):
            return None     # a pushed pair costs about as much as a pulled one, three near an edge
        full = n * width <= _CHUNK_CELLS    # else slot maps slab rows to those of flat
        ball = self.level * (n + 1) + self.row      # slab cells level * (n + 1) + row; row n scratch
        if full:
            prof = np.zeros(width * (n + 1))
        else:
            slot = np.full(n + 1, len(flat))
            slot[flat - first * self.size] = np.arange(len(flat))
            prof = np.zeros(width * len(flat))
        before = np.cumsum(k) - k
        cuts = [*np.flatnonzero(np.diff(before // _SLICE, prepend=-1)).tolist(), len(pts)]
        for a, b in zip(cuts, cuts[1:]):
            cells = self.pairs(j, pts[a:b], run[a:b], ball, seg[a:b] * self.size)
            cells[cells < 0] = n        # the pairs that leave the box land in the scratch row
            add = np.repeat(vals[pts[a:b]], k[a:b])
            if not full:    # only the pairs on flat's rows, at level * len(flat) + their slot
                row = slot[cells % (n + 1)]
                hit = row < len(flat)
                cells, add = (cells // (n + 1) * len(flat) + row)[hit], add[hit]
            np.add.at(prof, cells, add)
        if full:
            return prof.reshape(width, n + 1).take(flat - first * self.size, axis=1)
        return prof.reshape(width, len(flat))

    def walk(self, j: int, rows: int):
        """Yield (flat rows, profile of input j on them or None), in order, over the segments that
        input j reaches (_engine decides when).  Segments are gathered in units of fewer
        than _SLICE pairs, and one it sends more than _SLICE // 2 pairs is a unit alone.  A unit
        of one segment, heavy or light, comes whole and unprofiled (gathering a light one reads
        slower); the others are profiled on the rows reached, `rows` at a time, by one bincount
        in support order.  j's runs into the box are found in blocks of _CHUNK_CELLS."""
        head, _, _, _, vals = self.supports[j]
        dims, width, size = self.shape[: self.axis], self.width, self.size
        ball = self.level * size + self.row        # pair cells level * size + row in the segment
        step, parts = max(1, _CHUNK_CELLS // len(self.key)), []
        for a in range(0, len(vals), step):
            seg = head[:, a : a + step, None] + self.prefix[:, None, :]
            pt, run = np.nonzero(((seg >= 0) & (seg < np.array(dims)[:, None, None])).all(axis=0))
            parts.append((np.ravel_multi_index(tuple(seg[:, pt, run]), dims), pt + a, run))
        seg, pts, run = (np.concatenate(p) for p in zip(*parts))
        order = np.argsort(seg, kind="stable")                      # by segment, then point
        seg, pts, run = seg[order], pts[order], run[order]
        first = np.flatnonzero(np.diff(seg, prepend=-1))           # each segment's first run
        pairs, half = np.add.reduceat(self.length[run], first), max(1, _SLICE // 2)
        before = np.cumsum(pairs) - pairs
        units = np.flatnonzero((pairs > half) | (np.diff(before // half, prepend=-1) != 0))
        for a, b in zip(first[units].tolist(), [*first[units[1:]].tolist(), len(seg)]):
            if seg[a] == seg[b - 1]:
                yield np.arange(seg[a] * self.size, (seg[a] + 1) * self.size), None
                continue
            cells = self.pairs(j, pts[a:b], run[a:b], ball)
            k, inside = self.length[run[a:b]], cells >= 0
            p, level = np.repeat(pts[a:b], k)[inside], cells[inside] // size
            reached = np.repeat(seg[a:b], k)[inside] * size + cells[inside] % size
            flat, slot = np.unique(reached, return_inverse=True)
            for c in range(0, len(flat), rows):
                part, m = slot // rows == c // rows, len(flat[c : c + rows])
                cell = level[part] * m + (slot[part] - c)
                prof = np.bincount(cell, vals[p[part]], minlength=width * m)
                yield flat[c : c + rows], prof.reshape(width, m)


def _level_profile(points: np.ndarray, sup_pts: np.ndarray, sup_vals: np.ndarray, degree: int,
                   lam_max: int, cap: int | None) -> np.ndarray:
    """Profile A(nu, i) = sum over the support of f(s) at level nu = |x_i - s|^k, as a
    (lam_max + 1, len(points)) array, pulled: the (row, point) pairs are taken in slices of about
    _SLICE and added by np.add.at at cell nu * len(points) + i.  Unless cap is None, each
    x_i - s_i is first clipped to [-cap, cap], cap past the k-ball's radius."""
    n, width = len(points), lam_max + 1
    prof = np.zeros(width * n)
    block = min(_SLICE, len(sup_vals))
    step = max(1, _SLICE // block)
    lev_buf = np.empty((min(n, step), block), dtype=np.int64)
    tmp_buf = np.empty_like(lev_buf)
    for r in range(0, n, step):
        pts = points[r : r + step]
        rows = len(pts)
        for s in range(0, len(sup_vals), block):
            sup = sup_pts[s : s + block]          # (B, d)
            vals = sup_vals[s : s + block]        # (B,)
            lev, tmp = lev_buf[:rows, : len(vals)], tmp_buf[:rows, : len(vals)]
            for axis in range(points.shape[1]):
                term = tmp if axis else lev
                np.subtract(pts[:, axis, None], sup[None, :, axis], out=term)
                if cap is not None:     # a difference that wrapped is clipped out of reach too
                    np.clip(term, -cap, cap, out=term)
                if degree == 2:
                    np.multiply(term, term, out=term)
                else:
                    np.power(np.abs(term, out=term), degree, out=term)
                if axis:
                    lev += tmp
            row, col = np.nonzero(lev <= lam_max)      # only these levels are multiplied
            np.add.at(prof, lev[row, col] * n + (row + r), vals[col])
    return prof.reshape(width, n)


def _level_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Truncated convolution of two (levels, rows) profiles along the level axis, row by row.

    A zero of a adds no term.  A level of a that is nonzero in fewer than a
    quarter of the rows updates only those rows, and so does every level when
    b holds a non-finite value: there the dense update would add 0 * inf =
    nan, and whether a level ran dense would depend on which rows share its
    chunk.  With b finite the terms skipped are exact zeros added to sums
    that are never -0.0, so every value is the same as in the dense update.
    """
    width, n = a.shape
    out = np.zeros_like(a)
    nz = a != 0
    sparse_only = not np.isfinite(b).all()
    for mu, count in enumerate(np.count_nonzero(nz, axis=1).tolist()):
        if count == 0:
            continue
        if 4 * count < n or sparse_only:
            rows = np.flatnonzero(nz[mu])
            out[mu:, rows] += a[mu, rows] * b[: width - mu].take(rows, axis=1)
        else:
            out[mu:] += a[mu] * b[: width - mu]
    return out


def _hl_reduction(spec: SphereSpec, lambda_max: int):
    """M's reduction: max over 1 <= lam <= lambda_max of lam^(-d/k) times the first profile's ball
    sum (>= 0), levels 0..lam.  A level >= 2 without mass keeps the sum at a weight that never
    rises, so it cannot raise the max and is not read: one pass over level 1 and those with mass."""
    weights = np.arange(1, lambda_max + 1, dtype=np.float64) ** (-spec.dim / spec.degree)
    def reduce(profs):
        best = (ball := profs[0][0] + profs[0][1]) * weights[0]
        for lam in np.flatnonzero(profs[0][2:].any(axis=1)).tolist():
            ball += profs[0][lam + 2]
            np.maximum(best, ball * weights[lam + 1], out=best)
        return best
    return reduce


def _fold(profiles: list[np.ndarray]) -> np.ndarray:
    """Left fold of level convolutions, ((A_1 * A_2) * A_3) * ..."""
    out = profiles[0]
    for p in profiles[1:]:
        out = _level_convolve(out, p)
    return out


def _engine(fs: list[GridFunction], degree: int, lam_max: int):
    """The evaluation engine: (lo, shape, live), or None when the common box is empty.  Its
    callers have passed _validate, so a row of the levels 0..lam_max fits a chunk.

    The box, corner lo, is the supports' bounding boxes dilated by floor(lam_max^(1/k)) in
    sup-norm, intersected.  live yields (points, flat, profiles) per chunk of live rows (no input's
    profile identically zero) in lexicographic order: their coordinates, their row-major indices
    in the box, and profiles[j] the profile of fs[j], a C-contiguous (lam_max + 1, len(flat))
    array.  Level-major, every reduction over the levels runs along contiguous rows; numpy
    reduces a short last axis about ten times slower.  unit profiles a unit of rows smallest
    support first, dropping empty rows as they appear, and reads only the stencil and the
    supports.  The units are the stencil's walk of the smallest support's reach when a
    stencil exists and that support has at most DEFAULT_SUPPORT_BUDGET (point, run) pairs, else
    one box walk, a segment (or without a stencil a chunk) a step, refused with BudgetError past
    DEFAULT_SUPPORT_BUDGET steps.  A box of one chunk, a k-ball past the support budget, or a run
    key past int64 builds no stencil: every profile is pulled, capping each coordinate difference
    whose k-th power could pass int64.
    """
    radius = kth_root_floor(lam_max, degree)
    if any(f.bbox is None for f in fs):
        return None
    lo = [max(c) - radius for c in zip(*(f.bbox[0] for f in fs))]
    hi = [min(c) + radius for c in zip(*(f.bbox[1] for f in fs))]
    if any(a > b for a, b in zip(lo, hi)):
        return None
    lo, shape = np.array(lo, dtype=np.int64), tuple(b - a + 1 for a, b in zip(lo, hi))
    total, rows = math.prod(shape), min(_CHUNK_ROWS, _CHUNK_CELLS // (lam_max + 1))
    _within_budget(total, "evaluation box rows (int64 row indices)", (1 << 63) - 1)
    supports = [f.arrays() for f in fs]
    spans = [max(b - a for a, b in zip(*f.bbox)) + radius for f in fs]    # >= every |x_i - s_i|
    caps = [radius + 1 if len(shape) * s**degree >= 1 << 63 else None for s in spans]
    order = sorted(range(len(fs)), key=lambda j: len(supports[j][1]))
    axis = next(a for a in range(len(shape) + 1) if math.prod(shape[a:]) <= rows)
    stencil = None
    if total > rows and (2 * radius + 3) ** axis < 1 << 62:
        ball = DEFAULT_CACHE.table(SphereSpec(len(shape), degree), lam_max).counts[: lam_max + 1]
        if sum(ball) <= min(total, grids.DEFAULT_SUPPORT_BUDGET):
            stencil = _Stencil(lo, shape, axis, degree, lam_max, supports)
    if stencil is None or (len(supports[order[0]][1]) * len(stencil.key)
                           > grids.DEFAULT_SUPPORT_BUDGET):
        step = rows if stencil is None else stencil.size     # rows per step of the box walk
        _within_budget(-(-total // step), "box walk steps")
        units = ((np.arange(a, min(a + step, total)), None) for a in range(0, total, step))
    else:
        units = stencil.walk(order[0], rows)

    def unit(flat, smallest):
        points, profiles = None, [None] * len(fs)   # points: flat's coordinates, once needed
        for j in order:
            prof = smallest if j == order[0] else None
            if prof is None and stencil is not None:
                prof = stencil.push(j, flat)
            if prof is None:
                if points is None:
                    points = np.stack(np.unravel_index(flat, shape), axis=1) + lo
                prof = _level_profile(points, *supports[j], degree, lam_max, caps[j])
            keep = prof.any(axis=0)
            if not keep.all():
                if not keep.any():
                    return None
                # compress stays C-contiguous; prof[:, keep] would copy in F order
                flat, prof = flat[keep], prof.compress(keep, axis=1)
                profiles = [p if p is None else p.compress(keep, axis=1) for p in profiles]
                points = None if points is None else points[keep]
            profiles[j] = prof
        if points is None:
            points = np.stack(np.unravel_index(flat, shape), axis=1) + lo
        return points, flat, profiles

    return lo, shape, filter(None, itertools.starmap(unit, units))


def _evaluate(fs: list[GridFunction], degree: int, lam_max: int, reduce) -> GridFunction:
    """The function x -> reduce(profiles)(x) on the live rows, 0 elsewhere.

    BudgetError is raised before the output grows past DEFAULT_SUPPORT_BUDGET points.
    """
    dim = fs[0].dim
    pts, vals = [np.empty((0, dim), dtype=np.int64)], [np.empty(0)]
    size = 0
    engine = _engine(fs, degree, lam_max)
    with np.errstate(over="ignore", invalid="ignore"):  # _from_arrays refuses a non-finite value
        for points, _, profiles in engine[2] if engine else ():
            out = reduce(profiles)
            nz = np.flatnonzero(out)
            size += len(nz)
            _within_budget(size, "operator output points")
            pts.append(points[nz])
            vals.append(out[nz])
    return GridFunction._from_arrays(dim, np.concatenate(pts), np.concatenate(vals))


def _norm_factors(spec: SphereSpec, ell: int, normalization: Normalization, lam_max: int):
    """norm(lam) for lam = 0..lam_max as a float64 array; 0 marks an empty sphere (skip).  An exact
    count past the float range is refused with BudgetError."""
    if normalization is Normalization.ASYMPTOTIC:
        expo = ell * spec.dim / spec.degree - 1.0
        lam = np.arange(lam_max + 1, dtype=np.float64)
        lam[0] = 1.0  # level zero uses unit normalization
        return lam**expo
    joint = SphereSpec(dim=spec.dim * ell, degree=spec.degree)
    counts = DEFAULT_CACHE.table(joint, lam_max).counts[: lam_max + 1]
    _within_budget(_or_inf(float, max(counts)), f"joint count in Z^{joint.dim}", sys.float_info.max)
    return np.array([float(c) for c in counts], dtype=np.float64)


def multilinear_average(fs: list[GridFunction], lam: int, cfg: OperatorConfig) -> GridFunction:
    """Signed l-linear spherical average at a single level lam.

    Exact normalization at an empty sphere (N(lam) = 0) returns the zero
    function and emits EmptySphereWarning; a supremum scan must skip such
    levels rather than abort.  A lam past _validate's level rule is refused
    with BudgetError first, even where the average would be zero.
    """
    lam = _validate(fs, cfg.spec, cfg.lambda_max, cfg.linearity, level=(lam, cfg.lambda_min))
    norms = _norm_factors(cfg.spec, cfg.linearity, cfg.normalization, lam)
    if cfg.normalization is Normalization.EXACT and norms[lam] == 0.0:
        warnings.warn(f"empty sphere at lam={lam}: average defined as 0", EmptySphereWarning)
        return GridFunction(cfg.spec.dim, {})
    return _evaluate(fs, cfg.spec.degree, lam, lambda profs: _fold(profs)[lam] / norms[lam])


def multilinear_maximal(fs: list[GridFunction], cfg: OperatorConfig) -> GridFunction:
    """sup over lam in [lambda_min, lambda_max] of |T_lam(f_1..f_l)|."""
    _validate(fs, cfg.spec, cfg.lambda_max, cfg.linearity)
    norms = _norm_factors(cfg.spec, cfg.linearity, cfg.normalization, cfg.lambda_max)
    levels = [lam for lam in range(cfg.lambda_min, cfg.lambda_max + 1) if norms[lam] != 0.0]
    if not levels:
        return GridFunction(cfg.spec.dim, {})
    return _evaluate(fs, cfg.spec.degree, cfg.lambda_max,
                     lambda profs: (np.abs(_fold(profs)[levels]) / norms[levels, None]).max(axis=0))


def hl_maximal(f: GridFunction, spec: SphereSpec, lambda_max: int) -> GridFunction:
    """Discrete Hardy-Littlewood maximal function over k-balls:

    M(f)(x) = max_{1 <= lam <= lambda_max} lam^(-d/k) * sum_{|u|^k <= lam} |f(x-u)|.
    """
    lambda_max = _validate([f], spec, lambda_max)
    pts, vals = f.arrays()
    return _evaluate(
        [GridFunction._from_arrays(f.dim, pts, np.abs(vals))], spec.degree, lambda_max,
        _hl_reduction(spec, lambda_max),
    )


def linear_spherical_maximal(g: GridFunction, spec: SphereSpec, lambda_max: int) -> GridFunction:
    """Discrete linear spherical maximal function:

    S(g)(x) = max_{1 <= mu <= lambda_max} mu^(-(d/k - 1)) * |G_mu(x)|
    with G_mu the slice levels of g.
    """
    lambda_max = _validate([g], spec, lambda_max)
    weights = np.arange(1, lambda_max + 1, dtype=np.float64) ** (-(spec.dim / spec.degree - 1.0))
    def reduce(profs):      # the levels without mass weigh +0.0 and are not read
        best = np.zeros(profs[0].shape[1])
        for mu in np.flatnonzero(profs[0][1:].any(axis=1)).tolist():
            np.maximum(best, np.abs(profs[0][mu + 1]) * weights[mu], out=best)
        return best
    return _evaluate([g], spec.degree, lambda_max, reduce)


def domination_check_multilinear(fs: list[GridFunction], spec: SphereSpec,
                                 lambda_max: int) -> DominationReport:
    """Check sup_lam T_lam(f_1..f_l) <= M(f_1) * S~^(l-1)(f_2..f_l) pointwise.

    Asymptotic normalization throughout; inputs must be nonnegative.  The
    majorant's spherical factor includes its level-zero term (see module
    docstring).  Returns the maximum of LHS - RHS over the evaluation grid,
    which for a correct implementation is <= float tolerance.

    Pruned rows (some input unreachable within lambda_max) have LHS = 0 and
    RHS = 0 exactly, hence violation 0; they are counted, not recomputed.
    ParameterError names the first row, in row order, whose LHS or majorant
    overflows to a non-finite value.
    """
    lambda_max = _validate(fs, spec, lambda_max, domination=True)
    full_norm = _norm_factors(spec, len(fs), Normalization.ASYMPTOTIC, lambda_max)
    rest_norm = _norm_factors(spec, len(fs) - 1, Normalization.ASYMPTOTIC, lambda_max)
    m_reduce = _hl_reduction(spec, lambda_max)

    engine = _engine(fs, spec.degree, lambda_max)
    if engine is None:
        return DominationReport(0.0, None, lambda_max, 0)
    lo, shape, chunks = engine
    checked = math.prod(shape)
    worst = -math.inf
    worst_pt: tuple[int, ...] | None = None
    live = 0        # the box rows before it are all live: flat rises across the chunks
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite side is refused below
        for pts, flat, profs in chunks:
            live += int(np.count_nonzero(flat == np.arange(live, live + len(flat))))
            a, rest = profs[0], _fold(profs[1:])
            joint = _level_convolve(a, rest)
            lhs = (joint[1:] / full_norm[1:, None]).max(axis=0)
            m_side = m_reduce(profs)
            s_side = (rest / rest_norm[:, None]).max(axis=0)   # includes the level-zero term
            viol = lhs - m_side * s_side
            bad = ~np.isfinite(viol)        # both sides are >= 0: only a non-finite side
            if bad.any():
                i = int(np.argmax(bad))
                m, s = float(m_side[i]), float(s_side[i])
                majorant = f"{m!r} * {s!r}" if math.isnan(m * s) else repr(m * s)  # inf * 0.0
                raise ParameterError(f"the domination sides at {tuple(pts[i].tolist())!r} must be "
                                     f"finite, got LHS {float(lhs[i])!r} and majorant {majorant}")
            i = int(np.argmax(viol))
            if viol[i] > worst:
                worst = float(viol[i])
                worst_pt = tuple(int(c) for c in pts[i])
    if live < checked and 0.0 > worst:  # the pruned row live attains LHS - RHS = 0
        worst, worst_pt = 0.0, tuple(int(c) for c in np.unravel_index(live, shape) + lo)
    return DominationReport(worst, worst_pt, lambda_max, checked)


def domination_check(
    f: GridFunction,
    g: GridFunction,
    spec: SphereSpec,
    lambda_max: int,
) -> DominationReport:
    """Bilinear domination check: sup_lam T_lam(f, g) <= M(f) * S~(g)."""
    return domination_check_multilinear([f, g], spec, lambda_max)
