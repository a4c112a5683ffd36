"""Independent reference computations for the benchmark's output checks.

None of these share code with spherelab: counts come from a numpy
shift-and-add recursion over int64 (exact while entries stay below 2^63,
which the callers' sizes guarantee), and operator values at one point come
from that point's level profile built directly from the input supports.
They run outside every timed region.
"""

from __future__ import annotations

import math

import numpy as np


def iroot(m: int, k: int) -> int:
    """Largest r >= 0 with r**k <= m."""
    r = int(round(m ** (1.0 / k)))
    while r > 0 and r**k > m:
        r -= 1
    while (r + 1) ** k <= m:
        r += 1
    return r


def box_rows(fs, radius: int) -> int:
    """Points in the intersection of the supports' bounding boxes dilated by radius."""
    lo = hi = None
    for f in fs:
        if f.bbox is None:
            return 0
        flo = [c - radius for c in f.bbox[0]]
        fhi = [c + radius for c in f.bbox[1]]
        lo = flo if lo is None else [max(a, b) for a, b in zip(lo, flo)]
        hi = fhi if hi is None else [min(a, b) for a, b in zip(hi, fhi)]
    return math.prod(max(0, h - l + 1) for l, h in zip(lo, hi))


def rep_counts_dp(dim: int, degree: int, lam_max: int) -> np.ndarray:
    """r_{dim,degree}(mu) for mu = 0..lam_max by adding one coordinate at a time."""
    steps = [y**degree for y in range(1, iroot(lam_max, degree) + 1)]
    table = np.zeros(lam_max + 1, dtype=np.int64)
    table[0] = 1
    for _ in range(dim):
        nxt = table.copy()  # coordinate 0
        for s in steps:
            nxt[s:] += 2 * table[: lam_max + 1 - s]  # coordinate +-y
        table = nxt
    return table


def convolve_at(a, b, mu: int) -> int:
    """sum_nu a[nu] * b[mu - nu] in Python integers."""
    return sum(int(a[nu]) * int(b[mu - nu]) for nu in range(mu + 1))


def level_profile(x, f, degree: int, lam_max: int, *, absolute: bool = False) -> np.ndarray:
    """A(nu) = sum of f(s) over support points s with |x - s|^k = nu, nu <= lam_max."""
    items = sorted(f.values.items())
    if not items:
        return np.zeros(lam_max + 1)
    pts = np.array([p for p, _ in items], dtype=np.int64)
    vals = np.array([v for _, v in items], dtype=np.float64)
    lev = (np.abs(np.asarray(x, dtype=np.int64)[None, :] - pts) ** degree).sum(axis=1)
    keep = lev <= lam_max
    w = np.abs(vals[keep]) if absolute else vals[keep]
    return np.bincount(lev[keep], weights=w, minlength=lam_max + 1)


def joint_profile(x, fs, degree: int, lam_max: int) -> np.ndarray:
    """P(lam) = sum over the joint sphere of f_1(x-u_1)...f_l(x-u_l)."""
    prof = level_profile(x, fs[0], degree, lam_max)
    for f in fs[1:]:
        prof = np.convolve(prof, level_profile(x, f, degree, lam_max))[: lam_max + 1]
    return prof


def norms(dim: int, degree: int, linearity: int, lam_max: int, exact: bool) -> np.ndarray:
    """Normalization N(lam) (exact joint count) or lam^(l*d/k - 1); index 0 unused."""
    if exact:
        return rep_counts_dp(dim * linearity, degree, lam_max).astype(np.float64)
    lam = np.arange(lam_max + 1, dtype=np.float64)
    lam[0] = 1.0
    return lam ** (linearity * dim / degree - 1.0)


def multilinear_maximal_at(x, fs, degree: int, lam_min: int, lam_max: int, exact: bool) -> float:
    dim = fs[0].dim
    prof = joint_profile(x, fs, degree, lam_max)
    norm = norms(dim, degree, len(fs), lam_max, exact)
    vals = [abs(prof[lam]) / norm[lam] for lam in range(lam_min, lam_max + 1) if norm[lam] != 0.0]
    return max(vals, default=0.0)


def multilinear_average_at(x, fs, degree: int, lam: int, exact: bool) -> float:
    norm = norms(fs[0].dim, degree, len(fs), lam, exact)[lam]
    return joint_profile(x, fs, degree, lam)[lam] / norm if norm else 0.0


def hl_maximal_at(x, f, degree: int, lam_max: int) -> float:
    cum = np.cumsum(level_profile(x, f, degree, lam_max, absolute=True))
    lam = np.arange(1, lam_max + 1, dtype=np.float64)
    return float((cum[1:] * lam ** (-f.dim / degree)).max())


def spherical_maximal_at(x, g, degree: int, lam_max: int) -> float:
    prof = level_profile(x, g, degree, lam_max)
    mu = np.arange(1, lam_max + 1, dtype=np.float64)
    return float((np.abs(prof[1:]) * mu ** (-(g.dim / degree - 1.0))).max())


def grid_sample(out, count: int = 24):
    """Support size, max |value| and every n-th support point of a GridFunction."""
    items = out.items_sorted()
    step = max(1, len(items) // count)
    return {
        "size": len(items),
        "scale": max((abs(v) for _, v in items), default=0.0),
        "points": items[::step][:count],
    }


def compare_points(sample, reference, tol: float) -> str | None:
    """First sampled point whose value differs from reference(x) beyond tol * scale."""
    scale = sample["scale"] or 1.0
    for x, got in sample["points"]:
        want = reference(x)
        if abs(got - want) > tol * scale:
            return f"value at {x}: got {got!r}, reference {want!r}"
    return None
