import collections
import itertools
import math
import random
import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from spherelab import (
    AnalysisError,
    BudgetError,
    Normalization,
    OperatorConfig,
    ParameterError,
    SphereSpec,
    WitnessSpec,
    critical_r,
    decay_fit,
    make_box_indicator,
    make_delta,
    multilinear_maximal,
    p0_bound,
    partial_norm_scan,
    r0_bound,
    region_classify,
    rep_counts,
    witness_value,
    witness_values,
)

from spherelab import grids
from spherelab.sharpness import _BLOCK_LEVELS

from oracles import brute_witness

W5 = WitnessSpec(dim=5, degree=2, linearity=2, box_radius=1)


def test_critical_r_values():
    assert critical_r(5, 2, 2) == Fraction(5, 8)
    assert critical_r(3, 2, 2) == Fraction(3, 4)
    assert critical_r(5, 3, 2) == Fraction(5, 7)


def test_critical_r_degree_two_formula():
    for d in range(3, 9):
        for ell in range(2, 5):
            assert critical_r(d, 2, ell) == Fraction(d, ell * d - 2)


def test_critical_r_rejects_degenerate():
    with pytest.raises(ParameterError):
        critical_r(1, 2, 2)  # l*d = k
    with pytest.raises(ParameterError):
        critical_r(1, 3, 2)


def test_r0_examples():
    assert r0_bound(Fraction(1, 2), 2) == Fraction(3, 5)
    assert r0_bound(0, 2) == Fraction(2, 3)
    # large delta0 limit for linearity 2 is 1/2
    big = r0_bound(Fraction(10**9), 2)
    assert abs(float(big) - 0.5) < 1e-8
    with pytest.raises(ParameterError):
        r0_bound(-1, 2)


def test_p0_examples():
    assert p0_bound(0, 5, 3) == Fraction(5, 2)
    assert p0_bound(Fraction(1, 2), 5, 2) == Fraction(5, 3)
    with pytest.raises(ParameterError):
        p0_bound(0, 3, 3)
    with pytest.raises(ParameterError):
        p0_bound(-1, 5, 2)


def test_witness_point_examples():
    # frozen from candidate enumeration: best level is 7 with 24 box points,
    # 24/7^4 = 0.009995835...
    assert witness_value((2, 0, 0, 0, 0), W5) == pytest.approx(24 / 7**4, rel=1e-14)
    assert witness_value((0, 0, 0, 0, 0), W5) == 10.0


def test_witness_matches_brute_enumeration():
    rng = random.Random(71)
    specs = [W5, WitnessSpec(3, 2, 2, 2), WitnessSpec(2, 3, 3, 1), WitnessSpec(4, 2, 3, 1)]
    for spec in specs:
        for _ in range(12):
            x = tuple(rng.randint(-12, 12) for _ in range(spec.dim))
            want = brute_witness(x, spec.dim, spec.degree, spec.linearity, spec.box_radius)
            assert witness_value(x, spec) == pytest.approx(want, rel=1e-13), (spec, x)
    # batches spanning at least three blocks of the kernel, k = 3, l = 3,
    # with the origin and negative coordinates
    for spec in (WitnessSpec(5, 3, 3, 1), WitnessSpec(5, 3, 3, 2)):
        rows = _BLOCK_LEVELS // (2 * spec.box_radius + 1) ** 5
        pts = np.random.default_rng(spec.box_radius).integers(-9, 10, size=(3 * rows + 2, 5))
        pts[rows] = 0
        vals = witness_values(pts, spec)
        singles = np.array([witness_value(tuple(row), spec) for row in pts.tolist()])
        assert vals.tobytes() == singles.tobytes(), spec
        for row, v in zip(pts.tolist(), vals):
            assert abs(v - brute_witness(row, 5, 3, 3, spec.box_radius)) <= 1e-12 * v, (spec, row)
    spec = WitnessSpec(5, 3, 3, 1)
    pts = np.random.default_rng(9).integers(-3, 4, size=(3 * (_BLOCK_LEVELS // 3**5) + 2, 5))
    pts[0] = 0
    vals = witness_values(pts, spec, exact=True)
    singles = [witness_value(tuple(row), spec, exact=True) for row in pts.tolist()]
    assert vals.tobytes() == np.array(singles).tobytes()


def _all_levels_reference(pts, spec, exact):
    """witness_values weighting every level of every row (np.unique per row)."""
    L, k = spec.box_radius, spec.degree
    w = np.array(list(itertools.product(range(-L, L + 1), repeat=spec.dim)))
    expo = spec.linearity * spec.dim / k - 1.0
    rows = []
    for x in pts:
        lev = (spec.linearity - 1) * (np.abs(x) ** k).sum() + (np.abs(x - w) ** k).sum(axis=1)
        lam, counts = np.unique(lev, return_counts=True)
        rows.append((lam[lam >= 1], counts[lam >= 1]))
    if exact:
        table = rep_counts(SphereSpec(spec.linearity * spec.dim, k), int(max(r[0][-1] for r in rows)))
    out = []
    for lam, counts in rows:
        if exact:
            weighted = counts / np.array([float(table.count(int(mu))) for mu in lam])
        else:
            weighted = counts * lam.astype(np.float64) ** -expo
        out.append(weighted.max())
    return np.array(out)


@pytest.mark.parametrize("spec, small, huge", [
    (W5, 20, [[1 << 29] * 4 + [0], [1 << 29, -(1 << 29), (1 << 29) - 1, 5, 5]]),   # expo 4
    (WitnessSpec(2, 3, 2, 1), 30, [[800_000, 900_000], [-900_000, 900_000]]),       # expo 1/3
    (WitnessSpec(1, 2, 2, 3), 200, [[1 << 30], [1 - (1 << 30)]]),                   # expo 0
    (WitnessSpec(1, 3, 2, 2), 38, [[1_200_000], [-1_000_000]]),                     # expo -1/3
], ids=lambda v: f"d{v.dim}k{v.degree}L{v.box_radius}" if isinstance(v, WitnessSpec) else None)
def test_witness_values_equal_weighting_every_level_bitwise(spec, small, huge):
    # only the levels that can hold a row's maximum are weighted, and only in asymptotic
    # mode with l*d/k > 1; the bytes must be those of weighting every level
    rng = np.random.default_rng(spec.dim * 10 + spec.degree)
    pts = np.concatenate([
        np.zeros((1, spec.dim), dtype=np.int64),
        rng.integers(-3, 4, size=(60, spec.dim)),       # repeated and zero |x_i|
        rng.integers(-small, small + 1, size=(140, spec.dim)),
    ])
    for exact in (False, True):
        got = witness_values(pts, spec, exact=exact)
        assert got.tobytes() == _all_levels_reference(pts, spec, exact).tobytes(), exact
    # levels near 2^61, where neighbouring levels share a float64
    far = np.array(huge, dtype=np.int64)
    far = np.concatenate([far, far[:1] + rng.integers(-3, 4, size=(40, spec.dim))])
    assert witness_values(far, spec).tobytes() == _all_levels_reference(far, spec, False).tobytes()


def _level_bound(spec, big):
    """witness_values' bound on every level of a batch whose largest |x_i| is big."""
    k = spec.degree
    return spec.dim * ((spec.linearity - 1) * big**k + (big + spec.box_radius) ** k)


@pytest.mark.parametrize("spec", [WitnessSpec(d, k, 2, L) for d, k in ((5, 2), (5, 3), (1, 3))
                                  for L in (1, 2)],
                         ids=lambda spec: f"d{spec.dim}k{spec.degree}L{spec.box_radius}")
def test_int32_levels_equal_int64_levels_bitwise(spec):
    # levels are int32 while the bound is below 2^31 and int64 from there on; one far point
    # lifts a batch's bound past 2^31, so the same rows are summed in int64.  In d = 1, k = 3
    # the weight rises with the level, so a row's top level, the only one past 2^31 just
    # above the edge, holds its maximum.  exact=True always takes int32: its levels stay
    # under _EXACT_LEVEL_BUDGET = 2^17, so its bound, at most d times the top level, does too.
    far = np.array([[1 << 16] + [0] * (spec.dim - 1)])
    edge = 1
    while _level_bound(spec, edge + 1) < 1 << 31:
        edge += 1
    rng = np.random.default_rng(10 * spec.box_radius + spec.degree)
    for big in (40, edge, edge + 1):        # the last two lie either side of the 2^31 edge
        pts = rng.integers(-big, big + 1, size=(40, spec.dim))
        pts[0] = 0
        pts[1] = rng.choice([-big, big], size=spec.dim)     # its top level is the bound
        assert (_level_bound(spec, big) < 1 << 31) == (big < edge + 1)
        got = witness_values(pts, spec)
        assert got.tobytes() == witness_values(np.vstack([pts, far]), spec)[:-1].tobytes(), big
        assert got.tobytes() == _all_levels_reference(pts, spec, False).tobytes(), big


def test_witness_values_peak_memory():
    # int32 levels peak near 0.85 MiB here; int64 levels would take 1.52 MiB
    pts = np.random.default_rng(2000).integers(-1000, 1001, size=(2000, 5))
    witness_values(pts[:1], W5)
    tracemalloc.start()
    try:
        witness_values(pts, W5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.2 * 2**20, peak


def test_witness_box_budget():
    # 21^7 candidate levels per point: rejected before anything is allocated
    with pytest.raises(BudgetError):
        witness_values(np.zeros((1, 7), dtype=np.int64), WitnessSpec(7, 2, 2, 10))


def test_witness_exact_level_budget():
    # largest candidate level 1000^2 + 1001^2 + 4 needs a joint table far
    # beyond the budget: rejected before any count table is built
    with pytest.raises(BudgetError):
        witness_value((1000, 0, 0, 0, 0), W5, exact=True)
    assert witness_value((1000, 0, 0, 0, 0), W5) > 0.0


def test_witness_value_point_must_be_integers():
    spec = WitnessSpec(2, 2, 2, 1)
    with pytest.raises(ParameterError):
        witness_value((0.5, 1.9), spec)     # int() would read the value at (0, 1)
    with pytest.raises(ParameterError):
        witness_value((1, 2, 3), spec)
    assert witness_value((True, np.int64(1)), spec) == witness_value((1, 1), spec)


def test_witness_values_refuse_non_integer_arrays():
    spec = WitnessSpec(2, 2, 2, 1)
    with pytest.raises(ParameterError):
        witness_values(np.array([[0.5, 1.9], [2.0, 0.0]]), spec)   # would be truncated
    with pytest.raises(ParameterError):
        witness_values([[1, 1 << 63]], spec)      # past int64, read as uint64 by numpy
    want = witness_values(np.array([[1, 1]]), spec)
    assert witness_values(np.array([[1, 1]], dtype=np.int32), spec).tolist() == want.tolist()


def test_witness_values_of_no_points_is_empty():
    assert witness_values(np.zeros((0, 2), dtype=np.int64), WitnessSpec(2, 2, 2, 1)).shape == (0,)


def test_witness_vectorized_matches_scalar():
    rng = np.random.default_rng(5)
    pts = rng.integers(-20, 21, size=(50, 5))
    vals = witness_values(pts, W5)
    for row, v in zip(pts, vals):
        assert witness_value(tuple(int(c) for c in row), W5) == v
    # in Z^1 with k = l = 2 the value is the largest count; row 0's largest
    # level (1, twice) equals row 1's smallest, and the runs must not merge
    assert witness_values(np.array([[0], [1]]), WitnessSpec(1, 2, 2, 1)).tolist() == [2.0, 1.0]


def test_witness_lower_bound_property():
    rng = random.Random(19)
    for _ in range(50):
        x = tuple(rng.randint(-30, 30) for _ in range(5))
        if all(c == 0 for c in x):
            continue
        s = sum(c * c for c in x)
        assert witness_value(x, W5) >= (2 * s) ** (-4.0) * (1 - 1e-12)


def test_witness_exact_normalization_mode():
    # the exact mode divides by true joint counts; for (box, delta) it must
    # equal the exact-normalization maximal operator where truncation covers
    # every candidate level
    spec = SphereSpec(5, 2)
    cfg = OperatorConfig(spec, 2, 40, Normalization.EXACT)
    mx = multilinear_maximal([make_box_indicator(5, 1), make_delta(5)], cfg)
    for x in [(0, 0, 0, 0, 0), (1, 1, 0, 0, 0), (2, 0, 0, 0, 0)]:
        assert mx.value(x) == pytest.approx(witness_value(x, W5, exact=True), rel=1e-12)
    # the two normalizations differ by the bounded ratio N(lam)/lam^4
    a = witness_value((3, 1, 0, 0, 0), W5)
    e = witness_value((3, 1, 0, 0, 0), W5, exact=True)
    assert a > 0 and e > 0


def _exact_witness_reference(pts, spec):
    """Each level looked up in the count table: count / N(level), or 0 at level 0 and on an
    empty sphere, maximised over the levels of each row."""
    k, ell, L = spec.degree, spec.linearity, spec.box_radius
    top = max((ell - 1) * sum(abs(c) ** k for c in x) + sum((abs(c) + L) ** k for c in x)
              for x in pts.tolist())
    table = rep_counts(SphereSpec(spec.dim * ell, k), top)
    want = []
    for x in pts.tolist():
        base = (ell - 1) * sum(abs(c) ** k for c in x)
        levels = collections.Counter(
            base + sum(abs(c - wc) ** k for c, wc in zip(x, w))
            for w in itertools.product(range(-L, L + 1), repeat=spec.dim))
        want.append(max(c / float(table.count(lev)) if lev >= 1 and table.count(lev) else 0.0
                        for lev, c in levels.items()))
    return np.array(want)


EXACT_SPECS = pytest.mark.parametrize(
    "spec", [WitnessSpec(3, 2, 2, 1), WitnessSpec(3, 3, 3, 2), W5],
    ids=lambda spec: f"d{spec.dim}k{spec.degree}l{spec.linearity}L{spec.box_radius}")


@EXACT_SPECS
def test_exact_witness_equals_per_level_table_lookups_bitwise(spec):
    # gathering N(level) from the float table must give the reference's bytes
    rng = np.random.default_rng(11)
    pts = np.concatenate([np.zeros((1, spec.dim), dtype=np.int64),
                          rng.integers(-6, 7, size=(60, spec.dim))])
    want = _exact_witness_reference(pts, spec)
    assert witness_values(pts, spec, exact=True).tobytes() == want.tobytes()


@EXACT_SPECS
def test_exact_witness_at_the_origin_raises_no_float_warning(spec):
    # x = 0 is the only row with a weight-0 level (lam = 0): every other candidate level is a sum
    # of l*d k-th powers, so N(lam) >= 1 there, and the weight-0 divisor is replaced before dividing
    origin = np.zeros((1, spec.dim), dtype=np.int64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = witness_values(origin, spec, exact=True)
    assert got.tobytes() == _exact_witness_reference(origin, spec).tobytes()


def test_witness_agrees_with_truncated_operator():
    # for |x| small enough that every candidate level fits under lambda_max,
    # the closed form equals the generic maximal operator on (box, delta)
    spec = SphereSpec(5, 2)
    box = make_box_indicator(5, 1)
    delta = make_delta(5)
    lam_max = 40
    cfg = OperatorConfig(spec, 2, lam_max, Normalization.ASYMPTOTIC)
    mx = multilinear_maximal([box, delta], cfg)
    for x in [(0, 0, 0, 0, 0), (1, 0, 0, 0, 0), (1, 1, 0, 0, 0), (2, 0, 0, 0, 0), (2, 1, 1, 0, 0)]:
        base = sum(c * c for c in x)
        worst_candidate = base + (sum((abs(c) + 1) ** 2 for c in x) + 5)
        assert worst_candidate <= lam_max  # closed form fully covered
        assert mx.value(x) == pytest.approx(witness_value(x, W5), rel=1e-12)


def test_decay_fit_degree_two():
    report = decay_fit(W5, (1, 0, 0, 0, 0), (10, 2000))
    assert report.expected_slope == -8.0
    assert abs(report.fitted_slope + 8.0) <= 0.2
    assert report.residual < 0.1


def test_decay_fit_degree_three():
    spec = WitnessSpec(dim=5, degree=3, linearity=2, box_radius=1)
    report = decay_fit(spec, (1, 0, 0, 0, 0), (10, 2000))
    assert report.expected_slope == -7.0
    assert abs(report.fitted_slope + 7.0) <= 0.3


def test_decay_fit_diagonal_ray():
    report = decay_fit(W5, (1, 1, 1, 1, 1), (10, 1200))
    assert abs(report.fitted_slope + 8.0) <= 0.2


def test_decay_fit_errors():
    with pytest.raises(ParameterError):
        decay_fit(W5, (0, 0, 0, 0, 0), (10, 2000))
    with pytest.raises(AnalysisError):
        decay_fit(W5, (1, 0, 0, 0, 0), (50, 50))
    with pytest.raises(ParameterError):
        decay_fit(W5, (1, 0, 0, 0, 0), (10, 50))
    with pytest.raises(ParameterError):
        decay_fit(W5, (1.7, 0, 0, 0, 0), (10, 2000))      # int() would fit along (1, 0, ...)
    with pytest.raises(ParameterError, match="dimension 5"):
        decay_fit(W5, (1, 1), (10, 2000))
    with pytest.raises(AnalysisError, match="vanished"):     # every value underflows to 0.0
        decay_fit(WitnessSpec(10, 2, 60, 1), (1,) + (0,) * 9, (10, 2000))


def test_decay_fit_sample_budget(monkeypatch):
    # the set of sample points grows with num_samples, so the count is refused before the loop;
    # W5's witness box of 3^5 = 243 points stays inside the lowered budget
    monkeypatch.setattr(grids, "DEFAULT_SUPPORT_BUDGET", 250)
    decay_fit(W5, (1, 0, 0, 0, 0), (10, 2000), num_samples=250)
    with pytest.raises(BudgetError, match="decay samples: 251 exceeds the budget of 250"):
        decay_fit(W5, (1, 0, 0, 0, 0), (10, 2000), num_samples=251)


@pytest.mark.parametrize("spec", [
    WitnessSpec(dim=1, degree=2, linearity=3, box_radius=1),
    WitnessSpec(dim=2, degree=3, linearity=2, box_radius=2),
    WitnessSpec(dim=3, degree=2, linearity=2, box_radius=1),
    W5,
], ids=lambda spec: f"d{spec.dim}")
def test_norm_scan_exact_regions_match_direct_enumeration(spec):
    # small radii fit the exact budget; cross-check against a direct sum
    radii = [3, 5]
    scan = partial_norm_scan(spec, 0.7, radii, exact_budget=10**6)
    assert scan.region_modes == ["exact", "exact"]
    import itertools

    total = 0.0
    for x in itertools.product(range(-3, 4), repeat=spec.dim):
        if sum(c * c for c in x) <= 9:
            total += witness_value(x, spec) ** 0.7
    assert scan.partial_norms[0] == pytest.approx(total ** (1 / 0.7), rel=1e-12)
    shell = 0.0
    for x in itertools.product(range(-5, 6), repeat=spec.dim):
        if 9 < sum(c * c for c in x) <= 25:
            shell += witness_value(x, spec) ** 0.7
    assert scan.shell_sums[0] == pytest.approx(shell, rel=1e-12)


@pytest.mark.parametrize("spec", [WitnessSpec(3, 2, 2, 1), W5], ids=lambda spec: f"d{spec.dim}")
def test_norm_scan_exact_regions_equal_pointwise_sums_bitwise(spec):
    # an exact region sums witness^r over its points in lexicographic order, one x_0
    # slice (in chunks of 60k points) at a time; evaluating each class of |x_i| once
    # must leave every bit of that sum as it is
    r = 0.7
    scan = partial_norm_scan(spec, r, [3, 6])
    assert scan.region_modes == ["exact", "exact"]
    grid = np.indices((13,) * spec.dim).reshape(spec.dim, -1).T - 6
    norm2 = (grid**2).sum(axis=1)
    sums = []
    for lo, hi in [(0, 3), (3, 6)]:
        total = 0.0
        for x0 in range(-hi, hi + 1):
            pts = grid[(grid[:, 0] == x0) & (norm2 > lo * lo) & (norm2 <= hi * hi)]
            for i in range(0, len(pts), 60_000):
                total += float((witness_values(pts[i : i + 60_000], spec) ** r).sum())
        sums.append(total)
    sums[0] += witness_value((0,) * spec.dim, spec) ** r
    assert scan.shell_sums == sums[1:]
    assert scan.partial_norms == [sums[0] ** (1 / r), (sums[0] + sums[1]) ** (1 / r)]


def test_norm_scan_partial_norms_increase():
    scan = partial_norm_scan(W5, 0.7, [8, 16, 32], samples_per_region=500, seed=3)
    assert scan.partial_norms == sorted(scan.partial_norms)


def test_norm_scan_deterministic_for_fixed_seed():
    a = partial_norm_scan(W5, 0.7, [16, 32, 64], samples_per_region=400, seed=42)
    b = partial_norm_scan(W5, 0.7, [16, 32, 64], samples_per_region=400, seed=42)
    assert a == b
    c = partial_norm_scan(W5, 0.7, [16, 32, 64], samples_per_region=400, seed=43)
    assert c.shell_sums != a.shell_sums


def test_norm_scan_large_r_tail_is_tiny():
    scan = partial_norm_scan(W5, 10.0, [4, 8, 16, 50], exact_budget=10**6,
                             samples_per_region=2000)
    increments = [b - a for a, b in zip(scan.partial_norms, scan.partial_norms[1:])]
    assert all(inc < 1e-6 for inc in increments[1:])


def test_norm_scan_parameter_errors():
    with pytest.raises(ParameterError):
        partial_norm_scan(W5, 0.0, [8, 16])
    with pytest.raises(ParameterError):
        partial_norm_scan(W5, 0.7, [16])
    with pytest.raises(ParameterError):
        partial_norm_scan(W5, 0.7, [16, 8])
    with pytest.raises(ParameterError):
        partial_norm_scan(W5, 0.7, [8, 16], seed=-1)
    with pytest.raises(ParameterError):
        partial_norm_scan(W5, 0.7, [8, 16], samples_per_region=0)
    for radii in (5, None):
        with pytest.raises(ParameterError, match="radii"):
            partial_norm_scan(W5, 0.7, radii)
    with pytest.raises(BudgetError, match=re.escape(        # class keys would leave int64
            "radius of an exact region in Z^5: 10000 exceeds the budget of 6207")):
        partial_norm_scan(W5, 0.7, [1, 10**4], exact_budget=10**30)
    for r in (math.inf, math.nan):
        with pytest.raises(ParameterError):
            partial_norm_scan(W5, r, [8, 16])


def test_region_examples():
    assert region_classify(2, 2, 1, 5).verdict == "BOUNDED"
    assert region_classify(2, 2, 0.6, 5).verdict == "UNBOUNDED"
    assert region_classify(1, 2, 1, 5).verdict == "UNKNOWN"


def test_region_equality_notes_convention():
    verdict = region_classify(2, 2, Fraction(5, 8), 5)
    assert verdict.verdict == "UNBOUNDED"
    assert "convention" in verdict.reason


def test_region_low_dimensions_unknown():
    assert region_classify(2, 2, 1, 4).verdict == "UNKNOWN"
    assert region_classify(2, 2, 1, 3).verdict == "UNKNOWN"
    verdict = region_classify(4, 4, 2, 2)
    assert verdict.verdict == "UNKNOWN" and "dim 2 < 3" in verdict.reason


def test_region_holder_deficient_unknown():
    v = region_classify(4, 4, 1, 5)
    assert v.verdict == "UNKNOWN"
    assert "1/p + 1/q" in v.reason


def test_region_monotone_in_r():
    # raising r never moves a verdict from BOUNDED back to UNBOUNDED
    for p, q in [(2, 2), (1.5, 3), (4, 4), (1, 2)]:
        seen_bounded = False
        for r_num in range(50, 161, 5):
            v = region_classify(p, q, Fraction(r_num, 100), 5).verdict
            if seen_bounded:
                assert v != "UNBOUNDED", (p, q, r_num)
            seen_bounded = seen_bounded or v == "BOUNDED"


def test_region_rejects_bad_exponents():
    with pytest.raises(ParameterError):
        region_classify(0, 2, 1, 5)
    with pytest.raises(ParameterError):
        region_classify(2, 2, -1, 5)
    with pytest.raises(ParameterError):
        region_classify(2, 2, 1, 1)     # d/(2d-2) has no value in Z^1


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "1/0", "abc", None])
def test_exponent_inputs_must_be_finite_rationals(bad):
    with pytest.raises(ParameterError):
        region_classify(bad, 2, 1, 5)
    with pytest.raises(ParameterError):
        region_classify(2, 2, bad, 5)
    with pytest.raises(ParameterError):
        r0_bound(bad, 2)
    with pytest.raises(ParameterError):
        p0_bound(bad, 5, 2)
