import itertools
import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest

from spherelab import (
    BudgetError,
    EmptySphereWarning,
    GridFunction,
    Normalization,
    OperatorConfig,
    ParameterError,
    SphereSpec,
    domination_check,
    domination_check_multilinear,
    hl_maximal,
    joint_count,
    linear_spherical_maximal,
    make_box_indicator,
    make_delta,
    multilinear_average,
    multilinear_maximal,
    rep_counts,
)
from spherelab import operators

from oracles import brute_multilinear, brute_shell


def random_function(rng, dim, size=5, span=3, nonnegative=False):
    vals = {}
    while len(vals) < size:
        p = tuple(rng.randint(-span, span) for _ in range(dim))
        vals[p] = rng.uniform(0.1, 1.0) if nonnegative else rng.uniform(-1, 1)
    return GridFunction(dim, vals)


def assert_close_maps(got: GridFunction, want: dict, rel=1e-12):
    scale = max((abs(v) for v in want.values()), default=1.0) or 1.0
    keys = set(got.values) | set(want)
    for key in keys:
        assert abs(got.value(key) - want.get(key, 0.0)) <= rel * scale, key


def test_average_two_deltas_level2():
    cfg = OperatorConfig(SphereSpec(1, 2), 2, 10, Normalization.EXACT)
    d = make_delta(1)
    avg = multilinear_average([d, d], 2, cfg)
    assert dict(avg.items_sorted()) == {(-1,): 0.25, (1,): 0.25}


def test_average_three_deltas_level3():
    cfg = OperatorConfig(SphereSpec(1, 2), 3, 5, Normalization.EXACT)
    d = make_delta(1)
    avg = multilinear_average([d, d, d], 3, cfg)
    assert dict(avg.items_sorted()) == {(-1,): 0.125, (1,): 0.125}


def test_average_constant_on_big_box_is_one():
    # normalization cancels the count at interior points
    spec = SphereSpec(2, 2)
    cfg = OperatorConfig(spec, 2, 9, Normalization.EXACT)
    box = make_box_indicator(2, 6)
    avg = multilinear_average([box, box], 9, cfg)
    assert avg.value((0, 0)) == pytest.approx(1.0, rel=1e-12)
    assert avg.value((1, -2)) == pytest.approx(1.0, rel=1e-12)


def test_average_empty_sphere_warns_and_returns_zero():
    # degree 3, dimension 1, linearity 2: level 3 has no representations
    cfg = OperatorConfig(SphereSpec(1, 3), 2, 5, Normalization.EXACT)
    d = make_delta(1)
    with pytest.warns(EmptySphereWarning):
        out = multilinear_average([d, d], 3, cfg)
    assert out.support_size() == 0


def test_average_matches_brute_force_randomized():
    # the oracle walks every point of the joint sphere, so lam stays small
    # here; acceptance experiment 3 runs the same oracle up to lam = 60
    rng = random.Random(2024)
    for trial in range(40):
        dim = rng.choice([1, 2])
        ell = rng.choice([2, 3])
        degree = rng.choice([2, 3])
        lam = rng.randint(1, 12 if dim * ell >= 5 else 30)
        exact = rng.random() < 0.5
        spec = SphereSpec(dim, degree)
        if exact and joint_count(spec, ell, lam) == 0:
            exact = False
        fs = [random_function(rng, dim) for _ in range(ell)]
        cfg = OperatorConfig(
            spec, ell, lam, Normalization.EXACT if exact else Normalization.ASYMPTOTIC
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = multilinear_average(fs, lam, cfg)
        want = brute_multilinear(fs, lam, dim, degree, exact)
        assert_close_maps(got, want)


def test_average_is_multilinear():
    rng = random.Random(77)
    spec = SphereSpec(2, 2)
    cfg = OperatorConfig(spec, 2, 8, Normalization.ASYMPTOTIC)
    f1, f2, g = (random_function(rng, 2) for _ in range(3))
    a, b = 1.3, -0.7
    keys = set(f1.values) | set(f2.values)
    combo_in = GridFunction(2, {p: a * f1.value(p) + b * f2.value(p) for p in keys})
    combo = multilinear_average([combo_in, g], 8, cfg)
    part1 = multilinear_average([f1, g], 8, cfg)
    part2 = multilinear_average([f2, g], 8, cfg)
    keys = set(combo.values) | set(part1.values) | set(part2.values)
    want = {k: a * part1.value(k) + b * part2.value(k) for k in keys}
    scale_ref = max((abs(v) for v in want.values()), default=1.0) or 1.0
    for key in keys:
        assert abs(combo.value(key) - want[key]) <= 1e-12 * scale_ref


def test_translation_equivariance_exact():
    rng = random.Random(5)
    spec = SphereSpec(2, 2)
    cfg = OperatorConfig(spec, 2, 10, Normalization.EXACT)
    f, g = random_function(rng, 2), random_function(rng, 2)

    def shifted(h):
        return GridFunction(2, {(p[0] + 3, p[1] - 2): v for p, v in h.values.items()})

    direct = multilinear_average([f, g], 5, cfg)
    moved = multilinear_average([shifted(f), shifted(g)], 5, cfg)
    assert moved == shifted(direct)  # bit-exact, same reduction order


def test_level_convolution_identity_against_counts():
    # exact normalization denominator equals the level convolution of r_{d,k}
    spec = SphereSpec(2, 2)
    table = rep_counts(spec, 30)
    for ell in (2, 3):
        for lam in range(31):
            conv = 0
            if ell == 2:
                conv = sum(table.count(m) * table.count(lam - m) for m in range(lam + 1))
            else:
                for m1 in range(lam + 1):
                    for m2 in range(lam + 1 - m1):
                        conv += table.count(m1) * table.count(m2) * table.count(lam - m1 - m2)
            assert conv == joint_count(spec, ell, lam)


def test_maximal_two_deltas():
    cfg = OperatorConfig(SphereSpec(1, 2), 2, 10, Normalization.EXACT)
    d = make_delta(1)
    mx = multilinear_maximal([d, d], cfg)
    assert dict(mx.items_sorted()) == {(-2,): 0.25, (-1,): 0.25, (1,): 0.25, (2,): 0.25}


def test_maximal_zero_input():
    cfg = OperatorConfig(SphereSpec(2, 2), 2, 10, Normalization.EXACT)
    z = GridFunction(2, {})
    assert multilinear_maximal([z, make_delta(2)], cfg).support_size() == 0


def test_maximal_monotone_in_lambda_max():
    rng = random.Random(31)
    spec = SphereSpec(2, 2)
    f, g = random_function(rng, 2), random_function(rng, 2)
    small = multilinear_maximal([f, g], OperatorConfig(spec, 2, 8, Normalization.ASYMPTOTIC))
    big = multilinear_maximal([f, g], OperatorConfig(spec, 2, 16, Normalization.ASYMPTOTIC))
    for p, v in small.items_sorted():
        assert big.value(p) >= v - 1e-15


def test_maximal_abs_of_signed_average():
    rng = random.Random(99)
    spec = SphereSpec(2, 2)
    f, g = random_function(rng, 2), random_function(rng, 2)
    cfg = OperatorConfig(spec, 2, 12, Normalization.ASYMPTOTIC)
    mx = multilinear_maximal([f, g], cfg)
    per_level = [multilinear_average([f, g], lam, cfg) for lam in range(1, 13)]
    keys = set(mx.values)
    for level in per_level:
        keys |= set(level.values)
    for key in keys:
        want = max(abs(level.value(key)) for level in per_level)
        assert mx.value(key) == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_hl_maximal_examples():
    spec = SphereSpec(5, 2)
    d = make_delta(5)
    m = hl_maximal(d, spec, 10)
    assert m.value((2, 0, 0, 0, 0)) == pytest.approx(4.0 ** (-2.5))
    assert m.value((0, 0, 0, 0, 0)) == 1.0


def test_hl_maximal_homogeneous():
    rng = random.Random(17)
    spec = SphereSpec(2, 2)
    f = random_function(rng, 2, nonnegative=True)
    m1 = hl_maximal(f, spec, 12)
    m3 = hl_maximal(GridFunction(2, {p: 3.0 * v for p, v in f.values.items()}), spec, 12)
    for p, v in m1.items_sorted():
        assert m3.value(p) == pytest.approx(3.0 * v, rel=1e-12)


def test_spherical_maximal_examples():
    spec = SphereSpec(5, 2)
    d = make_delta(5)
    s = linear_spherical_maximal(d, spec, 10)
    assert s.value((1, 0, 0, 0, 0)) == 1.0
    assert s.value((1, 1, 0, 0, 0)) == pytest.approx(2.0 ** (-1.5))
    assert s.value((0, 0, 0, 0, 0)) == 0.0


def test_spherical_maximal_monotone_in_lambda_max():
    rng = random.Random(23)
    spec = SphereSpec(3, 2)
    g = random_function(rng, 3)
    s1 = linear_spherical_maximal(g, spec, 6)
    s2 = linear_spherical_maximal(g, spec, 14)
    for p, v in s1.items_sorted():
        assert s2.value(p) >= v - 1e-15


def test_hl_maximal_monotone_in_lambda_max():
    rng = random.Random(29)
    spec = SphereSpec(2, 2)
    f = random_function(rng, 2)
    m1 = hl_maximal(f, spec, 5)
    m2 = hl_maximal(f, spec, 12)
    for p, v in m1.items_sorted():
        assert m2.value(p) >= v - 1e-15


def test_domination_box_delta_dim3():
    spec = SphereSpec(3, 2)
    rep = domination_check(make_box_indicator(3, 1), make_delta(3), spec, 50)
    assert rep.max_violation <= 1e-9
    rep_swapped = domination_check(make_delta(3), make_box_indicator(3, 1), spec, 50)
    assert rep_swapped.max_violation <= 1e-9


def test_domination_zero_function():
    spec = SphereSpec(3, 2)
    rep = domination_check(GridFunction(3, {}), make_delta(3), spec, 20)
    assert rep.max_violation == 0.0
    assert rep.points_checked == 0


def test_domination_randomized_dim3():
    rng = random.Random(404)
    spec = SphereSpec(3, 2)
    for _ in range(10):
        f = random_function(rng, 3, nonnegative=True)
        g = random_function(rng, 3, nonnegative=True)
        rep = domination_check(f, g, spec, 30)
        assert rep.max_violation <= 1e-9, (rep.max_violation, rep.argmax_point)


def test_domination_rhs_matches_public_operators():
    # the RHS of the bilinear check equals M(f) * max(S(g), g) pointwise;
    # verify the internal profiles agree with the standalone operators by
    # recomputing the product at the reported argmax
    spec = SphereSpec(3, 2)
    f = make_box_indicator(3, 1)
    g = make_delta(3)
    lam_max = 30
    rep = domination_check(f, g, spec, lam_max)
    x = rep.argmax_point
    assert x is not None
    cfg = OperatorConfig(spec, 2, lam_max, Normalization.ASYMPTOTIC)
    lhs = multilinear_maximal([f, g], cfg).value(x)
    m = hl_maximal(f, spec, lam_max).value(x)
    s = max(linear_spherical_maximal(g, spec, lam_max).value(x), abs(g.value(x)))
    assert lhs - m * s == pytest.approx(rep.max_violation, abs=1e-12)


def test_domination_needs_zero_shell_term():
    # without the level-zero term the majorant genuinely fails at x = 0:
    # T* sees the box through exact spheres while S(delta)(0) = 0
    spec = SphereSpec(5, 2)
    f = make_box_indicator(5, 1)
    g = make_delta(5)
    lam_max = 10
    cfg = OperatorConfig(spec, 2, lam_max, Normalization.ASYMPTOTIC)
    x = (0, 0, 0, 0, 0)
    lhs = multilinear_maximal([f, g], cfg).value(x)
    m = hl_maximal(f, spec, lam_max).value(x)
    s_bare = linear_spherical_maximal(g, spec, lam_max).value(x)
    assert lhs > 0.0 and s_bare == 0.0  # bare product would be violated
    assert lhs <= m * max(s_bare, g.value(x)) + 1e-12


def test_domination_trilinear_all_rearrangements():
    rng = random.Random(808)
    spec = SphereSpec(2, 2)
    fs = [random_function(rng, 2, nonnegative=True) for _ in range(3)]
    for i in range(3):
        order = [fs[i]] + [fs[j] for j in range(3) if j != i]
        rep = domination_check_multilinear(order, spec, 25)
        assert rep.max_violation <= 1e-9, (i, rep.max_violation)


def test_domination_points_checked_is_box_size(monkeypatch):
    # radius 3: f dilates to [-4, 4]^3 and g to [-1, 5] x [-3, 3]^2, so the
    # evaluation box is [-1, 4] x [-3, 3]^2; dead rows are counted too
    spec = SphereSpec(3, 2)
    f = make_box_indicator(3, 1)
    g = GridFunction(3, {(2, 0, 0): 1.0})
    for rows in (1 << 16, 7):
        monkeypatch.setattr(operators, "_CHUNK_ROWS", rows)
        assert domination_check(f, g, spec, 10).points_checked == 6 * 7 * 7


def test_domination_reports_first_pruned_row_when_live_rows_are_negative(monkeypatch):
    # two unit masses 6 apart, lam_max = 8 (radius 2): the box is
    # [-2, 8] x [-2, 2] and its first rows are live, while rows midway
    # between the masses lie inside both bboxes but reach no support point
    spec = SphereSpec(2, 2)
    f = GridFunction(2, {(0, 0): 1.0, (6, 0): 1.0})
    lam_max = 8
    box = list(itertools.product(range(-2, 9), range(-2, 3)))
    reach = {x: min((x[0] - p[0]) ** 2 + (x[1] - p[1]) ** 2 for p in f.values) for x in box}
    live = [x for x in box if reach[x] <= lam_max]
    pruned = [x for x in box if reach[x] > lam_max]
    assert live[0] == box[0] and pruned[0] == (3, -2)
    # every live row has LHS - RHS < 0 (RHS as in the test above)
    lhs = multilinear_maximal([f, f], OperatorConfig(spec, 2, lam_max, Normalization.ASYMPTOTIC))
    m = hl_maximal(f, spec, lam_max)
    s = linear_spherical_maximal(f, spec, lam_max)
    assert all(lhs.value(x) - m.value(x) * max(s.value(x), f.value(x)) < 0.0 for x in live)
    # one chunk walks the box; 7-row chunks walk f's support plus the k-ball,
    # which here is the live rows; either way the second profile sees live rows
    evaluated = spy_profile_rows(monkeypatch)
    for rows, walked in ((1 << 16, len(box)), (7, len(live))):
        monkeypatch.setattr(operators, "_CHUNK_ROWS", rows)
        evaluated.clear()
        rep = domination_check(f, f, spec, lam_max)
        assert rep.max_violation == 0.0
        assert rep.argmax_point == pruned[0]
        assert rep.points_checked == len(box)
        assert sum(evaluated) == walked + len(live)


def test_outputs_independent_of_chunk_size(monkeypatch):
    # a 600-point support with non-integer values is scattered in several
    # blocks, so its sums only match if the block split ignores the chunking
    rng = random.Random(4242)
    spec = SphereSpec(3, 2)
    f = random_function(rng, 3, size=600, span=6, nonnegative=True)
    g = random_function(rng, 3, size=40, span=3, nonnegative=True)
    lam_max = 16
    cfg = OperatorConfig(spec, 2, lam_max, Normalization.ASYMPTOTIC)
    outputs = []
    for rows in (1 << 16, 512):
        monkeypatch.setattr(operators, "_CHUNK_ROWS", rows)
        outputs.append([
            repr(multilinear_average([f, g], lam_max, cfg).items_sorted()),
            repr(multilinear_maximal([f, g], cfg).items_sorted()),
            repr(hl_maximal(f, spec, lam_max).items_sorted()),
            repr(linear_spherical_maximal(f, spec, lam_max).items_sorted()),
            repr(domination_check(f, g, spec, lam_max)),
        ])
    for big, small in zip(*outputs):
        assert big == small


def spy_profile_rows(monkeypatch) -> list[int]:
    """Record the row count of every _level_profile call."""
    rows: list[int] = []
    profile = operators._level_profile

    def spy(points, *args):
        rows.append(len(points))
        return profile(points, *args)

    monkeypatch.setattr(operators, "_level_profile", spy)
    return rows


def test_candidate_rows_match_box_rows(monkeypatch):
    # four points spread over [0, 20]^3 make a 27^3-row box, while their
    # dilation by the k-ball (lam_max = 9) has only a few hundred rows
    rng = random.Random(606)
    spec = SphereSpec(3, 2)
    lam_max = 9
    corners = [(0, 0, 0), (20, 3, 1), (4, 20, 7), (12, 9, 20)]
    f = GridFunction(3, {p: rng.uniform(-1, 1) for p in corners})
    g = GridFunction(3, {p: rng.uniform(-1, 1) for p in corners + [(5, 5, 5), (15, 2, 18)]})
    f_abs = GridFunction(3, {p: abs(v) for p, v in f.values.items()})
    g_abs = GridFunction(3, {p: abs(v) for p, v in g.values.items()})
    box_rows = 27**3
    ball = sum(rep_counts(spec, lam_max).counts)
    assert len(corners) * ball < box_rows
    cfg = OperatorConfig(spec, 2, lam_max, Normalization.ASYMPTOTIC)
    evaluated = spy_profile_rows(monkeypatch)
    outputs = []
    for rows in (1 << 20, 64):
        monkeypatch.setattr(operators, "_CHUNK_ROWS", rows)
        evaluated.clear()
        outputs.append([
            repr(multilinear_average([f, g], lam_max, cfg).items_sorted()),
            repr(multilinear_maximal([g, f], cfg).items_sorted()),
            repr(hl_maximal(f, spec, lam_max).items_sorted()),
            repr(linear_spherical_maximal(f, spec, lam_max).items_sorted()),
            repr(domination_check(f_abs, g_abs, spec, lam_max)),
            repr(domination_check(g_abs, f_abs, spec, lam_max)),
        ])
    # at 64-row chunks all six calls together evaluate fewer rows than one box
    assert sum(evaluated) < box_rows
    for big, small in zip(*outputs):
        assert big == small


def test_chunk_rows_bounded_by_profile_cells(monkeypatch):
    # lam_max = 2000 in Z^2: 8192-row chunks of 2001 float64 levels would
    # hold 125 MiB per profile-sized array
    tracemalloc.start()
    try:
        out = hl_maximal(make_delta(2), SphereSpec(2, 2), 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.support_size() == sum(rep_counts(SphereSpec(2, 2), 2000).counts)
    assert peak < 32 * 2**20, peak
    # a row of lam_max + 1 levels above the cell budget is refused up front
    monkeypatch.setattr(operators, "_CHUNK_CELLS", 64)
    assert hl_maximal(make_delta(2), SphereSpec(2, 2), 63).support_size() > 0
    with pytest.raises(BudgetError):
        hl_maximal(make_delta(2), SphereSpec(2, 2), 64)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("degree", [2, 3])
def test_ball_offsets_are_the_shells_up_to_lambda(dim, degree):
    for lam_max in (1, 9, 40):
        want = sorted(u for nu in range(lam_max + 1) for u in brute_shell(dim, degree, nu))
        got = operators._ball_offsets(dim, degree, lam_max)
        assert got.dtype == np.int64 and got.shape == (len(want), dim)
        assert [tuple(u) for u in got.tolist()] == want
        assert len(got) == sum(rep_counts(SphereSpec(dim, degree), lam_max).counts)


def test_level_convolve_sparse_rows_match_dense_update():
    # the dense update, term by term, with no skipped rows or levels
    def dense(a, b):
        out = np.zeros_like(a)
        for mu in range(a.shape[1]):
            out[:, mu:] += a[:, mu][:, None] * b[:, : a.shape[1] - mu]
        return out

    rng = np.random.default_rng(11)
    n, width = 40, 17
    a = rng.uniform(-1, 1, size=(n, width))
    b = rng.uniform(-1, 1, size=(n, width))
    a[rng.random((n, width)) < 0.9] = 0.0        # most levels below n/4 rows
    a[:, 3] = rng.uniform(-1, 1, size=n)          # one dense level
    a[:, 5] = 0.0                                 # one empty level
    a[7] = 0.0                                    # all-zero rows in a and b
    b[9] = 0.0
    b[rng.random((n, width)) < 0.3] = 0.0
    counts = np.count_nonzero(a, axis=0)
    assert (4 * counts < n).any() and (4 * counts >= n).any() and (counts == 0).any()
    assert operators._level_convolve(a, b).tobytes() == dense(a, b).tobytes()
    assert operators._level_convolve(b, a).tobytes() == dense(b, a).tobytes()


def test_domination_working_memory_is_bounded():
    # box (x) box on Z^5 at lam_max = 20 evaluates 11^5 rows; one chunk's
    # profiles, level convolutions and scatter temporaries must stay small
    box = make_box_indicator(5, 1)
    tracemalloc.start()
    try:
        domination_check(box, box, SphereSpec(5, 2), 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, peak


def test_domination_rejects_negative_input():
    spec = SphereSpec(2, 2)
    bad = GridFunction(2, {(0, 0): -1.0})
    with pytest.raises(ParameterError):
        domination_check(bad, make_delta(2), spec, 10)


def test_domination_rejects_unsupported_exponent_regime():
    spec = SphereSpec(1, 2)  # (l-1)*d = 1 < k = 2: bound genuinely fails
    with pytest.raises(ParameterError):
        domination_check(make_delta(1), make_delta(1), spec, 10)


def test_config_validation():
    spec = SphereSpec(2, 2)
    with pytest.raises(ParameterError):
        OperatorConfig(spec, 0, 10)
    with pytest.raises(ParameterError):
        OperatorConfig(spec, 2, 10, Normalization.EXACT, lambda_min=0)
    with pytest.raises(ParameterError):
        OperatorConfig(spec, 2, 3, Normalization.EXACT, lambda_min=5)
    with pytest.raises(ParameterError):
        multilinear_average([make_delta(2)], 5, OperatorConfig(spec, 2, 10))
    with pytest.raises(ParameterError):
        multilinear_average([make_delta(2), make_delta(3)], 5, OperatorConfig(spec, 2, 10))
