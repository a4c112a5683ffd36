import collections
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
    DominationReport,
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
from spherelab import counts, grids, operators

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


def test_maximal_with_no_nonempty_level_is_zero():
    # two cubes in Z^1 sum to 0, 1 or 2 below 8, so N(lam) = 0 for every lam in [3, 7]
    cfg = OperatorConfig(SphereSpec(1, 3), 2, 7, Normalization.EXACT, 3)
    d = make_delta(1)
    assert multilinear_maximal([d, d], cfg) == GridFunction(1, {})


def test_disjoint_supports_have_no_evaluation_box():
    # the radius-2 boxes around (0, 0) and (100, 100) do not meet: every output is zero
    spec = SphereSpec(2, 2)
    f, g = GridFunction(2, {(0, 0): 1.0}), GridFunction(2, {(100, 100): 1.0})
    cfg = OperatorConfig(spec, 2, 4, Normalization.EXACT)
    assert multilinear_average([f, g], 4, cfg) == GridFunction(2, {})
    assert multilinear_maximal([f, g], cfg) == GridFunction(2, {})
    assert domination_check(f, g, spec, 4) == DominationReport(0.0, None, 4, 0)
    # the input checks still come first
    with pytest.raises(ParameterError, match="nonnegative"):
        domination_check(f, GridFunction(2, {(100, 100): -1.0}), spec, 4)
    with pytest.raises(ParameterError, match="dim >= degree"):
        domination_check(GridFunction(1, {(0,): 1.0}), GridFunction(1, {(100,): 1.0}),
                         SphereSpec(1, 2), 4)


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


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
def test_ball_weights_never_rise(degree):
    # M reads no level without mass because such a level cannot raise its maximum: the ball sum
    # stays and lam^(-d/k) does not rise.  That is a property of the float power, checked here
    # up to the 2^18 levels the chunk rule admits rather than assumed
    lam = np.arange(1, 2**18, dtype=np.float64)
    for dim in range(1, 13):
        assert (np.diff(lam ** (-dim / degree)) <= 0.0).all(), dim


def _every_level_hl_reduction(spec, lambda_max):
    """M's reduction read over every level: the ball sums of levels 0..lam, added a level at a
    time (np.cumsum along the levels), each weighed by lam^(-d/k), then the max over lam."""
    weights = np.arange(1, lambda_max + 1, dtype=np.float64) ** (-spec.dim / spec.degree)
    return lambda profs: (np.cumsum(profs[0], axis=0)[1:] * weights[:, None]).max(axis=0)


@pytest.mark.parametrize("chunk_rows", [1 << 13, 2])
@pytest.mark.parametrize("degree", [2, 3])
def test_m_and_s_equal_their_every_level_forms(monkeypatch, chunk_rows, degree):
    # M and S weigh only the levels where some row of the chunk has mass, and must equal the
    # forms that weigh every level bit for bit.  At lam_max = 600 a chunk holds at most
    # 2^18 // 601 = 436 rows, fewer than its levels.  In Z^2 most levels hold no mass in any
    # row (3, 6, 7, ... are no sums of two squares), and every support point is a row with mass
    # at level 0.  Degree 3 gives S weights that are not all 1
    rng = random.Random(27)
    spec, lam_max = SphereSpec(2, degree), 600
    inputs = [random_function(rng, 2, size=12, span=4, nonnegative=nonneg) for nonneg in (0, 1)]
    inputs.append(make_delta(2))    # one level of mass per row, and at x = 0 only level 0
    # in Z^1, with f_2 and f_3 dense around f_1, every row of the box is live with S~ > 0, so
    # the report's violation is one where M enters (in Z^2 the box corners are pruned, and a
    # row where S~ is 0 reads 0.0: either would be reported whatever M is)
    three = [random_function(rng, 1, size=3, span=2, nonnegative=True),
             *(random_function(rng, 1, size=40, span=30, nonnegative=True) for _ in range(2))]
    monkeypatch.setattr(operators, "_CHUNK_ROWS", chunk_rows)

    def outputs(operator):
        return [b"".join(a.tobytes() for a in operator(f, spec, lam_max).arrays()) for f in inputs]

    hl, sph = outputs(hl_maximal), outputs(linear_spherical_maximal)
    report = domination_check_multilinear(three, SphereSpec(1, 2), lam_max)
    assert report.max_violation < 0.0
    monkeypatch.setattr(operators, "_hl_reduction", _every_level_hl_reduction)
    assert outputs(hl_maximal) == hl
    assert repr(domination_check_multilinear(three, SphereSpec(1, 2), lam_max)) == repr(report)
    weights = np.arange(1, lam_max + 1, dtype=np.float64) ** (-(spec.dim / spec.degree - 1.0))
    evaluate = operators._evaluate
    monkeypatch.setattr(operators, "_evaluate", lambda fs, degree, lam, _: evaluate(
        fs, degree, lam, lambda profs: (np.abs(profs[0][1:]) * weights[:, None]).max(axis=0)))
    assert outputs(linear_spherical_maximal) == sph


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
    # one chunk pulls both profiles, the second on the live rows alone; 7-row chunks and 4-pair
    # slices push them through the k-ball segment by segment (the box rows sharing x_0),
    # skipping the segment x_0 = 3 that no k-ball reaches, and the second only on live rows
    built = spy_profile_rows(monkeypatch)
    for rows, pairs in ((1 << 16, 1 << 15), (7, 4)):
        monkeypatch.setattr(operators, "_CHUNK_ROWS", rows)
        monkeypatch.setattr(operators, "_SLICE", pairs)
        built.clear()
        rep = domination_check(f, f, spec, lam_max)
        assert rep.max_violation == 0.0
        assert rep.argmax_point == pruned[0]
        assert rep.points_checked == len(box)
        if rows == 1 << 16:
            assert built == [("pull", None, len(box)), ("pull", None, len(live))]
        else:
            assert {how for how, _, _ in built} == {"push"}
            assert sum(n for _, j, n in built if j == 0) == 5 * len({x[0] for x in live})
            assert sum(n for _, j, n in built if j == 1) == len(live)


def test_domination_reports_pruned_row_after_the_live_ones():
    # the box is 2 x 3 rows from (2, 0): rows 0-2 (x_0 = 2) are live, and rows 3-5 reach no
    # point of g, so with every live row below 0 the first of them, (3, 0), is the answer
    spec = SphereSpec(2, 2)
    f = GridFunction(2, {(3, 1): 1.0})
    g = GridFunction(2, {(-3, -3): 1.0, (1, 1): 1.0, (2, -3): 1.0})
    assert [flat.tolist() for _, flat, _ in operators._engine([f, g], 2, 2)[2]] == [[0, 1, 2]]
    assert domination_check(f, g, spec, 2) == DominationReport(0.0, (3, 0), 2, 6)


def test_domination_tie_between_units_keeps_the_first_row(monkeypatch):
    # the live rows peak at exactly 0.0 at (0, 0, 0) and at (1, 0, 0): in one unit at 1 << 13
    # rows, in different units at 7 and 2, and the strict merge keeps the first of them
    spec = SphereSpec(3, 2)
    f = make_box_indicator(3, 1)
    g = GridFunction(3, {(0, 0, 0): 1.0, (1, 0, 0): 1.0})
    for rows in (1 << 13, 7, 2):
        monkeypatch.setattr(operators, "_CHUNK_ROWS", rows)
        units = [set(map(tuple, pts.tolist())) for pts, _, _ in operators._engine([f, g], 2, 10)[2]]
        first, second = ([i for i, u in enumerate(units) if x in u] for x in ((0, 0, 0), (1, 0, 0)))
        assert len(first) == len(second) == 1 and (first == second) == (rows == 1 << 13)
        rep = domination_check(f, g, spec, 10)
        assert rep.max_violation == 0.0
        assert rep.argmax_point == (0, 0, 0)


def test_outputs_independent_of_chunk_size(monkeypatch):
    # a 600-point support with non-integer values: its sums only match if every
    # cell adds its pairs in the same order at any chunking
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


def test_profile_cells_are_sequential_sums_in_support_order(monkeypatch):
    # a linear average is one profile level over N(lam): every output must be the plain
    # left-to-right sum of f(s) over its sphere in support order from 0.0, divided by N(lam),
    # whether the profile is pulled (one chunk) or pushed and gathered (16-row chunks of 2^9
    # cells, 64-pair slices); the signed 523-point support makes other orders show in the bits
    rng = random.Random(1212)
    spec, lam = SphereSpec(3, 2), 9
    f = random_function(rng, 3, size=523, span=6)
    sums: dict[tuple[int, ...], float] = {}
    for s, v in f.items_sorted():
        for u in brute_shell(3, 2, lam):
            x = tuple(a + b for a, b in zip(s, u))
            sums[x] = sums.get(x, 0.0) + v
    norm = float(rep_counts(spec, lam).count(lam))
    want = {x: total / norm for x, total in sums.items() if total != 0.0}
    cfg = OperatorConfig(spec, 1, lam, Normalization.EXACT)
    built = spy_profile_rows(monkeypatch)
    for rows, cells, slice_pairs in ((operators._CHUNK_ROWS, operators._CHUNK_CELLS,
                                      operators._SLICE), (16, 1 << 9, 64)):
        monkeypatch.setattr(operators, "_CHUNK_ROWS", rows)
        monkeypatch.setattr(operators, "_CHUNK_CELLS", cells)
        monkeypatch.setattr(operators, "_SLICE", slice_pairs)
        got = multilinear_average([f], lam, cfg)
        assert repr(got.items_sorted()) == repr(sorted(want.items()))
    assert {how for how, _, _ in built} == {"push", "gather", "pull"}


@pytest.mark.parametrize("far", [1 << 31, 1 << 32, 3 << 31])
def test_far_apart_supports_do_not_wrap_levels(far):
    # the common box runs from 0 to far, so the pull pairs rows near one end with support points
    # at the other: (x - s)^2 passes int64 from far = 2^32 on unless each difference is capped
    spec = SphereSpec(1, 2)
    f = GridFunction(1, {(0,): 1.0, (far,): 1.0})
    g = GridFunction(1, {(0,): 1.0, (1,): 0.5, (far,): 1.0})
    out = multilinear_maximal([f, g], OperatorConfig(spec, 2, 4, Normalization.ASYMPTOTIC))
    assert dict(out.values) == {(-1,): 1.0, (0,): 0.5, (1,): 1.0, (far - 1,): 1.0, (far + 1,): 1.0}


def spy_profile_rows(monkeypatch) -> list[tuple[str, int | None, int]]:
    """Record (how, input, rows) for every level profile built: "push" through the k-ball,
    "gather" of the rows the smallest support reaches, or "pull" (input None) by _level_profile."""
    built: list[tuple[str, int | None, int]] = []
    push, walk, pull = operators._Stencil.push, operators._Stencil.walk, operators._level_profile

    def spy_push(self, j, flat):
        got = push(self, j, flat)
        if got is not None:
            built.append(("push", j, len(flat)))
        return got

    def spy_walk(self, j, rows):
        for flat, prof in walk(self, j, rows):
            if prof is not None:
                built.append(("gather", j, len(flat)))
            yield flat, prof

    def spy_pull(points, *args):
        built.append(("pull", None, len(points)))
        return pull(points, *args)

    monkeypatch.setattr(operators._Stencil, "push", spy_push)
    monkeypatch.setattr(operators._Stencil, "walk", spy_walk)
    monkeypatch.setattr(operators, "_level_profile", spy_pull)
    return built


def push_gather_pull_calls() -> list:
    """Operator calls at lam_max = 9 in Z^3 that, in chunks of 256 cells (25 rows) and 64-pair
    slices, push profiles through the k-ball, gather the rows the smallest support reaches in
    sparse segments, and pull them where few rows stay live; the last four are domination checks."""
    rng = random.Random(606)
    spec = SphereSpec(3, 2)
    lam_max = 9
    f = random_function(rng, 3, size=300, span=6)                  # signed, past 256 points
    g = random_function(rng, 3, size=40, span=3)                   # f's s + B leaves their common box
    far = GridFunction(3, {(0, 0, 0): 0.5, (20, 3, 1): -1.25, (4, 20, 7): 0.75, (12, 9, 20): 1.5})
    near = GridFunction(3, {**far.values, (5, 5, 5): -0.25, (15, 2, 18): 2.0})
    cfg = OperatorConfig(spec, 2, lam_max, Normalization.ASYMPTOTIC)
    return [
        lambda: multilinear_average([f, g], lam_max, cfg),
        lambda: multilinear_maximal([g, f], cfg),
        lambda: hl_maximal(f, spec, lam_max),
        lambda: linear_spherical_maximal(g, spec, lam_max),
        lambda: multilinear_average([far, near], lam_max, cfg),
        lambda: multilinear_maximal([near, far], cfg),
        lambda: hl_maximal(far, spec, lam_max),
        lambda: linear_spherical_maximal(near, spec, lam_max),
    ] + [
        lambda a=a, b=b: domination_check(
            GridFunction(3, {p: abs(v) for p, v in a.values.items()}),
            GridFunction(3, {p: abs(v) for p, v in b.values.items()}), spec, lam_max)
        for a, b in ((f, g), (g, f), (far, near), (near, far))
    ]


def test_push_matches_pull(monkeypatch):
    # one box-sized chunk pulls every profile; chunks of 256 cells (25 rows) and 64-pair slices
    # push them through the k-ball, gather the rows the smallest support reaches in sparse
    # segments, or pull them where few rows stay live
    calls = push_gather_pull_calls()
    built = spy_profile_rows(monkeypatch)
    sent, left, pushing = [], [], []    # per push (pairs by 256-point range, segments); edges
    push, pairs = operators._Stencil.push, operators._Stencil.pairs

    def spy_push(self, j, flat):
        pushing.append(collections.Counter())
        got = push(self, j, flat)
        blocks = pushing.pop()
        if got is not None:
            sent.append((blocks, len(np.unique(flat // self.size))))
        return got

    def spy_pairs(self, j, pts, run, *offset):
        cells = pairs(self, j, pts, run, *offset)
        if pushing:
            pushing[-1][int(pts[0]) // 256] += len(cells)
        left.append(bool((cells < 0).any()))
        return cells

    monkeypatch.setattr(operators._Stencil, "push", spy_push)
    monkeypatch.setattr(operators._Stencil, "pairs", spy_pairs)
    outputs = []
    for rows, cells, slice_pairs in ((1 << 20, 1 << 24, 1 << 15), (64, 1 << 8, 64)):
        monkeypatch.setattr(operators, "_CHUNK_ROWS", rows)
        monkeypatch.setattr(operators, "_CHUNK_CELLS", cells)
        monkeypatch.setattr(operators, "_SLICE", slice_pairs)
        built.clear()
        outputs.append([repr(c()) if c in calls[-4:] else repr(c().items_sorted()) for c in calls])
        if rows == 1 << 20:
            assert {how for how, _, _ in built} == {"pull"}
    assert {how for how, _, _ in built} == {"push", "gather", "pull"}
    assert max(max(blocks, default=0) for blocks, _ in sent) > 0       # past the 256th point
    assert max(max(blocks.values(), default=0) for blocks, _ in sent) > 1 << 8  # past the cells
    assert max(segments for _, segments in sent) > 1                   # a push into several segments
    assert any(left)                                                    # edge masks applied
    for pulled, pushed in zip(*outputs):
        assert pulled == pushed


def test_profiles_reach_the_reductions_level_major(monkeypatch):
    # every profile an operator reduces is a C-contiguous float64 (lam_max + 1, len(flat)) array,
    # whether pushed, gathered or pulled, and also after the live-row filter cut it down, where a
    # boolean column index would hand the reductions an F-ordered copy
    built = spy_profile_rows(monkeypatch)
    made = []       # every profile as built, kept alive so that ids stay unique
    push, walk, pull = operators._Stencil.push, operators._Stencil.walk, operators._level_profile

    def keep_push(self, j, flat):
        made.append(push(self, j, flat))
        return made[-1]

    def keep_walk(self, j, rows):
        for flat, prof in walk(self, j, rows):
            made.append(prof)
            yield flat, prof

    def keep_pull(*args):
        made.append(pull(*args))
        return made[-1]

    reached, engine = [], operators._engine

    def spy_engine(fs, degree, lam_max):
        got = engine(fs, degree, lam_max)
        if got is None:
            return None
        lo, shape, live = got
        return lo, shape, ((reached.append((lam_max, flat, profiles)) or (points, flat, profiles))
                           for points, flat, profiles in live)

    monkeypatch.setattr(operators._Stencil, "push", keep_push)
    monkeypatch.setattr(operators._Stencil, "walk", keep_walk)
    monkeypatch.setattr(operators, "_level_profile", keep_pull)
    monkeypatch.setattr(operators, "_engine", spy_engine)
    monkeypatch.setattr(operators, "_CHUNK_ROWS", 64)
    monkeypatch.setattr(operators, "_CHUNK_CELLS", 1 << 8)
    monkeypatch.setattr(operators, "_SLICE", 64)
    for call in push_gather_pull_calls():
        call()
    assert {how for how, _, _ in built} == {"push", "gather", "pull"}
    as_built = {id(p) for p in made if p is not None}
    filtered = 0
    for lam_max, flat, profiles in reached:
        for p in profiles:
            assert p.dtype == np.float64 and p.shape == (lam_max + 1, len(flat))
            assert p.flags.c_contiguous
            filtered += id(p) not in as_built
    assert filtered > 0


def test_slabs_out_of_reach_are_skipped(monkeypatch):
    # two points 30 apart on every axis of Z^5 make a 37^5-row box (69 M rows); only the rows
    # of segments within the k-ball of a point are profiled, a few million
    spec = SphereSpec(5, 2)
    f = GridFunction(5, {(0,) * 5: 1.0, (30,) * 5: 0.5})
    built = spy_profile_rows(monkeypatch)
    out = hl_maximal(f, spec, 12)
    assert out.support_size() == 2 * sum(rep_counts(spec, 12).counts)
    assert 0 < sum(n for _, _, n in built) < 10**7


def test_spread_support_walks_only_its_reach(monkeypatch):
    # 30 points spread over [0, 1000]^5, a box of 1007^5 rows, at lam_max = 12: with a budget of
    # 2^14 cells, 30 points times the 761 prefixes of the k-ball pass one block of runs, and only
    # the rows of the 30 disjoint k-balls are profiled
    monkeypatch.setattr(operators, "_CHUNK_CELLS", 1 << 14)
    rng = random.Random(5)
    spec = SphereSpec(5, 2)
    f = GridFunction(5, {tuple(rng.randrange(1001) for _ in range(5)): rng.uniform(0.5, 1.0)
                         for _ in range(30)})
    ball = hl_maximal(make_delta(5), spec, 12)
    built = spy_profile_rows(monkeypatch)
    out = hl_maximal(f, spec, 12)
    assert out.support_size() == 30 * ball.support_size()
    assert sum(n for _, _, n in built) == out.support_size()
    for s, v in f.items_sorted()[:3]:
        for u, m in ball.items_sorted():
            assert out.value(tuple(a + b for a, b in zip(s, u))) == v * m


def test_ball_past_support_budget_is_pulled(monkeypatch):
    # the k-ball of Z^3 at lam_max = 9 has 123 points; under a budget of 100 every
    # profile is pulled, with no k-ball built, and the outputs keep their bytes
    rng = random.Random(9)
    spec = SphereSpec(3, 2)
    f = random_function(rng, 3, size=5, span=4, nonnegative=True)
    g = random_function(rng, 3, size=4, span=4, nonnegative=True)
    cfg = OperatorConfig(spec, 2, 9, Normalization.ASYMPTOTIC)
    assert sum(rep_counts(spec, 9).counts) == 123
    monkeypatch.setattr(operators, "_CHUNK_ROWS", 64)
    balls = []
    ball_offsets = operators._ball_offsets
    monkeypatch.setattr(operators, "_ball_offsets", lambda *a: balls.append(a) or ball_offsets(*a))
    outputs = []
    for budget in (grids.DEFAULT_SUPPORT_BUDGET, 100):
        monkeypatch.setattr(grids, "DEFAULT_SUPPORT_BUDGET", budget)
        balls.clear()
        outputs.append([
            repr(multilinear_average([f, g], 9, cfg).items_sorted()),
            repr(domination_check(f, g, spec, 9)),
            repr(domination_check(g, f, spec, 9)),
        ])
        assert bool(balls) == (budget != 100)
    assert outputs[0] == outputs[1]


def line_and_far_point(n: int) -> GridFunction:
    """n - 1 points (i, 0) and (300, 300) in Z^2: at lam_max = 9 a common box of 307 segments of
    307 rows, and a k-ball of 7 runs, so n * 7 (point, run) pairs for the smallest support."""
    return GridFunction(2, {**{(i, 0): 1.0 + i % 3 for i in range(n - 1)}, (300, 300): 0.5})


def test_box_walk_is_bounded(monkeypatch):
    # the smallest support's reach is walked at any support budget, in bands of at most
    # min(2^18, budget) // 7 points, with the same bytes; only a call that builds no stencil
    # walks the box, a chunk a step, and a walk of more steps than the budget is refused first
    spec = SphereSpec(2, 2)
    f = line_and_far_point(60)
    walked, walk = [], operators._Stencil.walk
    monkeypatch.setattr(operators._Stencil, "walk", lambda *a: walked.append(a[1]) or walk(*a))
    reprs = []
    for budget in (10**7, 400, 100):        # 420 (point, run) pairs in all
        monkeypatch.setattr(grids, "DEFAULT_SUPPORT_BUDGET", budget)
        walked.clear()
        reprs.append(repr(domination_check(f, f, spec, 9)))
        assert walked == [0]
    assert reprs[0] == reprs[1] == reprs[2]
    # the k-ball of 29 points passes a budget of 28: no stencil, and 3007^2 rows in 8192-row chunks
    g = GridFunction(2, {(0, 0): 1.0, (3000, 3000): 0.5})
    monkeypatch.setattr(grids, "DEFAULT_SUPPORT_BUDGET", 28)
    with pytest.raises(BudgetError, match="box walk steps: 1104 exceeds the budget of 28"):
        domination_check(g, g, spec, 9)
    assert walked == [0]


def test_reach_walk_holds_one_band(monkeypatch):
    # the 790-point shape, smaller: 360 points of {0..9} x {0..5}^2 x {0}^2 and a far point in
    # Z^5 at lam_max = 12 send 361 x 761 (point, run) pairs; with 2^14 cells a band holds 21
    # points, so the walk takes bands of one first coordinate, one at a time
    monkeypatch.setattr(operators, "_CHUNK_CELLS", 1 << 14)
    cube = itertools.product(range(10), range(6), range(6))
    f = GridFunction(5, {**{(x, y, z, 0, 0): 1 + i % 7 / 8 for i, (x, y, z) in enumerate(cube)},
                         (200,) * 5: 0.5})
    live = hl_maximal(f, SphereSpec(5, 2), 12).support_size()
    tracemalloc.start()
    try:
        rows = sum(len(flat) for _, flat, _ in operators._engine([f], 2, 12)[2])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows == live
    assert peak < 8 * 2**20, peak       # all the pairs at once: about 22 MiB


def test_band_past_the_support_budget_is_refused_before_its_arrays(monkeypatch):
    # 10^4 points crowded into x = 0 of Z^4, and as many at x = 7 to start the box at x = 0: at
    # lam_max = 49 the walk's first band, x = 0, takes the 149 runs of B with prefix (0, ., .)
    # from every point; 1.49 M pairs pass a budget of 20000 and are never built
    monkeypatch.setattr(operators, "_CHUNK_CELLS", 1 << 14)     # segments of the last axis
    square = list(itertools.product(range(100), repeat=2))
    f, g = (GridFunction(4, {(x, y, 0, z): 1.0 for y, z in square}) for x in (0, 7))
    monkeypatch.setattr(grids, "DEFAULT_SUPPORT_BUDGET", 20000)    # past the k-ball's 11833
    live = operators._engine([f, g], 2, 49)[2]
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match=r"\(point, run\) pairs of one walk band: 1490000 "):
            next(live)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1490000 * 8 // 16, peak


def test_outputs_independent_of_band_size(monkeypatch):
    # two inputs clustered on x = 0..3 of Z^3, 50 and 40 points to a first coordinate: with 2^10
    # cells a band holds 35 points, so each band is one first coordinate and cuts the units the
    # default single band gathers across first coordinates; every output keeps its bytes
    rng = random.Random(30)
    spec = SphereSpec(3, 2)
    square = list(itertools.product(range(30), repeat=2))
    f, g = (GridFunction(3, {(x, *p): rng.uniform(0.1, 1.0)
                             for x in range(4) for p in rng.sample(square, n)}) for n in (50, 40))
    monkeypatch.setattr(operators, "_CHUNK_ROWS", 64)       # the same segments in both
    bands, within = [], operators._within_budget
    monkeypatch.setattr(operators, "_within_budget",
                        lambda n, what, *a: bands.append(what) or within(n, what, *a))
    outputs = []
    # one band a walk, then one for each of the 10 first coordinates of the box
    for cells, per_walk in ((operators._CHUNK_CELLS, 1), (1 << 10, 10)):
        monkeypatch.setattr(operators, "_CHUNK_CELLS", cells)
        bands.clear()
        outs = _grid_outputs(f, g, spec, 9)
        outputs.append([[a.tobytes() for a in out.arrays()] for out in outs.values()])
        outputs[-1].append(repr(domination_check(f, g, spec, 9)))
        assert bands.count("(point, run) pairs of one walk band") == 5 * per_walk
    assert outputs[0] == outputs[1]


def test_one_chunk_calls_build_no_ball(monkeypatch):
    # a box of one chunk is pulled: no k-ball and no count table are built for it
    rng = random.Random(12)
    spec = SphereSpec(2, 2)
    fs = [random_function(rng, 2) for _ in range(2)]
    cfg = OperatorConfig(spec, 2, 40, Normalization.ASYMPTOTIC)
    work = []
    monkeypatch.setattr(operators, "_ball_offsets", lambda *a: work.append("ball"))
    monkeypatch.setattr(operators.DEFAULT_CACHE, "table", lambda *a: work.append("table"))
    assert multilinear_average(fs, 40, cfg).support_size() > 0
    assert multilinear_maximal(fs, cfg).support_size() > 0
    assert hl_maximal(fs[0], spec, 40).support_size() > 0
    assert work == []


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


_PAST_THE_LEVEL_RULE = operators._CHUNK_CELLS     # a row of lam + 1 levels passes a chunk
_LEVEL_RULE_CALLS = {
    "average": lambda fs, spec, lam: multilinear_average(fs, lam, OperatorConfig(spec, 2, lam)),
    "maximal": lambda fs, spec, lam: multilinear_maximal(fs, OperatorConfig(spec, 2, lam)),
    "hl": lambda fs, spec, lam: hl_maximal(fs[0], spec, lam),
    "spherical": lambda fs, spec, lam: linear_spherical_maximal(fs[0], spec, lam),
    "domination": lambda fs, spec, lam: domination_check_multilinear(fs, spec, lam),
}


@pytest.mark.parametrize("call", list(_LEVEL_RULE_CALLS.values()), ids=list(_LEVEL_RULE_CALLS))
def test_level_rule_refuses_before_any_array_of_levels(call, monkeypatch):
    # the rule runs where every operator starts: no norms, M or S weights, count table or engine
    # yet, and nothing near the 2 MB of one float64 row of levels is allocated
    work = []
    for name in ("_norm_factors", "_hl_reduction", "_engine"):
        monkeypatch.setattr(operators, name, lambda *args, name=name: work.append(name))
    monkeypatch.setattr(operators.DEFAULT_CACHE, "table", lambda *args: work.append("table"))
    spec, fs = SphereSpec(2, 2), [make_delta(2), make_delta(2)]
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError) as err:
            call(fs, spec, _PAST_THE_LEVEL_RULE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == "chunk cells of one row of levels: 262145 exceeds the budget of 262144"
    assert work == [] and peak < 2**20, (work, peak)
    # the parameter checks come first
    with pytest.raises(ParameterError):
        call([make_delta(3)] * 2, spec, _PAST_THE_LEVEL_RULE)


def test_level_rule_reads_the_level_an_average_evaluates():
    spec = SphereSpec(1, 2)
    cfg = OperatorConfig(spec, 2, 10**9)
    assert multilinear_average([make_delta(1)] * 2, 2, cfg).values == {(-1,): 0.25, (1,): 0.25}
    with pytest.raises(BudgetError):
        multilinear_average([make_delta(1)] * 2, _PAST_THE_LEVEL_RULE, cfg)
    with pytest.raises(ParameterError):     # lam outside [lambda_min, lambda_max] first
        multilinear_average([make_delta(1)] * 2, 10**9 + 1, cfg)


def test_asymptotic_norm_past_the_float_range_is_refused():
    # T_60 of 400 copies of box:1 on Z is C(400, 60) 2^60 / 60^199 at the origin, about
    # 10^-263.6, but 60^199 passes the float range: refused, not divided through; 35^199, about
    # 10^307.3, keeps its bits
    spec = SphereSpec(1, 2)
    cfg = OperatorConfig(spec, 400, 60, Normalization.ASYMPTOTIC)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BudgetError, match=r"^asymptotic norm 60\^199.0: inf exceeds"):
            multilinear_average([make_box_indicator(1, 1)] * 400, 60, cfg)
        norms = operators._norm_factors(spec, 400, Normalization.ASYMPTOTIC, 35)
    lam = np.arange(36, dtype=np.float64)
    lam[0] = 1.0
    assert np.isfinite(norms).all() and norms.tobytes() == (lam**199.0).tobytes()


def test_output_support_budget(monkeypatch):
    # M(box) on Z^2 at lam_max = 9 is nonzero on 61 points; the output is
    # refused while it is built, before any GridFunction of it exists
    args = (make_box_indicator(2, 1), SphereSpec(2, 2), 9)
    monkeypatch.setattr(grids, "DEFAULT_SUPPORT_BUDGET", 61)
    assert hl_maximal(*args).support_size() == 61
    monkeypatch.setattr(grids, "DEFAULT_SUPPORT_BUDGET", 60)
    with pytest.raises(BudgetError):
        hl_maximal(*args)


@pytest.mark.parametrize("dim", [0, 1, 2, 3])
@pytest.mark.parametrize("degree", [2, 3])
def test_ball_offsets_are_the_shells_up_to_lambda(dim, degree):
    # dim 0 is the empty point at level 0, which every descent starts from
    for lam_max in (1, 9, 40):
        want = sorted(u for nu in range(lam_max + 1) for u in brute_shell(dim, degree, nu))
        got, levels = counts._ball_offsets(dim, degree, lam_max)
        assert got.dtype == np.int64 and got.shape == (dim, len(want))
        assert [tuple(u) for u in got.T.tolist()] == want
        assert levels.tolist() == [sum(abs(c) ** degree for c in u) for u in want]
        if dim:     # SphereSpec needs dim >= 1
            assert len(want) == sum(rep_counts(SphereSpec(dim, degree), lam_max).counts)


def test_level_convolve_sparse_rows_match_dense_update():
    # profiles are (levels, rows); the dense update, term by term, with no skipped rows or levels
    def dense(a, b):
        out = np.zeros_like(a)
        for mu in range(a.shape[0]):
            out[mu:] += a[mu][None, :] * b[: a.shape[0] - mu]
        return out

    rng = np.random.default_rng(11)
    n, width = 40, 17
    a = rng.uniform(-1, 1, size=(width, n))
    b = rng.uniform(-1, 1, size=(width, n))
    a[rng.random((width, n)) < 0.9] = 0.0        # most levels below n/4 rows
    a[3] = rng.uniform(-1, 1, size=n)             # one dense level
    a[5] = 0.0                                    # one empty level
    a[:, 7] = 0.0                                 # all-zero rows in a and b
    b[:, 9] = 0.0
    b[rng.random((width, n)) < 0.3] = 0.0
    counts = np.count_nonzero(a, axis=1)
    assert (4 * counts < n).any() and (4 * counts >= n).any() and (counts == 0).any()
    assert operators._level_convolve(a, b).tobytes() == dense(a, b).tobytes()
    assert operators._level_convolve(b, a).tobytes() == dense(b, a).tobytes()
    # with b holding inf a zero of a adds no term: the dense level a[3] is 0 on row 7, where
    # 0 * inf would be nan
    b[2, 7] = b[4, 12] = np.inf
    termwise = np.zeros_like(a)
    for mu, r in zip(*np.nonzero(a)):
        termwise[mu:, r] += a[mu, r] * b[: width - mu, r]
    assert np.isinf(termwise).any() and not np.isnan(termwise).any()
    assert operators._level_convolve(a, b).tobytes() == termwise.tobytes()


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


def test_m_and_s_copy_no_profile(monkeypatch):
    # a chunk at lam_max = 2000 holds 2001 levels x 131 rows, here with one level of mass per
    # row: M and S read those levels in place, with no copy of the 2 MiB profile
    reductions = []
    monkeypatch.setattr(operators, "_evaluate", lambda fs, degree, lam, reduce: reductions.append(reduce))
    hl_maximal(make_delta(2), SphereSpec(2, 2), 2000)
    linear_spherical_maximal(make_delta(2), SphereSpec(2, 2), 2000)
    rng = np.random.default_rng(2001)
    prof = np.zeros((2001, 131))
    prof[rng.integers(0, 2001, 131), np.arange(131)] = rng.uniform(0.1, 1.0, 131)
    for reduce in reductions:
        tracemalloc.start()
        try:
            reduce([prof])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < prof.nbytes // 8, peak


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
    with pytest.raises(ParameterError):
        OperatorConfig(spec, 2, 4, "exact")     # a name, not a Normalization
    with pytest.raises(ParameterError):
        multilinear_average([make_delta(2)] * 2, 5, OperatorConfig(spec, 2, 4))
    with pytest.raises(ParameterError):
        operators.domination_check_multilinear([make_delta(2)], spec, 4)


@pytest.mark.parametrize("f, spec, lam_max, message", [
    # two points of 1e308 sum past the float range: M(f) at (-1, 0, 0, 0, 0) is inf
    (GridFunction(5, {(0, 0, 0, 0, 0): 1e308, (1, 0, 0, 0, 0): 1e308}), SphereSpec(5, 2), 4,
     "the value at (-1, 0, 0, 0, 0) must be a finite real number, got inf"),
    # the output box is the support dilated by 3, past 2^62
    (GridFunction(1, {(2**62 - 1,): 1.0}), SphereSpec(1, 2), 9,
     "a coordinate of magnitude 4611686018427387906 is not below 2^62"),
], ids=["non-finite-value", "coordinate-past-2^62"])
def test_operator_outputs_obey_the_value_and_coordinate_rules(f, spec, lam_max, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)      # the overflow is refused, not warned
        with pytest.raises(ParameterError) as err:
            hl_maximal(f, spec, lam_max)
    assert str(err.value) == message


def test_domination_refuses_sides_past_the_float_range():
    # M(f) * S~(f) overflows to inf, where LHS - RHS is -inf or nan (inf - inf) and no
    # violation would beat it: the first live row, in row order, is named instead
    f = GridFunction(5, {(0, 0, 0, 0, 0): 1e308, (1, 0, 0, 0, 0): 1e308})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ParameterError) as err:
            domination_check(f, f, SphereSpec(5, 2), 4)
    assert str(err.value) == ("the domination sides at (-2, 0, 0, 0, 0) must be finite, "
                              "got LHS 0.0 and majorant inf")


def test_overflow_outcomes_do_not_depend_on_the_chunking(monkeypatch):
    # g's level-1 sum at x = 0 is inf, where f's profile is 0: that zero adds no term, so the
    # outcome does not depend on which rows share a chunk with x = 0
    f, g = make_delta(1), GridFunction(1, {(-1,): 1e308, (1,): 1e308})
    cfg = OperatorConfig(SphereSpec(1, 2), 2, 2, Normalization.EXACT)
    three = [GridFunction(2, {(-1, -1): 1.0, (1, -2): 0.5, (1, 2): 0.5}),
             GridFunction(2, {(1, 2): 1e308, (2, 0): 1.0}),
             GridFunction(2, {(-1, -2): 1e308, (2, 0): 1e308})]
    for chunk_rows in (1, 2, 8192):
        monkeypatch.setattr(operators, "_CHUNK_ROWS", chunk_rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert multilinear_average([f, g], 2, cfg).values == {}, chunk_rows
            with pytest.raises(ParameterError) as err:
                multilinear_maximal([f, g], cfg)
            assert str(err.value) == "the value at (0,) must be a finite real number, got inf"
            with pytest.raises(ParameterError) as err:
                domination_check_multilinear(three, SphereSpec(2, 2), 6)
            assert str(err.value) == ("the domination sides at (1, 0) must be finite, "
                                      "got LHS 2.7777777777777777e+306 and majorant inf")


def test_domination_refusal_names_both_factors_of_a_nan_majorant(monkeypatch):
    # M(f_1) is inf at (-2, 1), where the spherical factor is 0.0: their product is nan, so the
    # message names both factors, at every chunking
    three = [GridFunction(2, {(-2, 2): 1e308, (0, 2): 1e308}),
             GridFunction(2, {(0, -2): 1.0, (0, 2): 0.5}),
             GridFunction(2, {(0, 2): 1.0, (1, 0): 1.0})]
    for chunk_rows in (1, 2, 8192):
        monkeypatch.setattr(operators, "_CHUNK_ROWS", chunk_rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ParameterError) as err:
                domination_check_multilinear(three, SphereSpec(2, 2), 6)
        assert str(err.value) == ("the domination sides at (-2, 1) must be finite, "
                                  "got LHS 0.0 and majorant inf * 0.0"), chunk_rows


def _grid_outputs(f, g, spec, lam_max):
    """Each operator's GridFunction output, by name."""
    exact = OperatorConfig(spec, 2, lam_max, Normalization.EXACT)
    asym = OperatorConfig(spec, 2, lam_max, Normalization.ASYMPTOTIC)
    return {
        "average": multilinear_average([f, g], lam_max, exact),
        "maximal": multilinear_maximal([f, g], asym),
        "hl_maximal": hl_maximal(g, spec, lam_max),
        "spherical_maximal": linear_spherical_maximal(g, spec, lam_max),
    }


def test_engine_outputs_equal_the_public_constructor():
    # domination_check returns a report; the other entry points return the engine's arrays
    rng = random.Random(21)
    spec = SphereSpec(3, 2)
    cases = [(make_box_indicator(3, 1), random_function(rng, 3, size=6, span=4)),
             (random_function(rng, 3, size=5, span=5), random_function(rng, 3, size=7, span=5))]
    for f, g in cases:
        for name, out in _grid_outputs(f, g, spec, 9).items():
            ref = GridFunction(out.dim, dict(out.values))
            assert out == ref and out.support_size() == ref.support_size() > 0, name
            assert out.items_sorted() == ref.items_sorted() and out.bbox == ref.bbox, name
            for got, want, dtype in zip(out.arrays(), ref.arrays(), (np.int64, np.float64)):
                assert got.dtype == want.dtype == dtype, name
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
            for arr in (*out.arrays(), *ref.arrays()):
                with pytest.raises(ValueError):
                    arr[:1] = 0


def test_empty_outputs_equal_the_empty_function():
    spec = SphereSpec(2, 2)
    far = GridFunction(2, {(6, 6): 1.0})
    with pytest.warns(EmptySphereWarning):
        empty_sphere = multilinear_average([make_delta(1)] * 2, 3,
                                           OperatorConfig(SphereSpec(1, 3), 2, 3))
    outs = [
        empty_sphere,
        # the box is the single row (3, 3), at level 18 > 15 from both inputs: no live rows
        multilinear_maximal([make_delta(2), far], OperatorConfig(spec, 2, 15)),
        # boxes that do not meet
        multilinear_average([make_delta(2), far], 4, OperatorConfig(spec, 2, 4)),
    ]
    for out in outs:
        assert out == GridFunction(out.dim, {}) and out.support_size() == 0 and out.bbox is None
        pts, vals = out.arrays()
        assert pts.shape == (0, out.dim) and pts.dtype == np.int64
        assert vals.shape == (0,) and vals.dtype == np.float64


def test_operators_build_no_point_dict(monkeypatch):
    # inputs and outputs stay arrays: a dict view is built only when values or value() is read
    def no_dict(self):
        raise AssertionError("a point dict was built")

    rng = random.Random(4)
    spec = SphereSpec(3, 2)
    f = make_box_indicator(3, 1)
    g = random_function(rng, 3, size=6, span=4, nonnegative=True)
    monkeypatch.setattr(GridFunction, "_dict", no_dict)
    outs = list(_grid_outputs(f, g, spec, 9).values())
    outs.append(multilinear_maximal([f, g], OperatorConfig(spec, 2, 9)))
    domination_check(f, g, spec, 9)
    domination_check_multilinear([g, f, g], spec, 9)
    assert all(out.support_size() > 0 for out in outs)
