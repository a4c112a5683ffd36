import gc
import io
import math
import random
import tracemalloc

import pytest

from spherelab import (
    AnalysisError,
    BudgetError,
    ParameterError,
    RangeError,
    SphereSpec,
    TableCache,
    enumerate_shell,
    growth_exponent_fit,
    joint_count,
    rep_counts,
)
from spherelab import _convolve
from spherelab._convolve import (
    _SPARSE_FIXED_PAIRS,
    _SPARSE_PAIRS_PER_COEFF,
    convolve_trunc,
    power_trunc,
)
from spherelab.counts import kth_root_floor, write_counts_csv, write_shell_csv

from oracles import brute_convolve, brute_rep_count_table, brute_shell


def test_one_dim_squares_table():
    table = rep_counts(SphereSpec(1, 2), 4)
    assert list(table.counts) == [1, 2, 0, 0, 2]


def test_two_squares_25():
    assert rep_counts(SphereSpec(2, 2), 25).count(25) == 12


def test_four_squares_2():
    assert rep_counts(SphereSpec(4, 2), 2).count(2) == 24


def test_two_cubes_9():
    assert rep_counts(SphereSpec(2, 3), 9).count(9) == 8


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("degree", [2, 3, 4])
def test_counts_match_brute_force(dim, degree):
    table = rep_counts(SphereSpec(dim, degree), 80)
    assert list(table.counts) == brute_rep_count_table(dim, degree, 80)


def test_counts_zero_entry_and_sign_parity():
    table = rep_counts(SphereSpec(3, 2), 500)
    assert table.count(0) == 1
    for mu in range(1, 501):
        assert table.count(mu) % 2 == 0


def test_convolution_identity_random_splits():
    lam_max = 2000
    rng = random.Random(7)
    for degree in (2, 3):
        tables = {m: list(rep_counts(SphereSpec(m, degree), lam_max).counts) for m in range(1, 9)}
        for _ in range(10):
            a = rng.randint(1, 7)
            b = rng.randint(1, 8 - a)
            assert convolve_trunc(tables[a], tables[b], lam_max + 1) == tables[a + b]


def test_parameter_errors():
    with pytest.raises(ParameterError):
        SphereSpec(0, 2)
    with pytest.raises(ParameterError):
        SphereSpec(2, 1)
    with pytest.raises(ParameterError):
        rep_counts(SphereSpec(2, 2), -1)
    with pytest.raises(ParameterError):
        kth_root_floor(-1, 2)


def test_joint_count_matches_examples():
    assert joint_count(SphereSpec(2, 2), 2, 2) == 24
    assert joint_count(SphereSpec(3, 2), 2, 0) == 1
    assert joint_count(SphereSpec(5, 2), 2, 1) == 20


def test_joint_count_paths_agree():
    for dim, degree, ell in [(1, 2, 2), (2, 2, 2), (2, 2, 3), (2, 3, 2), (3, 2, 2)]:
        spec = SphereSpec(dim, degree)
        for lam in range(0, 40):
            base = list(rep_counts(spec, lam).counts)
            folded = base
            for _ in range(ell - 1):
                folded = brute_convolve(folded, base, lam + 1)
            assert joint_count(spec, ell, lam) == folded[lam], (dim, degree, ell, lam)


def test_table_cache_keeps_largest_table_per_spec():
    cache = TableCache()
    spec = SphereSpec(3, 2)
    answers = {lam: cache.table(spec, lam) for lam in (10, 50, 20)}
    assert len(cache._tables) == 1
    assert cache._tables[(3, 2)].lambda_max == 50
    for lam, tab in answers.items():
        fresh = rep_counts(spec, lam)
        assert tab.counts[: lam + 1] == fresh.counts
        assert [tab.count(mu) for mu in range(lam + 1)] == list(fresh.counts)


_DIGIT_EDGE_BOUNDS = {
    "bound_10^6-1": 10**6 - 1,
    "bound_10^6": 10**6,
    "bound_10^30-1": 10**30 - 1,
    "bound_10^30": 10**30,
}


def _dense_inputs(case):
    rng = random.Random(case)
    if case == "random_wide":  # coefficients around r_{10,2}(10^5) ~ 10^36
        a = [rng.randrange(2**64, 2**128) for _ in range(3000)]
        b = [rng.randrange(1, 2**100) for _ in range(800)]
        return a, b, 3000
    if case == "constant_max":  # coefficient n_out - 1 equals the slot bound
        m = 2**80 - 1
        return [m] * 1500, [m] * 1500, 1500
    if case in _DIGIT_EDGE_BOUNDS:  # slot bound 10^j - 1 or 10^j exactly
        bound = _DIGIT_EDGE_BOUNDS[case]
        n = 1600 if bound % 1600 == 0 else 2079  # 2079 divides 10^6 - 1 and 10^30 - 1
        return [1] * n, [bound // n] * n, n
    if case == "trailing_zeros":  # top slots are zero, so the product string is short
        a = [rng.randrange(1, 2**70) for _ in range(1500)] + [0] * 200
        b = [rng.randrange(1, 2**70) for _ in range(1500)] + [0] * 200
        return a, b, len(a) + len(b) - 1
    if case == "square_wide":  # one list as both operands: 46-digit slots, three limbs
        a = [rng.randrange(2**63, 2**70) for _ in range(1500)]
        return a, a, 1500
    if case == "n_out_beyond_product":
        a = [rng.randrange(1, 2**40) for _ in range(1500)]
        b = [rng.randrange(1, 2**40) for _ in range(1500)]
        return a, b, len(a) + len(b) + 100
    raise ValueError(case)


@pytest.mark.parametrize(
    "case",
    ["random_wide", "constant_max", *_DIGIT_EDGE_BOUNDS, "trailing_zeros", "square_wide",
     "n_out_beyond_product"],
)
def test_dense_convolution_matches_brute(case):
    a, b, n_out = _dense_inputs(case)
    nnz_a = sum(1 for v in a if v)
    nnz_b = sum(1 for v in b if v)
    # the dense branch is under test
    assert nnz_a * nnz_b > _SPARSE_PAIRS_PER_COEFF * n_out + _SPARSE_FIXED_PAIRS
    assert (a is b) == (case == "square_wide")
    got = convolve_trunc(a, b, n_out)
    assert got == brute_convolve(a, b, n_out)
    assert all(type(c) is int for c in got)
    if case == "constant_max" or case in _DIGIT_EDGE_BOUNDS:
        assert got[n_out - 1] == min(sum(a) * max(b), sum(b) * max(a))


def test_convolution_with_a_zero_operand_or_no_output_coefficients():
    # both go by the sparse path, a dense-sized pair too when n_out is 0
    assert convolve_trunc([0, 0], [1, 2], 3) == [0, 0, 0]
    assert convolve_trunc([1, 2], [1, 2], 0) == []
    assert convolve_trunc([1] * 100, [1] * 100, 0) == []


def _sparse_square_weights(n_out, seed):
    """Random weights on the squares below n_out: the first steps of a power are sparse."""
    rng = random.Random(seed)
    g = [0] * n_out
    for m in range(math.isqrt(n_out - 1) + 1):
        g[m * m] = rng.randrange(1, 2**20)
    return g


def test_power_trunc_matches_folded_brute(monkeypatch):
    n_out = 400
    g = _sparse_square_weights(n_out, 11)
    steps = []

    def spy(a, b, n):
        pairs = (len(a) - a.count(0)) * (len(b) - b.count(0))
        steps.append(pairs > _SPARSE_PAIRS_PER_COEFF * n + _SPARSE_FIXED_PAIRS)
        return convolve_trunc(a, b, n)

    monkeypatch.setattr(_convolve, "convolve_trunc", spy)
    folded = [1] + [0] * (n_out - 1)
    for e in range(13):
        steps.clear()
        assert power_trunc(g, e, n_out) == folded, e
        if e >= 4:
            assert any(steps), e  # a dense step ran
        folded = brute_convolve(folded, g, n_out)


def test_power_trunc_routes_each_step_through_the_module_global(monkeypatch):
    # perfbench wraps _convolve.convolve_trunc to time every step of a table build
    g = _sparse_square_weights(3000, 12)
    squares = []

    def spy(a, b, n):
        squares.append(a is b)
        return convolve_trunc(a, b, n)

    monkeypatch.setattr(_convolve, "convolve_trunc", spy)
    power_trunc(g, 10, 3000)
    assert squares == [True, True, False, True]  # g^2, g^4, g^5, g^10


def test_count_table_working_memory_is_bounded():
    tracemalloc.start()
    try:
        table = rep_counts(SphereSpec(10, 2), 2**15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.count(2**15) > 2**63
    assert peak < 10 * 2**20


def test_joint_count_range_error():
    with pytest.raises(RangeError):
        joint_count(SphereSpec(2, 2), 2, -3)
    with pytest.raises(RangeError):
        rep_counts(SphereSpec(2, 2), 10).count(11)


def test_kth_root_floor_exact():
    for k in (2, 3, 4, 5):
        for m in range(0, 3000):
            r = kth_root_floor(m, k)
            assert r**k <= m < (r + 1) ** k
    # far beyond float range, and at both sides of exact powers
    for k in (3, 5):
        r = kth_root_floor(10**400, k)
        assert r**k <= 10**400 < (r + 1) ** k
        for root in (2, 10**20 + 3, 7**150, 10**90):
            assert kth_root_floor(root**k - 1, k) == root - 1
            assert kth_root_floor(root**k, k) == root


def test_shell_examples():
    shell = enumerate_shell(SphereSpec(2, 2), 25)
    assert len(shell.points) == 12
    expected = {(5, 0), (0, 5), (3, 4), (4, 3)}
    signed = {
        (sx * a, sy * b)
        for (a, b) in expected
        for sx in (-1, 1)
        for sy in (-1, 1)
    }
    assert set(shell.points) == signed
    assert enumerate_shell(SphereSpec(3, 2), 0).points == ((0, 0, 0),)
    assert enumerate_shell(SphereSpec(2, 2), 3).points == ()


def _as_int_tuples(points):
    assert all(type(c) is int for p in points for c in p)
    return tuple(tuple(p) for p in points)


def test_shell_is_sorted_and_matches_brute():
    cases = [(d, k, lam) for d in (1, 2, 3, 4) for k in (2, 3, 4) for lam in range(61)]
    cases += [(5, 2, lam) for lam in range(41)]
    for dim, degree, lam in cases:
        shell = enumerate_shell(SphereSpec(dim, degree), lam)
        assert type(shell.points) is tuple
        assert _as_int_tuples(shell.points) == tuple(brute_shell(dim, degree, lam)), (dim, degree, lam)
        assert list(shell.points) == sorted(shell.points)
    assert enumerate_shell(SphereSpec(1, 2), 10**30).points == ((-(10**15),), (10**15,))
    assert enumerate_shell(SphereSpec(1, 3), 10**30 + 1).points == ()


def test_shell_oracle_frees_its_lists():
    # with the collector off, lists that sit in a reference cycle stay allocated
    gc.disable()
    tracemalloc.start()
    try:
        for _ in range(20):
            brute_shell(5, 2, 40)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert kept < 1 << 20


def test_shell_sparse_at_large_level():
    # r_2(10^12) = 4 * 13 points on an axis of 2 * 10^6 + 1 values
    points = enumerate_shell(SphereSpec(2, 2), 10**12).points
    assert len(points) == 52 and list(points) == sorted(points)
    assert all(x * x + y * y == 10**12 for x, y in _as_int_tuples(points))


def test_shell_budget(monkeypatch):
    # shell --dim 10 --lambda 100000 is tested in a child process, under a memory limit
    with pytest.raises(BudgetError):
        enumerate_shell(SphereSpec(2, 40), 2**62)       # levels near int64
    with pytest.raises(BudgetError, match="points on the first axis of a k-ball of level "
                                          "100000000000000: 20000001 exceeds the budget of 10000000"):
        enumerate_shell(SphereSpec(2, 2), 10**14)       # the first axis alone
    assert len(enumerate_shell(SphereSpec(2, 40), 2**62 - 1).points) == 0
    # r_4(100) = 744 points, from two 317-point half-balls
    monkeypatch.setattr("spherelab.grids.DEFAULT_SUPPORT_BUDGET", 744)
    assert len(enumerate_shell(SphereSpec(4, 2), 100).points) == 744
    for budget in (743, 316):
        monkeypatch.setattr("spherelab.grids.DEFAULT_SUPPORT_BUDGET", budget)
        with pytest.raises(BudgetError):
            enumerate_shell(SphereSpec(4, 2), 100)


def test_shell_working_memory_is_bounded():
    # 94,752 points of 5 ints: the tuples alone take about 8 MiB
    tracemalloc.start()
    try:
        shell = enumerate_shell(SphereSpec(5, 2), 500)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(shell.points) == 94752
    assert peak < 16 * 2**20


def test_shell_length_equals_count():
    table = rep_counts(SphereSpec(3, 2), 60)
    for lam in range(61):
        assert len(enumerate_shell(SphereSpec(3, 2), lam).points) == table.count(lam)


def test_shell_symmetry_under_signs_and_permutations():
    shell = set(enumerate_shell(SphereSpec(3, 2), 14).points)
    assert shell  # 1+4+9
    for p in shell:
        assert tuple(-c for c in p) in shell
        assert (p[1], p[0], p[2]) in shell
        assert (p[2], p[1], p[0]) in shell


def test_growth_fit_dimension_six_small():
    # composed dimension 6 at modest lambda already fits slope 2 loosely
    table = rep_counts(SphereSpec(6, 2), 2**14)
    report = growth_exponent_fit(table, (2**8, 2**14))
    assert report.expected_slope == 2.0
    assert abs(report.fitted_slope - 2.0) <= 0.1


def test_growth_fit_rejects_narrow_window():
    table = rep_counts(SphereSpec(2, 2), 100)
    with pytest.raises(ParameterError):
        growth_exponent_fit(table, (5, 9))
    for window in ((1, 1), (2, 3), (3, 7)):
        with pytest.raises(ParameterError, match="spans 1 dyadic blocks"):
            growth_exponent_fit(table, window)


@pytest.mark.parametrize("window, slope, blocks", [
    ((1, 3), 3.196397212803503, "2^0..2^2 (2 blocks)"),
    ((2, 7), 2.232660756790275, "2^1..2^3 (2 blocks)"),
    ((3, 15), 2.072779215308519, "2^2..2^4 (2 blocks)"),
    ((1024, 2**17), 2.000090709690249, "2^10..2^17 (7 blocks)"),
    ((1025, 2**17 - 1), 2.0000599677643685, "2^11..2^17 (6 blocks)"),
])
def test_growth_fit_blocks_at_window_edges(window, slope, blocks):
    # a block [2^j, 2^(j+1)) is fitted when it lies inside the window; ends at 2^j - 1, 2^j and
    # 2^j + 1 move the first or last block
    report = growth_exponent_fit(rep_counts(SphereSpec(6, 2), 2**17), window)
    assert report.sample_range == f"dyadic blocks {blocks}"
    assert report.fitted_slope == slope


def test_growth_fit_zero_block_is_analysis_error():
    # dimension 1: the block [2, 4) contains no squares
    table = rep_counts(SphereSpec(1, 2), 64)
    with pytest.raises(AnalysisError):
        growth_exponent_fit(table, (2, 32))


def test_counts_csv_format():
    table = rep_counts(SphereSpec(2, 2), 3)
    buf = io.StringIO()
    write_counts_csv(table, buf)
    assert buf.getvalue() == "lambda,count\n0,1\n1,4\n2,4\n3,0\n"


def test_shell_csv_format():
    shell = enumerate_shell(SphereSpec(2, 2), 1)
    buf = io.StringIO()
    write_shell_csv(shell, buf)
    assert buf.getvalue() == "x1,x2\n-1,0\n0,-1\n0,1\n1,0\n"


def test_counts_are_ints_everywhere():
    table = rep_counts(SphereSpec(10, 2), 50)
    assert all(isinstance(c, int) for c in table.counts)
    # dimension 10 counts grow fast but stay exact
    assert table.count(50) == sum(
        rep_counts(SphereSpec(5, 2), 50).count(nu)
        * rep_counts(SphereSpec(5, 2), 50).count(50 - nu)
        for nu in range(51)
    )
