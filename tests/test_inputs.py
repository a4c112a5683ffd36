"""The input rules: every integer parameter is read by grids._as_int, points and the radii and
window sequences by _as_point, real values by _as_real.

An int, bool or numpy integer is an integer and is stored as a Python int; a float, a str or
None is refused with ParameterError, never truncated or left to fail later with a TypeError.
"""

import ast
import pathlib
from fractions import Fraction

import numpy as np
import pytest

import spherelab
from spherelab import (
    BudgetError,
    GridFunction,
    OperatorConfig,
    ParameterError,
    SphereSpec,
    WitnessSpec,
    critical_r,
    decay_fit,
    domination_check,
    enumerate_shell,
    growth_exponent_fit,
    hl_maximal,
    joint_count,
    linear_spherical_maximal,
    make_box_indicator,
    make_delta,
    multilinear_average,
    p0_bound,
    partial_norm_scan,
    r0_bound,
    region_classify,
    rep_counts,
)

W = WitnessSpec(5, 2, 2, 1)
AXIS = (1, 0, 0, 0, 0)
PLANE = SphereSpec(2, 2)
BOX = make_box_indicator(2, 1)
TABLE = rep_counts(SphereSpec(4, 2), 1024)

# (entry point and parameter, the call with that parameter set to v, a valid v)
INTEGER_PARAMETERS = [
    ("SphereSpec.dim", lambda v: SphereSpec(v, 2), 3),
    ("SphereSpec.degree", lambda v: SphereSpec(3, v), 3),
    ("WitnessSpec.dim", lambda v: WitnessSpec(v, 2, 2, 1), 5),
    ("WitnessSpec.degree", lambda v: WitnessSpec(5, v, 2, 1), 2),
    ("WitnessSpec.linearity", lambda v: WitnessSpec(5, 2, v, 1), 3),
    ("WitnessSpec.box_radius", lambda v: WitnessSpec(5, 2, 2, v), 2),
    ("OperatorConfig.linearity", lambda v: OperatorConfig(PLANE, v, 4), 2),
    ("OperatorConfig.lambda_max", lambda v: OperatorConfig(PLANE, 2, v), 4),
    ("OperatorConfig.lambda_min", lambda v: OperatorConfig(PLANE, 2, 4, lambda_min=v), 2),
    ("rep_counts.lambda_max", lambda v: rep_counts(SphereSpec(3, 3), v), 40),
    ("RepCountTable.count", lambda v: rep_counts(PLANE, 10).count(v), 5),
    ("joint_count.linearity", lambda v: joint_count(PLANE, v, 10), 2),
    ("joint_count.lam", lambda v: joint_count(PLANE, 2, v), 10),
    ("enumerate_shell.lam", lambda v: enumerate_shell(SphereSpec(3, 2), v), 9),
    ("GridFunction.dim", lambda v: GridFunction(v, {(0, 1): 2.0}), 2),
    ("make_delta.dim", make_delta, 3),
    ("make_box_indicator.dim", lambda v: make_box_indicator(v, 1), 2),
    ("make_box_indicator.radius", lambda v: make_box_indicator(2, v), 2),
    ("hl_maximal.lambda_max", lambda v: hl_maximal(BOX, PLANE, v), 5),
    ("linear_spherical_maximal.lambda_max",
     lambda v: linear_spherical_maximal(BOX, SphereSpec(2, 3), v), 9),
    ("domination_check.lambda_max", lambda v: domination_check(BOX, BOX, PLANE, v), 4),
    ("multilinear_average.lam",
     lambda v: multilinear_average([BOX, BOX], v, OperatorConfig(PLANE, 2, 4)), 2),
    ("critical_r.dim", lambda v: critical_r(v, 2, 2), 5),
    ("critical_r.degree", lambda v: critical_r(5, v, 2), 3),
    ("critical_r.linearity", lambda v: critical_r(5, 2, v), 3),
    ("r0_bound.linearity", lambda v: r0_bound(Fraction(1, 2), v), 2),
    ("p0_bound.dim", lambda v: p0_bound(0, v, 2), 5),
    ("p0_bound.degree", lambda v: p0_bound(0, 5, v), 3),
    ("decay_fit.t_lo", lambda v: decay_fit(W, AXIS, (v, 200), num_samples=8), 10),
    ("decay_fit.t_hi", lambda v: decay_fit(W, AXIS, (10, v), num_samples=8), 200),
    ("decay_fit.num_samples", lambda v: decay_fit(W, AXIS, (10, 200), num_samples=v), 8),
    ("partial_norm_scan.radius", lambda v: partial_norm_scan(W, 0.7, [v, 4]), 2),
    ("partial_norm_scan.seed",
     lambda v: partial_norm_scan(W, 0.7, [2, 40], seed=v, samples_per_region=50), 7),
    ("partial_norm_scan.exact_budget",
     lambda v: partial_norm_scan(W, 0.7, [2, 4], exact_budget=v), 1000),
    ("partial_norm_scan.samples_per_region",
     lambda v: partial_norm_scan(W, 0.7, [2, 4], exact_budget=0, samples_per_region=v), 50),
    ("region_classify.dim", lambda v: region_classify(2, 2, 1, v), 5),
    ("growth_exponent_fit.window", lambda v: growth_exponent_fit(TABLE, (v, 1024)), 16),
]


@pytest.mark.parametrize("call, good", [case[1:] for case in INTEGER_PARAMETERS],
                         ids=[case[0] for case in INTEGER_PARAMETERS])
def test_integer_parameters_follow_one_rule(call, good):
    for bad in (float(good), str(good), None):
        with pytest.raises(ParameterError):
            call(bad)
    want, got = call(good), call(np.int64(good))
    assert got == want and repr(got) == repr(want)


def test_t_range_must_be_a_pair():
    for bad in ((10,), (10, 200, 300), 10, None):
        with pytest.raises(ParameterError, match="t_range must be a pair"):
            decay_fit(W, AXIS, bad)


def test_scan_radii_are_python_ints():
    want = partial_norm_scan(W, 0.7, [2, 4])
    for radii in ((2, 4), np.array([2, 4]), np.array([2, 4], dtype=np.int32)):
        got = partial_norm_scan(W, 0.7, radii)
        assert got == want and all(type(R) is int for R in got.radii)


def test_growth_window_is_a_pair_of_integers():
    for bad in ((16.5, 1024), (16,), (16, 1024, 2048), "ab", None):
        with pytest.raises(ParameterError, match="window"):
            growth_exponent_fit(TABLE, bad)
    want = growth_exponent_fit(TABLE, (16, 1024))
    assert growth_exponent_fit(TABLE, (np.int64(16), np.int64(1024))) == want


def test_joint_count_names_lam():
    with pytest.raises(ParameterError, match="lam must be an integer, got 4.0"):
        joint_count(PLANE, 2, 4.0)


def test_scan_r_is_read_once_as_a_float():
    want = repr(partial_norm_scan(W, 0.7, [3, 6]))
    for r in (Fraction(7, 10), np.float64(0.7)):
        assert repr(partial_norm_scan(W, r, [3, 6])) == want
    for bad in ("0.7", b"0.7", np.array("0.7"), None, -0.7, 0):
        with pytest.raises(ParameterError):
            partial_norm_scan(W, bad, [3, 6])


def _calls_outside(function: str, matches) -> list[str]:
    """file:line of each call in the package's modules that matches, outside every function
    named function."""
    found = []
    for path in sorted(pathlib.Path(spherelab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        allowed = {id(node) for fn in ast.walk(tree)
                   if isinstance(fn, ast.FunctionDef) and fn.name == function
                   for node in ast.walk(fn)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and matches(node) and id(node) not in allowed]
    return found


def test_no_hand_written_integer_checks():
    # an isinstance(<x>, int) check outside grids._as_int is a second integer rule: it refuses
    # numpy integers, which every coordinate and parameter accepts
    assert _calls_outside("_as_int", lambda call: (
        isinstance(call.func, ast.Name) and call.func.id == "isinstance" and len(call.args) == 2
        and any(isinstance(n, ast.Name) and n.id == "int" for n in ast.walk(call.args[1])))) == []


def test_no_budget_error_outside_the_budget_rule():
    # a BudgetError built outside grids._within_budget is a second budget rule, with its own
    # wording and perhaps its own copy of the support budget, bound at import
    assert _calls_outside("_within_budget", lambda call: (
        getattr(call.func, "id", getattr(call.func, "attr", None)) == "BudgetError")) == []


def test_oracles_read_nothing_the_acceptance_module_imports_from_the_package():
    # the brute-force oracles are the reference for the library's counts, shells and averages:
    # one that read a count table, shell or operator of the package would check it against itself
    path = pathlib.Path(spherelab.__file__).parent / "acceptance.py"
    tree = ast.parse(path.read_text(), str(path))
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level > 0 for alias in node.names}
    read = {fn.name: {node.id for stmt in fn.body for node in ast.walk(stmt)
                      if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            for fn in tree.body if isinstance(fn, ast.FunctionDef)
            and fn.name in ("brute_rep_count_table", "brute_shell", "brute_multilinear")}
    assert {"rep_counts", "multilinear_average", "_counts"} <= imported and len(read) == 3
    assert {name: names & imported for name, names in read.items()} == dict.fromkeys(read, set())


def test_one_support_budget_for_every_module(monkeypatch):
    # every module reads grids.DEFAULT_SUPPORT_BUDGET at the call, so lowering it alone moves a
    # site in each: a shell of 104 points (half-balls of 29), an output of 61 points, 61 decay
    # samples and a box of 81 points
    box = make_box_indicator(2, 1)
    monkeypatch.setattr(spherelab.grids, "DEFAULT_SUPPORT_BUDGET", 60)
    for what, call in [
        ("shell points", lambda: enumerate_shell(SphereSpec(4, 2), 9)),
        ("operator output points", lambda: hl_maximal(box, PLANE, 9)),
        ("decay samples", lambda: decay_fit(W, AXIS, (10, 200), num_samples=61)),
        ("box points", lambda: make_box_indicator(2, 4)),
    ]:
        with pytest.raises(BudgetError, match=f"^{what}: [0-9]+ exceeds the budget of 60$"):
            call()
