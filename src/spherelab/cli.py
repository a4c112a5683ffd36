"""Command-line orchestration of every experiment.

Conventions shared by all subcommands:

  * long flags only; numeric vectors are comma-separated;
  * the fully resolved configuration is echoed as JSON to stderr, so every
    output is self-describing;
  * files are written atomically (temp file in the target directory, then
    rename);
  * exit codes: 0 success, 1 failed acceptance gate, 2 argument errors,
    3 budget/resource errors, 4 analysis errors (degenerate fits);
  * --threads (fallback: the SPHERELAB_THREADS environment variable) is
    resolved and echoed but changes nothing yet: every computation runs
    sequentially.  Each has a fixed reduction order, so outputs will stay
    byte-identical for any thread count once workers exist.

Input functions for the operator subcommands are written as
  delta | box:L | file:PATH
where PATH uses the grid-function text format (first line d, then
"x1 ... xd value" rows, one per point).
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import sys
import tempfile
import time
import warnings
from fractions import Fraction

from . import acceptance as _accept
from .counts import (
    SphereSpec,
    asymptotic_validity_note,
    enumerate_shell,
    growth_exponent_fit,
    joint_count,
    rep_counts,
    write_counts_csv,
    write_shell_csv,
)
from .errors import AnalysisError, BudgetError, ParameterError
from .grids import GridFunction, make_box_indicator, make_delta, read_grid_text, write_grid_text
from .operators import (
    Normalization,
    OperatorConfig,
    domination_check,
    hl_maximal,
    linear_spherical_maximal,
    multilinear_average,
    multilinear_maximal,
)
from .sharpness import (
    _DEFAULT_SAMPLES,
    _DEFAULT_SEED,
    _EXACT_REGION_BUDGET,
    WitnessSpec,
    critical_r,
    decay_fit,
    p0_bound,
    partial_norm_scan,
    r0_bound,
    region_classify,
    witness_value,
)


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".spherelab-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text: str, out: str | None) -> None:
    if out:
        _atomic_write(out, text)
    else:
        sys.stdout.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _parse_ints(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise ParameterError(f"bad integer list {text!r}") from exc


def _parse_exponent(text: str):
    """Accept decimals ('0.625') and exact fractions ('5/8')."""
    try:
        return Fraction(text) if "/" in text else float(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParameterError(f"bad exponent {text!r}") from exc


def _load_function(spec_text: str, dim: int) -> GridFunction:
    if spec_text == "delta":
        return make_delta(dim)
    if spec_text.startswith("box:"):
        try:
            radius = int(spec_text[4:])
        except ValueError as exc:
            raise ParameterError(f"bad box radius in {spec_text!r}") from exc
        return make_box_indicator(dim, radius)
    if spec_text.startswith("file:"):
        # the format is ASCII: any other byte reads as U+FFFD, which no field matches
        with open(spec_text[5:], "r", encoding="ascii", errors="replace") as handle:
            f = read_grid_text(handle)
        if f.dim != dim:
            raise ParameterError(f"{spec_text}: function has dim {f.dim}, expected {dim}")
        return f
    raise ParameterError(f"bad function spec {spec_text!r}: use delta | box:L | file:PATH")


def _resolve_threads(value: int | None) -> int:
    if value is None:
        env = os.environ.get("SPHERELAB_THREADS")
        if env is not None:
            try:
                value = int(env)
            except ValueError as exc:
                raise ParameterError(f"SPHERELAB_THREADS={env!r} is not an integer") from exc
        else:
            value = os.cpu_count() or 1
    if value < 1:
        raise ParameterError(f"--threads must be >= 1, got {value}")
    return value


def _echo_config(args: argparse.Namespace, threads: int) -> None:
    cfg = {key: value for key, value in vars(args).items() if key != "func"}
    cfg["threads"] = threads
    sys.stderr.write(json.dumps(cfg, sort_keys=True, default=str) + "\n")


def _text(write, obj) -> str:
    buf = io.StringIO()
    write(obj, buf)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------

def _cmd_count(args) -> int:
    table = rep_counts(SphereSpec(args.dim, args.degree), args.lambda_max)
    _emit(_text(write_counts_csv, table), args.out)
    return 0


def _cmd_shell(args) -> int:
    shell = enumerate_shell(SphereSpec(args.dim, args.degree), getattr(args, "lambda"))
    _emit(_text(write_shell_csv, shell), args.out)
    return 0


def _cmd_avg(args) -> int:
    spec = SphereSpec(args.dim, args.degree)
    cfg = OperatorConfig(spec, args.linearity, getattr(args, "lambda"),
                         Normalization(args.normalization))
    fns = [_load_function(s, args.dim) for s in args.fn]
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        result = multilinear_average(fns, getattr(args, "lambda"), cfg)
    _emit(_text(write_grid_text, result), args.out)
    return 0


def _cmd_maxop(args) -> int:
    spec = SphereSpec(args.dim, args.degree)
    cfg = OperatorConfig(spec, args.linearity, args.lambda_max,
                         Normalization(args.normalization), args.lambda_min)
    result = multilinear_maximal([_load_function(s, args.dim) for s in args.fn], cfg)
    _emit(_text(write_grid_text, result), args.out)
    return 0


def _cmd_linear_max(operator, args) -> int:
    spec = SphereSpec(args.dim, args.degree)
    result = operator(_load_function(args.fn, args.dim), spec, args.lambda_max)
    _emit(_text(write_grid_text, result), args.out)
    return 0


def _cmd_dominate(args) -> int:
    spec = SphereSpec(args.dim, args.degree)
    f = _load_function(args.f, args.dim)
    g = _load_function(args.g, args.dim)
    report = domination_check(f, g, spec, args.lambda_max)
    _emit(_json_text(report.as_dict()), args.out)
    return 0


def _cmd_witness(args) -> int:
    spec = WitnessSpec(args.dim, args.degree, args.linearity, args.box)
    point = tuple(_parse_ints(args.point))
    value = witness_value(point, spec, exact=(args.normalization == "exact"))
    _emit(f"{value!r}\n", args.out)
    return 0


def _cmd_decay(args) -> int:
    spec = WitnessSpec(args.dim, args.degree, args.linearity, args.box)
    report = decay_fit(spec, _parse_ints(args.direction), (args.t_min, args.t_max),
                       num_samples=args.samples)
    _emit(_json_text(report.as_dict()), args.out)
    return 0


def _cmd_normscan(args) -> int:
    spec = WitnessSpec(args.dim, args.degree, args.linearity, args.box)
    scan = partial_norm_scan(spec, _parse_exponent(args.r), _parse_ints(args.radii),
                             seed=args.seed, exact_budget=args.exact_budget,
                             samples_per_region=args.samples)
    if args.csv:
        lines = ["radius,partial_norm"]
        for radius, norm in zip(scan.radii, scan.partial_norms):
            lines.append(f"{radius},{norm!r}")
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(_json_text(scan.as_dict()), args.out)
    return 0


def _cmd_region(args) -> int:
    verdict = region_classify(_parse_exponent(args.p), _parse_exponent(args.q),
                              _parse_exponent(args.r), args.dim)
    _emit(f"{verdict.verdict}\n{verdict.reason}\n", args.out)
    return 0


def _cmd_exponents(args) -> int:
    payload: dict = {
        "critical_r": str(critical_r(args.dim, args.degree, args.linearity)),
    }
    if args.delta0 is not None:
        delta0 = _parse_exponent(args.delta0)
        payload["r0"] = str(r0_bound(delta0, args.linearity))
        if args.dim > args.degree:
            payload["p0"] = str(p0_bound(delta0, args.dim, args.degree))
    _emit(_json_text(payload), args.out)
    return 0


def _cmd_asymfit(args) -> int:
    spec = SphereSpec(args.dim, args.degree)
    table = rep_counts(spec, args.lambda_max)
    report = growth_exponent_fit(table, (args.window_lo, args.window_hi))
    payload = report.as_dict()
    note = asymptotic_validity_note(spec)
    if note:
        payload["note"] = note
    _emit(_json_text(payload), args.out)
    return 0


def _cmd_joint(args) -> int:
    spec = SphereSpec(args.dim, args.degree)
    value = joint_count(spec, args.linearity, getattr(args, "lambda"))
    _emit(f"{value}\n", args.out)
    return 0


def _cmd_accept(args) -> int:
    t0 = time.perf_counter()
    name, passed, details = _accept.EXPERIMENTS[args.experiment]()
    elapsed = time.perf_counter() - t0
    payload = {"criterion": args.experiment, "name": name, "passed": passed, "details": details}
    _emit(_json_text(payload), args.out)
    status = "PASS" if passed else "FAIL"
    sys.stderr.write(f"{status}  criterion {args.experiment}: {name} ({elapsed:.1f}s)\n")
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(sub, *, dim=True, degree=True):
    if dim:
        sub.add_argument("--dim", type=int, required=True, help="ambient dimension d")
    if degree:
        sub.add_argument("--degree", type=int, default=2, help="sphere degree k (default 2)")
    sub.add_argument("--threads", type=int, default=None,
                     help="thread count, echoed but not yet used (default: "
                          "SPHERELAB_THREADS or CPU count); outputs never depend on it")
    sub.add_argument("--out", default=None, help="output file (atomic write); stdout if omitted")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spherelab",
        description="Discrete multilinear spherical averages: counts, operators, sharpness.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("count", help="exact representation-count table as CSV")
    _add_common(s)
    s.add_argument("--lambda-max", type=int, required=True)
    s.set_defaults(func=_cmd_count)

    s = subs.add_parser("shell", help="enumerate one sphere shell as CSV")
    _add_common(s)
    s.add_argument("--lambda", type=int, required=True)
    s.set_defaults(func=_cmd_shell)

    s = subs.add_parser("joint", help="joint count N(lambda) in dimension linearity*dim")
    _add_common(s)
    s.add_argument("--linearity", type=int, default=2)
    s.add_argument("--lambda", type=int, required=True)
    s.set_defaults(func=_cmd_joint)

    def add_fn_inputs(sub, multiple: bool):
        # --function-file PATH is sugar for --fn file:PATH; with append
        # actions sharing one dest, argparse preserves command-line order
        if multiple:
            sub.add_argument("--fn", action="append", dest="fn", default=[],
                             help="input function (delta | box:L | file:PATH); repeat per argument")
            sub.add_argument("--function-file", action="append", dest="fn",
                             type=lambda p: f"file:{p}", metavar="PATH",
                             help="input function from a grid-function text file")
        else:
            group = sub.add_mutually_exclusive_group(required=True)
            group.add_argument("--fn", dest="fn",
                               help="input function (delta | box:L | file:PATH)")
            group.add_argument("--function-file", dest="fn",
                               type=lambda p: f"file:{p}", metavar="PATH",
                               help="input function from a grid-function text file")

    s = subs.add_parser("avg", help="signed multilinear spherical average at one level")
    _add_common(s)
    s.add_argument("--linearity", type=int, default=2)
    s.add_argument("--lambda", type=int, required=True)
    s.add_argument("--normalization", default="exact", choices=("exact", "asymptotic"))
    add_fn_inputs(s, multiple=True)
    s.set_defaults(func=_cmd_avg)

    s = subs.add_parser("maxop", help="multilinear spherical maximal function")
    _add_common(s)
    s.add_argument("--linearity", type=int, default=2)
    s.add_argument("--lambda-max", type=int, required=True)
    s.add_argument("--lambda-min", type=int, default=1)
    s.add_argument("--normalization", default="exact", choices=("exact", "asymptotic"))
    add_fn_inputs(s, multiple=True)
    s.set_defaults(func=_cmd_maxop)

    for name, operator, help_text in (
        ("hlmax", hl_maximal, "Hardy-Littlewood maximal function over k-balls"),
        ("sphmax", linear_spherical_maximal, "linear spherical maximal function"),
    ):
        s = subs.add_parser(name, help=help_text)
        _add_common(s)
        s.add_argument("--lambda-max", type=int, required=True)
        add_fn_inputs(s, multiple=False)
        s.set_defaults(func=functools.partial(_cmd_linear_max, operator))

    s = subs.add_parser("dominate", help="pointwise domination check T* <= M(f) * S~(g)")
    _add_common(s)
    s.add_argument("--lambda-max", type=int, required=True)
    s.add_argument("--f", required=True, help="first input (delta | box:L | file:PATH)")
    s.add_argument("--g", required=True, help="second input (delta | box:L | file:PATH)")
    s.set_defaults(func=_cmd_dominate)

    s = subs.add_parser("witness", help="exact witness-family maximal value at a point")
    _add_common(s)
    s.add_argument("--linearity", type=int, default=2)
    s.add_argument("--box", type=int, default=1, help="box radius L")
    s.add_argument("--point", required=True, help="comma-separated integer point")
    s.add_argument("--normalization", default="asymptotic", choices=("exact", "asymptotic"),
                   help="exact divides by true joint counts (moderate |x| only)")
    s.set_defaults(func=_cmd_witness)

    s = subs.add_parser("decay", help="witness decay-exponent fit along a ray")
    _add_common(s)
    s.add_argument("--linearity", type=int, default=2)
    s.add_argument("--box", type=int, default=1)
    s.add_argument("--direction", required=True, help="comma-separated integer direction")
    s.add_argument("--t-min", type=int, default=10)
    s.add_argument("--t-max", type=int, default=2000)
    s.add_argument("--samples", type=int, default=64)
    s.set_defaults(func=_cmd_decay)

    s = subs.add_parser("normscan", help="partial l^r norms and dyadic shell ratios")
    _add_common(s)
    s.add_argument("--linearity", type=int, default=2)
    s.add_argument("--box", type=int, default=1)
    s.add_argument("--r", required=True, help="exponent r (decimal or fraction like 5/8)")
    s.add_argument("--radii", required=True, help="comma-separated increasing radii")
    s.add_argument("--seed", type=int, default=_DEFAULT_SEED)
    s.add_argument("--samples", type=int, default=_DEFAULT_SAMPLES, help="samples per sampled region")
    s.add_argument("--exact-budget", type=int, default=_EXACT_REGION_BUDGET,
                   help="regions up to this lattice-count estimate are enumerated exactly")
    s.add_argument("--csv", action="store_true", help="emit radius,partial_norm CSV instead of JSON")
    s.set_defaults(func=_cmd_normscan)

    s = subs.add_parser("region", help="boundedness verdict for (p, q, r, d)")
    _add_common(s, degree=False)
    s.add_argument("--p", required=True)
    s.add_argument("--q", required=True)
    s.add_argument("--r", required=True)
    s.set_defaults(func=_cmd_region)

    s = subs.add_parser("exponents", help="critical_r and the r0/p0 threshold formulas")
    _add_common(s)
    s.add_argument("--linearity", type=int, default=2)
    s.add_argument("--delta0", default=None,
                   help="external linear-theory parameter (decimal or fraction)")
    s.set_defaults(func=_cmd_exponents)

    s = subs.add_parser("asymfit", help="dyadic-block growth-exponent fit of a count table")
    _add_common(s)
    s.add_argument("--lambda-max", type=int, required=True)
    s.add_argument("--window-lo", type=int, required=True)
    s.add_argument("--window-hi", type=int, required=True)
    s.set_defaults(func=_cmd_asymfit)

    s = subs.add_parser("accept", help="run one numbered acceptance experiment (1..7)")
    _add_common(s, dim=False, degree=False)
    s.add_argument("--experiment", type=int, required=True, choices=_accept.EXPERIMENTS)
    s.set_defaults(func=_cmd_accept)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return int(exc.code) if exc.code else 0
    try:
        threads = _resolve_threads(args.threads)
        _echo_config(args, threads)
        return args.func(args)
    except BudgetError as exc:
        sys.stderr.write(f"error (budget): {exc}\n")
        return 3
    except AnalysisError as exc:
        sys.stderr.write(f"error (analysis): {exc}\n")
        return 4
    except ParameterError as exc:
        sys.stderr.write(f"error (parameters): {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"error (io): {exc}\n")
        return 2


def main() -> None:
    sys.exit(run())
