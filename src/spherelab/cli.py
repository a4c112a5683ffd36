"""Command-line orchestration of every experiment.

Conventions shared by all subcommands:

  * long flags only; numeric vectors are comma-separated;
  * the fully resolved configuration is echoed as JSON to stderr, so every
    output is self-describing;
  * files are written atomically (temp file in the target directory, then
    rename); an --out that cannot be written is refused before any work;
  * exit codes: 0 success, 1 failed acceptance gate, else the one that
    errors.EXIT_CODES gives the error, after one "error (kind): ..." line;
  * --threads (fallback: the SPHERELAB_THREADS environment variable) is
    resolved and echoed but changes nothing yet: every computation runs
    sequentially.  Each has a fixed reduction order, so outputs will stay
    byte-identical for any thread count once workers exist.

Input functions for the operator subcommands are written as
  delta | box:L | file:PATH
where PATH uses the grid-function text format (first line d, then
"x1 ... xd value" rows, one per point).

Each subcommand is one `_SUBCOMMANDS` entry; `run` writes the text its body
returns.
"""

from __future__ import annotations

import argparse
import errno
import io
import json
import os
import stat
import sys
import tempfile
import time
import warnings
from fractions import Fraction
from typing import Callable, NamedTuple

from . import acceptance as _accept
from .counts import (SphereSpec, asymptotic_validity_note, enumerate_shell, growth_exponent_fit,
                     joint_count, rep_counts, write_counts_csv, write_shell_csv)
from .errors import EXIT_CODES, ParameterError
from .grids import GridFunction, make_box_indicator, make_delta, read_grid_text, write_grid_text
from .operators import (Normalization, OperatorConfig, domination_check, hl_maximal,
                        linear_spherical_maximal, multilinear_average, multilinear_maximal)
from .sharpness import (_DEFAULT_SAMPLES, _DEFAULT_SEED, _EXACT_REGION_BUDGET, WitnessSpec,
                        critical_r, decay_fit, p0_bound, partial_norm_scan, r0_bound,
                        region_classify, witness_value)


def _file_mode(path: str) -> int:
    """The mode open(path, "w") leaves: an existing file's own, else 0o666 less the umask."""
    try:
        return stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        return 0o666 & ~umask


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".spherelab-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.chmod(tmp, _file_mode(path))     # mkstemp creates the file 0o600
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _check_out(path: str) -> None:
    """Refuse, naming it as given, an --out that is a directory or in a missing or read-only one."""
    directory = os.path.dirname(os.path.abspath(path))
    code = (errno.EISDIR if os.path.isdir(path) else errno.ENOENT if not os.path.isdir(directory)
            else 0 if os.access(directory, os.W_OK | os.X_OK) else errno.EACCES)
    if code:
        raise OSError(code, os.strerror(code), path)


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
    cfg = dict(vars(args), threads=threads)
    sys.stderr.write(json.dumps(cfg, sort_keys=True, default=str) + "\n")


def _text(write, obj) -> str:
    buf = io.StringIO()
    write(obj, buf)
    return buf.getvalue()


# subcommand bodies: each returns its output text

def _spec(args) -> SphereSpec:
    return SphereSpec(args.dim, args.degree)


def _witness_spec(args) -> WitnessSpec:
    return WitnessSpec(args.dim, args.degree, args.linearity, args.box)


def _cmd_count(args) -> str:
    return _text(write_counts_csv, rep_counts(_spec(args), args.lambda_max))


def _cmd_shell(args) -> str:
    return _text(write_shell_csv, enumerate_shell(_spec(args), getattr(args, "lambda")))


def _cmd_joint(args) -> str:
    return f"{joint_count(_spec(args), args.linearity, getattr(args, 'lambda'))}\n"


def _cmd_avg(args) -> str:
    cfg = OperatorConfig(_spec(args), args.linearity, getattr(args, "lambda"),
                         Normalization(args.normalization))
    fns = [_load_function(s, args.dim) for s in args.fn]
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        result = multilinear_average(fns, getattr(args, "lambda"), cfg)
    return _text(write_grid_text, result)


def _cmd_maxop(args) -> str:
    cfg = OperatorConfig(_spec(args), args.linearity, args.lambda_max,
                         Normalization(args.normalization), args.lambda_min)
    result = multilinear_maximal([_load_function(s, args.dim) for s in args.fn], cfg)
    return _text(write_grid_text, result)


def _cmd_hlmax(args) -> str:
    spec = _spec(args)
    result = hl_maximal(_load_function(args.fn, args.dim), spec, args.lambda_max)
    return _text(write_grid_text, result)


def _cmd_sphmax(args) -> str:
    spec = _spec(args)
    result = linear_spherical_maximal(_load_function(args.fn, args.dim), spec, args.lambda_max)
    return _text(write_grid_text, result)


def _cmd_dominate(args) -> str:
    spec = _spec(args)
    f = _load_function(args.f, args.dim)
    g = _load_function(args.g, args.dim)
    return _json_text(domination_check(f, g, spec, args.lambda_max).as_dict())


def _cmd_witness(args) -> str:
    spec = _witness_spec(args)
    point = tuple(_parse_ints(args.point))
    return f"{witness_value(point, spec, exact=(args.normalization == 'exact'))!r}\n"


def _cmd_decay(args) -> str:
    report = decay_fit(_witness_spec(args), _parse_ints(args.direction), (args.t_min, args.t_max),
                       num_samples=args.samples)
    return _json_text(report.as_dict())


def _cmd_normscan(args) -> str:
    scan = partial_norm_scan(_witness_spec(args), _parse_exponent(args.r), _parse_ints(args.radii),
                             seed=args.seed, exact_budget=args.exact_budget,
                             samples_per_region=args.samples)
    if args.csv:
        return "radius,partial_norm\n" + "".join(
            f"{radius},{norm!r}\n" for radius, norm in zip(scan.radii, scan.partial_norms))
    return _json_text(scan.as_dict())


def _cmd_region(args) -> str:
    verdict = region_classify(_parse_exponent(args.p), _parse_exponent(args.q),
                              _parse_exponent(args.r), args.dim)
    return f"{verdict.verdict}\n{verdict.reason}\n"


def _cmd_exponents(args) -> str:
    payload = {"critical_r": str(critical_r(args.dim, args.degree, args.linearity))}
    if args.delta0 is not None:
        delta0 = _parse_exponent(args.delta0)
        payload["r0"] = str(r0_bound(delta0, args.linearity))
        if args.dim > args.degree:
            payload["p0"] = str(p0_bound(delta0, args.dim, args.degree))
    return _json_text(payload)


def _cmd_asymfit(args) -> str:
    spec = _spec(args)
    table = rep_counts(spec, args.lambda_max)
    payload = growth_exponent_fit(table, (args.window_lo, args.window_hi)).as_dict()
    note = asymptotic_validity_note(spec)
    if note:
        payload["note"] = note
    return _json_text(payload)


def _cmd_accept(args) -> tuple[str, str, int]:
    t0 = time.perf_counter()
    name, passed, details = _accept.EXPERIMENTS[args.experiment]()
    elapsed = time.perf_counter() - t0
    payload = {"criterion": args.experiment, "name": name, "passed": passed, "details": details}
    status = "PASS" if passed else "FAIL"
    headline = f"{status}  criterion {args.experiment}: {name} ({elapsed:.1f}s)\n"
    return _json_text(payload), headline, 0 if passed else 1


# the subcommand table, from which build_parser makes every parser

def _option(flag: str, **kwargs) -> tuple[str, dict]:
    return flag, kwargs


_DIM = _option("--dim", type=int, required=True, help="ambient dimension d")
_DEGREE = _option("--degree", type=int, default=2, help="sphere degree k (default 2)")
_THREADS_AND_OUT = (
    _option("--threads", type=int, default=None,
            help="thread count, echoed but not yet used (default: "
                 "SPHERELAB_THREADS or CPU count); outputs never depend on it"),
    _option("--out", default=None, help="output file (atomic write); stdout if omitted"),
)
_LINEARITY = _option("--linearity", type=int, default=2)
_LAMBDA = _option("--lambda", type=int, required=True)
_LAMBDA_MAX = _option("--lambda-max", type=int, required=True)
_NORMALIZATION = _option("--normalization", default="exact", choices=("exact", "asymptotic"))
_BOX = _option("--box", type=int, default=1)
_FN_HELP = "input function (delta | box:L | file:PATH)"
# --function-file PATH is sugar for --fn file:PATH
_FUNCTION_FILE = dict(dest="fn", type=lambda p: f"file:{p}", metavar="PATH",
                      help="input function from a grid-function text file")


class _Subcommand(NamedTuple):
    """Its parser takes `sphere` (--dim, --degree), --threads, --out, `options` and, if `inputs`
    is "one" or "many", the --fn/--function-file pair. `body` returns the output text; a gate's
    body returns (text, stderr headline, exit code)."""
    help: str
    body: Callable
    options: tuple = ()
    inputs: str = ""
    sphere: tuple = (_DIM, _DEGREE)


_SUBCOMMANDS = {
    "count": _Subcommand("exact representation-count table as CSV", _cmd_count, (_LAMBDA_MAX,)),
    "shell": _Subcommand("enumerate one sphere shell as CSV", _cmd_shell, (_LAMBDA,)),
    "joint": _Subcommand("joint count N(lambda) in dimension linearity*dim", _cmd_joint,
                         (_LINEARITY, _LAMBDA)),
    "avg": _Subcommand("signed multilinear spherical average at one level", _cmd_avg,
                       (_LINEARITY, _LAMBDA, _NORMALIZATION), inputs="many"),
    "maxop": _Subcommand("multilinear spherical maximal function", _cmd_maxop, (
        _LINEARITY, _LAMBDA_MAX, _option("--lambda-min", type=int, default=1), _NORMALIZATION),
        inputs="many"),
    "hlmax": _Subcommand("Hardy-Littlewood maximal function over k-balls", _cmd_hlmax,
                         (_LAMBDA_MAX,), inputs="one"),
    "sphmax": _Subcommand("linear spherical maximal function", _cmd_sphmax, (_LAMBDA_MAX,),
                          inputs="one"),
    "dominate": _Subcommand("pointwise domination check T* <= M(f) * S~(g)", _cmd_dominate, (
        _LAMBDA_MAX,
        _option("--f", required=True, help="first input (delta | box:L | file:PATH)"),
        _option("--g", required=True, help="second input (delta | box:L | file:PATH)"))),
    "witness": _Subcommand("exact witness-family maximal value at a point", _cmd_witness, (
        _LINEARITY, _option("--box", type=int, default=1, help="box radius L"),
        _option("--point", required=True, help="comma-separated integer point"),
        _option("--normalization", default="asymptotic", choices=("exact", "asymptotic"),
                help="exact divides by true joint counts (moderate |x| only)"))),
    "decay": _Subcommand("witness decay-exponent fit along a ray", _cmd_decay, (
        _LINEARITY, _BOX,
        _option("--direction", required=True, help="comma-separated integer direction"),
        _option("--t-min", type=int, default=10), _option("--t-max", type=int, default=2000),
        _option("--samples", type=int, default=64))),
    "normscan": _Subcommand("partial l^r norms and dyadic shell ratios", _cmd_normscan, (
        _LINEARITY, _BOX,
        _option("--r", required=True, help="exponent r (decimal or fraction like 5/8)"),
        _option("--radii", required=True, help="comma-separated increasing radii"),
        _option("--seed", type=int, default=_DEFAULT_SEED),
        _option("--samples", type=int, default=_DEFAULT_SAMPLES, help="samples per sampled region"),
        _option("--exact-budget", type=int, default=_EXACT_REGION_BUDGET,
                help="regions up to this lattice-count estimate are enumerated exactly"),
        _option("--csv", action="store_true", help="emit radius,partial_norm CSV instead of JSON"))),
    "region": _Subcommand("boundedness verdict for (p, q, r, d)", _cmd_region, (
        _option("--p", required=True), _option("--q", required=True), _option("--r", required=True)),
        sphere=(_DIM,)),
    "exponents": _Subcommand("critical_r and the r0/p0 threshold formulas", _cmd_exponents, (
        _LINEARITY, _option("--delta0", default=None,
                            help="external linear-theory parameter (decimal or fraction)"))),
    "asymfit": _Subcommand("dyadic-block growth-exponent fit of a count table", _cmd_asymfit, (
        _LAMBDA_MAX, _option("--window-lo", type=int, required=True),
        _option("--window-hi", type=int, required=True))),
    "accept": _Subcommand("run one numbered acceptance experiment (1..7)", _cmd_accept, (
        _option("--experiment", type=int, required=True, choices=_accept.EXPERIMENTS),), sphere=()),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spherelab",
        description="Discrete multilinear spherical averages: counts, operators, sharpness.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, sub in _SUBCOMMANDS.items():
        s = subs.add_parser(name, help=sub.help)
        for flag, kwargs in sub.sphere + _THREADS_AND_OUT + sub.options:
            s.add_argument(flag, **kwargs)
        if sub.inputs == "many":
            # with append actions sharing one dest, argparse keeps command-line order
            s.add_argument("--fn", action="append", dest="fn", default=[],
                           help=_FN_HELP + "; repeat per argument")
            s.add_argument("--function-file", action="append", **_FUNCTION_FILE)
        elif sub.inputs == "one":
            group = s.add_mutually_exclusive_group(required=True)
            group.add_argument("--fn", dest="fn", help=_FN_HELP)
            group.add_argument("--function-file", **_FUNCTION_FILE)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return int(exc.code) if exc.code else 0
    try:
        _echo_config(args, _resolve_threads(args.threads))
        if args.out:
            _check_out(args.out)
        result = _SUBCOMMANDS[args.command].body(args)
        text, headline, code = result if isinstance(result, tuple) else (result, "", 0)
        _emit(text, args.out)
        sys.stderr.write(headline)
        return code
    except tuple(cls for cls, _, _ in EXIT_CODES) as exc:
        kind, code = next((kind, code) for cls, kind, code in EXIT_CODES if isinstance(exc, cls))
        sys.stderr.write(f"error ({kind}): {str(exc) or 'out of memory'}\n")
        return code


def main() -> None:
    sys.exit(run())
