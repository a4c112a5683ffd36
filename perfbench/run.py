"""spherelab benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each pass of the workload runs in a fresh
process (perfbench/worker.py), started one after another: the table cache
starts cold in every pass, as for a CLI user, and set-up time and peak RSS
belong to that pass alone.  Passes repeat until the next one would end after
--seconds, with at least MIN_PASSES; each metric is the median over passes.
The first pass also runs the output checks.  Every output is digested, and a
digest that differs between passes of one seed, or from an earlier run of
the same seed on the same sources, counts as a failed operation.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics of
traced passes (alternating with untraced ones, whose median gives the
tracing overhead).  The last line of standard output is the JSON result;
the full record and the spans go to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("tables", "grid_ops", "witness_scan", "small_calls")
MIN_PASSES = 3          # passes per run; with --trace 1, 2 untraced and 2 traced
PASS_TIMEOUT_S = 150    # one pass may not take longer
RUN_LIMIT_S = 150       # no pass starts after this much of a run has gone
# Best time of reference_seconds() on an Intel Xeon (Sapphire Rapids,
# 2 vCPUs under KVM) when the host was quiet.  Reported times are scaled to
# this speed: time * REFERENCE_NOMINAL_S / best reference time of the run.
REFERENCE_NOMINAL_S = 0.014


class BenchError(Exception):
    """The benchmark could not produce a result."""


def environment() -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "loadavg_start": os.getloadavg(),
    }


def source_hash() -> str:
    """Identity of the code under test and of the benchmark."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src" / "spherelab").rglob("*.py"), *HERE.glob("*.py"),
                        ROOT / "tests" / "oracles.py"]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def reference_seconds(reps: int = 8) -> float:
    """Best time of a fixed big-integer multiply, which runs no spherelab code.

    Run in this process between passes, it measures how fast the machine is
    at the moment.  Of the kernels tried (interpreter loop, numpy sort, array
    streaming, big-integer multiply) it tracked the drift of all four
    workloads best (README.md, "Noise").
    """
    big = 3**200_000
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        big * (big + 1)
        best = min(best, time.perf_counter() - t0)
    return best


def run_pass(workload: str, seed: int, *, check: bool, trace: bool, spans_out: Path | None) -> dict:
    spawned_at = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--spawned-at", repr(spawned_at), "--check", str(int(check)), "--trace", str(int(trace))]
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"a {workload} pass took longer than {PASS_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"a {workload} pass exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"a {workload} pass printed no result")
    result = json.loads(lines[-1])
    result["traced"] = trace
    result["elapsed_s"] = time.monotonic() - spawned_at
    result["reference_s"] = reference_seconds()
    return result


def run_passes(workload: str, seed: int, seconds: int, trace: bool) -> list[dict]:
    start = time.monotonic()
    passes: list[dict] = []
    OUT.mkdir(exist_ok=True)
    while True:
        traced = trace and len(passes) % 2 == 1
        spans_out = OUT / f"spans-{workload}-seed{seed}-pass{len(passes)}.json" if traced else None
        passes.append(run_pass(workload, seed, check=not passes, trace=traced, spans_out=spans_out))
        elapsed = time.monotonic() - start
        typical = statistics.median(p["elapsed_s"] for p in passes)
        if len(passes) >= (4 if trace else MIN_PASSES) and elapsed + typical > seconds:
            return passes
        if elapsed + typical > RUN_LIMIT_S:
            if len(passes) < 2:
                raise BenchError(f"{workload} passes are too slow to measure")
            return passes


def failed_ops(workload: str, seed: int, passes: list[dict]) -> set[tuple[int, int]]:
    """(pass, op) pairs that raised, failed a check, or produced a different digest."""
    failed = {(p, int(i)) for p, rec in enumerate(passes) for i in rec["errors"]}
    failed |= {(0, int(i)) for i in passes[0]["failures"]}
    store = OUT / "digests" / f"{workload}-seed{seed}-{source_hash()}.json"
    if store.exists():
        reference = json.loads(store.read_text())
    else:
        reference = passes[0]["digests"]
        if None not in reference:
            store.parent.mkdir(parents=True, exist_ok=True)
            store.write_text(json.dumps(reference))
    for p, rec in enumerate(passes):
        if len(rec["digests"]) != len(reference):
            raise BenchError("passes of one seed made different numbers of calls")
        for i, (got, want) in enumerate(zip(rec["digests"], reference)):
            if got is not None and want is not None and got != want:
                failed.add((p, i))
    return failed


def best_call_seconds(passes: list[dict]) -> list[float]:
    """Each call's time in the pass where it ran fastest.

    The machine's speed drifts by 15-20 % over tens of seconds; the fastest
    of a call's repeats is the only statistic found steady across runs
    (see README.md, "Noise").
    """
    return [min(times) for times in zip(*(p["seconds"] for p in passes))]


def speed_factor(passes: list[dict]) -> float:
    """Nominal over measured machine speed; 1 when the host is quiet."""
    return REFERENCE_NOMINAL_S / min(p["reference_s"] for p in passes)


def end_to_end(passes: list[dict], scale: float) -> dict:
    calls_ms = [s * 1e3 * scale for s in best_call_seconds(passes)]
    return {
        "wall_s": (sum(calls_ms) / 1e3, "s"),
        "setup_s": (statistics.median(p["setup_s"] for p in passes) * scale, "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        "call_p50_ms": (statistics.median(calls_ms), "ms"),
        "call_p90_ms": (statistics.quantiles(calls_ms, n=10, method="inclusive")[8], "ms"),
    }


def layer_unit(name: str) -> str:
    if name.endswith((".s", ".self_s", "overhead_s")):
        return "s"
    if name.endswith("mbit_per_s"):
        return "Mbit/s"
    if name.endswith("_mbit"):
        return "Mbit"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    metrics = {name: (statistics.median(p["layers"][name] for p in traced), layer_unit(name))
               for name in traced[0]["layers"]}
    overhead = sum(best_call_seconds(traced)) - sum(best_call_seconds(untraced))
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="spherelab benchmark (see perfbench/README.md)")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    for needed in (ROOT / "src" / "spherelab" / "__init__.py", ROOT / "tests" / "oracles.py"):
        if not needed.is_file():
            print(f"perfbench: {needed.relative_to(ROOT)} not found; run from a spherelab checkout",
                  file=sys.stderr)
            return 2

    env = environment()
    try:
        passes = run_passes(args.workload, args.seed, args.seconds, bool(args.trace))
        failed = failed_ops(args.workload, args.seed, passes)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    scale = speed_factor(passes)
    metrics = per_layer(untraced, traced) if args.trace else end_to_end(untraced, scale)
    attempted = sum(len(p["seconds"]) for p in passes)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "source_hash": source_hash(),
        "passes": len(passes), "calls_per_pass": len(passes[0]["seconds"]),
        "checks_run": passes[0]["checked"], "speed_factor": scale,
        "unscaled": end_to_end(untraced, 1.0),
        "failures": sorted(f"pass {p} op {passes[p]['ops'][i]}: "
                           + (passes[p]["errors"].get(str(i)) or passes[p]["failures"].get(str(i))
                              or "digest differs") for p, i in failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "per_pass": [{k: p[k] for k in ("setup_s", "peak_rss_mb", "reference_s", "elapsed_s", "traced")}
                     | {"wall_s": sum(p["seconds"])} for p in passes],
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes "
          f"({len(untraced)} untraced) of {record['calls_per_pass']} calls; "
          f"{record['checks_run']} outputs checked")
    print("environment: " + json.dumps(env))
    print(f"speed factor {scale:.4g}: times below are scaled to the reference speed"
          + (" (per-layer times are not)" if args.trace else ""))
    for msg in record["failures"][:20]:
        print(f"FAILED {msg}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"failed_frac = {len(failed) / attempted:.6g} ratio ({len(failed)} of {attempted} calls)")
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
