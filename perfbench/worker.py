"""One pass of one workload, in a fresh process.

Started by run.py, never by hand.  It imports spherelab from the
checkout's ``src``, builds the workload's inputs from the seed, makes every
call of the workload one after another, and prints one JSON line: per-call
seconds, output digests, errors, set-up time, peak RSS of this process, and
(with --check) the failed checks, (with --trace) the per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def digest(out) -> str:
    """Hash of an output's exact content (float reprs are exact)."""
    import numpy as np
    import spherelab as sl

    if isinstance(out, sl.GridFunction):
        text = repr((out.dim, out.items_sorted()))
    elif isinstance(out, sl.RepCountTable):
        text = repr((out.spec, out.lambda_max, out.counts))
    elif isinstance(out, sl.Shell):
        text = repr((out.spec, out.lam, out.points))
    elif hasattr(out, "as_dict"):
        text = json.dumps(out.as_dict(), sort_keys=True)
    elif isinstance(out, np.ndarray):
        text = f"{out.dtype}{out.shape}{out.tobytes().hex()}"
    else:
        text = repr(out)
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() of the parent just before it spawned this process")
    ap.add_argument("--check", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import spherelab

    if Path(spherelab.__file__).resolve().parent != ROOT / "src" / "spherelab":
        raise SystemExit(f"imported spherelab from {spherelab.__file__}, not from {ROOT / 'src'}")

    import workloads

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer(f"{args.workload}-{args.seed}-{args.spawned_at!r}")
        spans.install(tracer)
    warnings.simplefilter("ignore", spherelab.EmptySphereWarning)

    ops = workloads.WORKLOADS[args.workload](args.seed)
    seconds: list[float] = []
    digests: list[str | None] = []
    errors: dict[int, str] = {}
    kept: dict[str, object] = {}
    setup_s = time.monotonic() - args.spawned_at
    for i, op in enumerate(ops):
        if tracer:
            tracer.begin_op(i, op.name)
        t0 = time.perf_counter()
        try:
            out = op.call()
        except Exception as exc:  # a failed call is counted, the pass goes on
            out, err = None, f"{type(exc).__name__}: {exc}"
        else:
            err = None
        t1 = time.perf_counter()
        if tracer:
            tracer.end_op()
        seconds.append(t1 - t0)
        if err is None:
            digests.append(digest(out))
            kept[op.name] = op.keep(out)
        else:
            digests.append(None)
            errors[i] = err
        del out
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures: dict[int, str] = {}
    if args.check:
        for i, op in enumerate(ops):
            if op.check is None or i in errors:
                continue
            try:
                msg = op.check(kept[op.name], kept)
            except Exception as exc:  # a check that cannot run fails its op
                msg = f"check raised {type(exc).__name__}: {exc}"
            if msg:
                failures[i] = f"{op.name}: {msg}"

    result = {
        "ops": [op.name for op in ops],
        "seconds": seconds,
        "digests": digests,
        "errors": errors,
        "failures": failures,
        "checked": sum(op.check is not None for op in ops) if args.check else 0,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer:
        result["layers"] = spans.layer_metrics(tracer)
        if args.spans_out:
            tracer.dump(args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
