"""Span tracing of spherelab's layers from outside the package.

Each traced function is rebound, in every spherelab module that holds it,
to a wrapper that records a span (name, start, end, parent, op id) while a
timed call is running.  The package imports functions by name, so a name is
rebound where its caller looks it up: ``counts.power_trunc`` for
``rep_counts``, the ``_convolve`` global for ``power_trunc``, the
``operators`` global for ``domination_check``.  Methods are rebound on
their class.  Nothing in the package itself changes.

Besides spans, the wrappers add counts computed from each call's public
inputs and outputs (operand sizes, rows, points, regions).  Spans stay in
memory and are written out once, when the pass ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

from checks import box_rows, iroot

# (module, function) pairs rebound everywhere the function object is bound.
FUNCTIONS = [
    ("_convolve", "convolve_trunc"),
    ("_convolve", "power_trunc"),
    ("counts", "rep_counts"),
    ("counts", "enumerate_shell"),
    ("counts", "joint_count"),
    ("counts", "growth_exponent_fit"),
    ("grids", "make_box_indicator"),
    ("operators", "multilinear_average"),
    ("operators", "multilinear_maximal"),
    ("operators", "hl_maximal"),
    ("operators", "linear_spherical_maximal"),
    ("operators", "domination_check_multilinear"),
    ("sharpness", "witness_values"),
    ("sharpness", "decay_fit"),
    ("sharpness", "partial_norm_scan"),
]

# (module, class, method, span name); "__init__" is the construction span.
METHODS = [
    ("counts", "TableCache", "table", "counts.TableCache.table"),
    ("grids", "GridFunction", "__init__", "grids.GridFunction"),
    ("grids", "GridFunction", "arrays", "grids.GridFunction.arrays"),
]

def span_name(module: str, function: str) -> str:
    """Metric names must start with a letter, so `_convolve` reports as `convolve`."""
    return f"{module.lstrip('_')}.{function}"


SPAN_NAMES = [span_name(m, f) for m, f in FUNCTIONS] + [name for *_, name in METHODS]

OPERATORS = [f"operators.{f}" for m, f in FUNCTIONS if m == "operators"]


class Tracer:
    """In-memory span and counter recorder; active only inside a timed call."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._op = -1

    def begin_op(self, op: int, name: str) -> None:
        self._op = op
        self._stack = [self._open(f"op.{name}")]

    def end_op(self) -> None:
        self._close(self._stack.pop())
        self._op = -1

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self._op])
        return len(self.spans) - 1

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()

    def wrap(self, name: str, fn, count=None):
        sig = inspect.signature(fn) if count else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op < 0:
                return fn(*args, **kwargs)
            idx = self._open(name)
            self._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self._close(idx)
            if count is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, val in count(bound.arguments, out).items():
                    self.counters[key] += val
            return out

        return traced

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id,
                       "fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)


def _count_convolve(a, out):
    x, y = a["a"], a["b"]
    bound = min(sum(x) * max(y), sum(y) * max(x)) if x and y else 0
    slot_bits = (bound.bit_length() // 8 + 2) * 8  # slot width per the _convolve docstring
    return {"convolve.convolve_trunc.operand_mbit": (len(x) + len(y)) * slot_bits / 1e6}


def _count_grid_output(fs, radius, out):
    return {"operators.grid_rows": box_rows(fs, radius),
            "operators.output_points": out.support_size()}


def _counters():
    return {
        "convolve.convolve_trunc": _count_convolve,
        "counts.enumerate_shell": lambda a, out: {"counts.enumerate_shell.points": len(out.points)},
        "operators.multilinear_average": lambda a, out: _count_grid_output(
            a["fs"], iroot(a["lam"], a["cfg"].spec.degree), out),
        "operators.multilinear_maximal": lambda a, out: _count_grid_output(
            a["fs"], iroot(a["cfg"].lambda_max, a["cfg"].spec.degree), out),
        "operators.hl_maximal": lambda a, out: _count_grid_output(
            [a["f"]], iroot(a["lambda_max"], a["spec"].degree), out),
        "operators.linear_spherical_maximal": lambda a, out: _count_grid_output(
            [a["g"]], iroot(a["lambda_max"], a["spec"].degree), out),
        "operators.domination_check_multilinear": lambda a, out: {
            "operators.grid_rows": out.points_checked},
        "sharpness.witness_values": lambda a, out: {
            "sharpness.witness_values.points": len(out),
            "sharpness.witness_values.candidates":
                len(out) * (2 * a["spec"].box_radius + 1) ** a["spec"].dim},
        "sharpness.partial_norm_scan": lambda a, out: {
            "sharpness.regions_exact": out.region_modes.count("exact"),
            "sharpness.regions_sampled": out.region_modes.count("sampled")},
        "grids.GridFunction": lambda a, out: {
            "grids.GridFunction.points": a["self"].support_size()},
    }


def install(tracer: Tracer) -> None:
    """Rebind every traced name in the loaded spherelab modules."""
    counters = _counters()
    mods = [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "spherelab" or name.startswith("spherelab."))]
    for modname, fname in FUNCTIONS:
        orig = getattr(importlib.import_module(f"spherelab.{modname}"), fname)
        name = span_name(modname, fname)
        wrapped = tracer.wrap(name, orig, counters.get(name))
        for mod in mods:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, wrapped)
    for modname, cls_name, meth, name in METHODS:
        cls = getattr(importlib.import_module(f"spherelab.{modname}"), cls_name)
        setattr(cls, meth, tracer.wrap(name, getattr(cls, meth), counters.get(name)))


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer calls, busy and self seconds, plus counts and rates."""
    spans = tracer.spans
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = 0
        out[f"{name}.s"] = 0.0
        out[f"{name}.self_s"] = 0.0
    for i, (name, start, end, parent, _) in enumerate(spans):
        if name in SPAN_NAMES:
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += end - start - child_s[i]

    # a TableCache.table call hit the cache unless rep_counts ran beneath it
    missed = set()
    for name, *_, parent, _op in spans:
        if name == "counts.rep_counts":
            p = parent
            while p >= 0:
                if spans[p][0] == "counts.TableCache.table":
                    missed.add(p)
                p = spans[p][3]
    lookups = out["counts.TableCache.table.calls"]
    out["counts.table_cache.hit_ratio"] = (lookups - len(missed)) / lookups if lookups else 0.0

    c = tracer.counters
    for key in ("convolve.convolve_trunc.operand_mbit", "counts.enumerate_shell.points",
                "grids.GridFunction.points", "operators.grid_rows", "operators.output_points",
                "sharpness.witness_values.points", "sharpness.witness_values.candidates",
                "sharpness.regions_exact", "sharpness.regions_sampled"):
        out[key] = c.get(key, 0)

    def rate(num, den):
        return num / den if den > 0 else 0.0

    out["convolve.convolve_trunc.mbit_per_s"] = rate(
        out["convolve.convolve_trunc.operand_mbit"], out["convolve.convolve_trunc.s"])
    out["operators.useful_row_ratio"] = rate(out["operators.output_points"], out["operators.grid_rows"])
    out["operators.rows_per_s"] = rate(
        out["operators.grid_rows"], sum(out[f"{op}.self_s"] for op in OPERATORS))
    out["sharpness.witness_values.points_per_s"] = rate(
        out["sharpness.witness_values.points"], out["sharpness.witness_values.s"])
    return out
