"""Finitely supported real-valued functions on Z^d and their text format.

A GridFunction is stored as sorted read-only arrays, dict view built on first
use (zeros are never stored); evaluation anywhere off the support is 0.  The
operators in operators.py take GridFunctions as input and return them as
output, built from their arrays by GridFunction._from_arrays.

Supports stay sparse; a budget (DEFAULT_SUPPORT_BUDGET, 10^7 points) converts
would-be memory blowups into clean BudgetError exceptions.  _within_budget is the one rule
that raises BudgetError, for this budget (read at each call) and every other.  Non-finite
values are rejected on construction, and support points are handed out in
sorted order, so every accumulation over a support has a fixed order.

Three rules read points, integer parameters and real values, raising ParameterError:
_as_point a point or other integer sequence, _as_int an integer and its lower bound (an int,
bool or numpy integer, never a float or str), _as_real a real value (finite, never text).
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from types import MappingProxyType

import numpy as np

from .errors import BudgetError, ParameterError

DEFAULT_SUPPORT_BUDGET = 10**7
_COORD_LIMIT = 1 << 62      # coordinates and their differences stay within int64
_TEXT = (str, bytes, bytearray, memoryview)

Point = tuple[int, ...]


def _within_budget(n, what: str, limit: int | None = None) -> None:
    """Raise BudgetError when the quantity what, of size n, passes limit (DEFAULT_SUPPORT_BUDGET
    as it reads at this call when limit is None).  A Python float n is compared exactly."""
    limit = DEFAULT_SUPPORT_BUDGET if limit is None else limit
    if n > limit:
        raise BudgetError(f"{what}: {n} exceeds the budget of {limit}")


def _or_inf(f, *args) -> float:
    """f(*args), or inf where the float it returns would pass the float range (OverflowError)."""
    try:
        return f(*args)
    except OverflowError:
        return math.inf


def _as_point(p, noun: str = "point", dim: int | None = None) -> Point:
    """p as a tuple of ints: int, bool and numpy integer entries pass, a float or str raises
    ParameterError, naming the sequence by noun, instead of being truncated; so does a length
    other than dim, unless dim is None."""
    try:
        pt = tuple(map(operator.index, p))
    except TypeError:
        raise ParameterError(f"{noun} {p!r} is not a sequence of integers") from None
    if dim is not None and len(pt) != dim:
        raise ParameterError(f"{noun} {p!r} does not have dimension {dim}")
    return pt


def _as_int(value, name: str, low: int | None) -> int:
    """value as a Python int by _as_point's rule, at least low unless low is None."""
    try:
        n = operator.index(value)
    except TypeError:
        n = None
    if n is None or low is not None and n < low:
        kind = {None: "an integer", 0: "a nonnegative integer", 1: "a positive integer"}
        raise ParameterError(f"{name} must be {kind.get(low, f'an integer >= {low}')}, got {value!r}")
    return n


def _as_real(value, name: str) -> float:
    """value as a finite float; text, bare or in a 0-d array, is refused though float() reads it."""
    try:
        x = float(None if isinstance(value[()] if isinstance(value, np.ndarray) else value, _TEXT)
                  else value)
    except (TypeError, ValueError, OverflowError):
        x = math.nan
    if not math.isfinite(x):
        raise ParameterError(f"{name} must be a finite real number, got {value!r}")
    return x


class GridFunction:
    """Immutable finitely supported function on Z^d: sorted read-only arrays, dict view built on
    first use.  Non-finite or text values, non-integer coordinates and coordinates of magnitude
    2^62 or more are rejected."""

    __slots__ = ("dim", "bbox", "_pts", "_vals", "_map")

    def __init__(self, dim: int, values: dict[Point, float]):
        dim = _as_int(dim, "dim", 1)
        _within_budget(len(values), "support points")
        clean: dict[Point, float] = {}
        for p, v in values.items():
            pt = _as_point(p, dim=dim)
            fv = v if type(v) is float and math.isfinite(v) else _as_real(v, f"the value at {p!r}")
            if fv != 0.0:
                clean[pt] = fv
        keys = sorted(clean)
        bbox = (tuple(map(min, zip(*clean))), tuple(map(max, zip(*clean)))) if clean else None
        self._store(dim, bbox, keys, [clean[p] for p in keys])

    @classmethod
    def _from_arrays(cls, dim: int, pts: np.ndarray, vals: np.ndarray) -> GridFunction:
        """The function with support rows pts, int64 (N, dim), lexicographic and distinct, and
        nonzero float64 values vals, as the operator engine builds them; the value rule is
        checked on the arrays, the first non-finite value in row order named."""
        bad = ~np.isfinite(vals)
        if bad.any():
            i = int(np.argmax(bad))
            raise ParameterError(f"the value at {tuple(pts[i].tolist())!r} must be a finite real "
                                 f"number, got {vals[i].item()!r}")
        bbox = tuple(tuple(end.tolist()) for end in (pts.min(0), pts.max(0))) if len(vals) else None
        self = object.__new__(cls)
        self._store(dim, bbox, pts, vals)
        return self

    def _store(self, dim: int, bbox, pts, vals) -> None:
        """Refuse a coordinate of magnitude 2^62 or more, then keep pts and vals as read-only
        int64 and float64 arrays."""
        if bbox is not None and (far := max(-min(bbox[0]), max(bbox[1]))) >= _COORD_LIMIT:
            raise ParameterError(f"a coordinate of magnitude {far} is not below 2^62")
        pts = np.asarray(pts, dtype=np.int64).reshape(-1, dim)
        vals = np.asarray(vals, dtype=np.float64)
        pts.flags.writeable = vals.flags.writeable = False
        for name, value in zip(GridFunction.__slots__, (dim, bbox, pts, vals, None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("GridFunction is immutable")

    def _dict(self) -> dict[Point, float]:
        """The point -> value dict, built on first use."""
        if self._map is None:
            object.__setattr__(self, "_map", dict(self.items_sorted()))
        return self._map

    @property
    def values(self):
        return MappingProxyType(self._dict())

    def value(self, point) -> float:
        return self._dict().get(_as_point(point, dim=self.dim), 0.0)

    def support_size(self) -> int:
        return len(self._vals)

    def items_sorted(self):
        """Support points in lexicographic order (the fixed accumulation order)."""
        return list(zip(map(tuple, self._pts.tolist()), self._vals.tolist()))

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(points (N,d) int64, values (N,) float64), lexicographic rows, both read-only."""
        return self._pts, self._vals

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GridFunction)
            and self.dim == other.dim
            and np.array_equal(self._pts, other._pts)
            and np.array_equal(self._vals, other._vals)
        )

    def __repr__(self) -> str:
        return f"GridFunction(dim={self.dim}, support={len(self._vals)})"


def make_delta(dim: int) -> GridFunction:
    """Point mass of size 1 at the origin."""
    return GridFunction(dim, {(0,) * _as_int(dim, "dim", 1): 1.0})


def make_box_indicator(dim: int, radius: int) -> GridFunction:
    """Indicator of the cube [-radius, radius]^dim."""
    dim, radius = _as_int(dim, "dim", 1), _as_int(radius, "radius", 0)
    side = 2 * radius + 1
    _within_budget(side**dim, "box points")
    pts = itertools.product(range(-radius, radius + 1), repeat=dim)
    return GridFunction(dim, dict.fromkeys(pts, 1.0))


def write_grid_text(f: GridFunction, stream) -> None:
    """Text format: first line d, then 'x1 ... xd value' rows, lexicographic."""
    stream.write(f"{f.dim}\n")
    for p, v in f.items_sorted():
        stream.write(" ".join(str(c) for c in p) + f" {v!r}\n")


def read_grid_text(stream) -> GridFunction:
    """Read the text format, ASCII with fields split by whitespace: d and the coordinates are
    -?[0-9]+, a value a float literal without '_' (as every repr(float) write_grid_text writes)."""
    integer = re.compile(r"-?[0-9]+").fullmatch
    header = stream.readline()
    if not (header.isascii() and integer(header.strip())):
        raise ParameterError(f"bad grid-function header {header!r}")
    dim = int(header.strip())
    vals: dict[Point, float] = {}
    for raw in stream:
        if not (line := raw.strip()) and raw.isascii():     # blank; a non-ASCII one fails below
            continue
        parts = line.split()
        if len(parts) != dim + 1:
            raise ParameterError(f"bad grid-function row {line!r} for dim {dim}")
        *coords, value = parts
        try:
            if not raw.isascii() or not all(map(integer, coords)) or "_" in value:
                raise ValueError("a row is ASCII, with integer coordinates and no '_'")
            pt, v = tuple(map(int, coords)), float(value)
        except ValueError as exc:
            raise ParameterError(f"bad grid-function row {line!r}: {exc}") from exc
        if pt in vals:
            raise ParameterError(f"grid-function row {line!r} repeats the point {pt}")
        _within_budget(len(vals) + 1, "grid file rows")     # refused before the rest is read
        vals[pt] = v
    return GridFunction(dim, vals)
