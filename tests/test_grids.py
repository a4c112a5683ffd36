import io
import itertools
import math
import random
import re

import numpy as np
import pytest

from spherelab import (
    BudgetError,
    GridFunction,
    ParameterError,
    make_box_indicator,
    make_delta,
    read_grid_text,
    write_grid_text,
)
from spherelab import grids


def random_function(rng, dim, size=6, span=4):
    vals = {}
    while len(vals) < size:
        p = tuple(rng.randint(-span, span) for _ in range(dim))
        vals[p] = rng.uniform(-2, 2)
    return GridFunction(dim, vals)


def test_delta_basics():
    d = make_delta(3)
    assert d.support_size() == 1
    assert d.value((0, 0, 0)) == 1.0
    assert d.value((1, 0, 0)) == 0.0
    assert sum(d.values.values()) == 1.0


def test_box_sizes():
    assert make_box_indicator(2, 1).support_size() == 9
    assert make_box_indicator(5, 1).support_size() == 243
    assert make_box_indicator(1, 0) == make_delta(1)


def test_box_points_are_the_cube_in_lexicographic_order():
    for dim, radius in ((1, 0), (2, 1), (3, 2)):
        f = make_box_indicator(dim, radius)
        cube = list(itertools.product(range(-radius, radius + 1), repeat=dim))
        assert list(f.values) == cube and set(f.values.values()) == {1.0}
        assert f.bbox == ((-radius,) * dim, (radius,) * dim)


def test_box_budget(monkeypatch):
    monkeypatch.setattr(grids, "DEFAULT_SUPPORT_BUDGET", 100)
    with pytest.raises(BudgetError):
        make_box_indicator(5, 1)
    assert GridFunction(1, {(x,): 1.0 for x in range(100)}).support_size() == 100
    with pytest.raises(BudgetError):
        GridFunction(1, {(x,): 1.0 for x in range(101)})


def test_zero_values_dropped_and_bbox_tight():
    f = GridFunction(2, {(0, 0): 1.0, (3, -1): 0.0, (1, 2): -0.5})
    assert f.support_size() == 2
    assert f.bbox == ((0, 0), (1, 2))
    z = GridFunction(2, {})
    assert z.support_size() == 0 and z.bbox is None


def test_coordinates_must_stay_below_2_62():
    # |x_i| < 2^62 keeps every coordinate difference inside int64
    edge = (1 << 62) - 1
    f = GridFunction(2, {(edge, 0): 1.0, (0, -edge): 2.0, (1 << 70, 0): 0.0})
    assert f.bbox == ((0, -edge), (edge, 0))
    for far in ((1 << 62, 0), (0, -(1 << 62)), (10**20, 1)):
        with pytest.raises(ParameterError):
            GridFunction(2, {(0, 0): 1.0, far: 1.0})


def test_coordinates_must_be_integers():
    # int() would truncate 0.5 and 0.9 onto 0 and drop the value 1.0
    with pytest.raises(ParameterError):
        GridFunction(1, {(0.5,): 1.0, (0.9,): 2.0, (True,): 3.0})
    with pytest.raises(ParameterError):
        GridFunction(1, {("1",): 1.0})
    f = GridFunction(2, {(True, np.int64(2)): 3.0, (np.int32(-1), 0): 1.0})
    assert f.items_sorted() == [((-1, 0), 1.0), ((1, 2), 3.0)]


def test_value_point_must_be_integers():
    f = GridFunction(2, {(1, 2): 3.0})
    assert f.value((np.int64(1), 2)) == 3.0
    with pytest.raises(ParameterError):
        f.value((1.7, 2.2))       # int() would read f(1, 2)


def test_empty_function_arrays_keep_their_shapes_and_dtypes():
    pts, vals = GridFunction(3, {}).arrays()
    assert pts.shape == (0, 3) and pts.dtype == np.int64
    assert vals.shape == (0,) and vals.dtype == np.float64


def test_arrays_are_sorted_once_and_read_only():
    f = GridFunction(2, {(1, 0): 2.0, (-1, 5): 1.0, (0, 0): 3.0})
    pts, vals = f.arrays()
    assert pts.tolist() == [[-1, 5], [0, 0], [1, 0]] and vals.tolist() == [1.0, 3.0, 2.0]
    assert f.arrays()[0] is pts and f.arrays()[1] is vals
    with pytest.raises(ValueError):
        pts[0, 0] = 7
    with pytest.raises(ValueError):
        vals[0] = 7.0
    assert list(f.values) == [(-1, 5), (0, 0), (1, 0)]     # the dict view is in the same order


def test_immutability():
    f = make_delta(2)
    with pytest.raises(AttributeError):
        f.dim = 3
    with pytest.raises(TypeError):
        f.values[(0, 0)] = 2.0


def test_dimension_validation():
    with pytest.raises(ParameterError):
        GridFunction(2, {(1, 2, 3): 1.0})
    for point in ((0, 0, 0), (0,)):      # value() reads a point by the constructor's rule
        with pytest.raises(ParameterError, match=re.escape(f"point {point} does not have dimension 2")):
            make_delta(2).value(point)
    # dim = -1 passes the box's budget check (3^-1 points), so dim is checked before it
    for dim in (-1, 0, 2.0, "2"):
        with pytest.raises(ParameterError, match="dim must be a positive integer"):
            make_box_indicator(dim, 1)


def test_non_finite_values_rejected():
    # values that float() cannot read (TypeError, ValueError, OverflowError) are rejected too,
    # and so is text that it can: a value is a number, like a coordinate
    for bad in (math.nan, math.inf, -math.inf, None, 1 + 2j, [1.0], "abc", 10**400,
                "1.5", b"1.5", bytearray(b"1.5"), memoryview(b"1.5"), np.str_("1.5"),
                np.array("1.5"), np.array(b"1.5"), np.array("1.5", dtype=object)):
        with pytest.raises(ParameterError):
            GridFunction(2, {(0, 0): 1.0, (1, 0): bad})
    assert GridFunction(1, {(0,): np.array(2.5)}).value((0,)) == 2.5     # a 0-d number array


def test_text_format_round_trip():
    rng = random.Random(13)
    f = random_function(rng, 3)
    buf = io.StringIO()
    write_grid_text(f, buf)
    text = buf.getvalue()
    assert text.splitlines()[0] == "3"
    g = read_grid_text(io.StringIO(text))
    assert g == f
    # rows are lexicographically sorted
    rows = [tuple(int(c) for c in line.split()[:3]) for line in text.splitlines()[1:]]
    assert rows == sorted(rows)
    # the smallest subnormal, the most negative float and reprs in exponent and plain form
    f = GridFunction(1, {(0,): 5e-324, (1,): -1.7976931348623157e308, (2,): 1e-05, (3,): 0.1})
    buf = io.StringIO()
    write_grid_text(f, buf)
    assert read_grid_text(io.StringIO(buf.getvalue())) == f


def test_text_format_rejects_garbage():
    with pytest.raises(ParameterError):
        read_grid_text(io.StringIO("not-a-dim\n"))
    with pytest.raises(ParameterError):
        read_grid_text(io.StringIO("2\n1 2 3 4\n"))
    with pytest.raises(ParameterError):
        read_grid_text(io.StringIO("2\n1 0.5 3\n"))
    # keeping the last of two rows for one point would drop the other's value
    with pytest.raises(ParameterError, match="repeats the point"):
        read_grid_text(io.StringIO("2\n0 0 1.0\n1 0 1.0\n0 00 2.0\n"))
    # int(), float() and str.split() also read '_' separators, a '+' sign, non-ASCII digits and
    # non-ASCII spaces, which the format does not allow: it is ASCII, d and the coordinates are
    # -?[0-9]+, and a value has no '_'
    for text in ("1\n1_000 2.0\n", "1\n\u0661 2.0\n", "1\n+3 2.0\n", "1\n0 \u0662.5\n",
                 "1\n0 1_000\n", "+1\n0 2.0\n", "\u0661\n0 2.0\n", "1_0\n", "1\n0\u30002.0\n",
                 "\u00a01\n0 2.0\n", "1\n0 2.0\u3000\n", "1\n\u3000\n0 2.0\n"):
        with pytest.raises(ParameterError):
            read_grid_text(io.StringIO(text))
    f = read_grid_text(io.StringIO("2\n00 -0 2.5\n-012 7 1e3\n"))    # leading zeros still read
    assert f.items_sorted() == [((-12, 7), 1000.0), ((0, 0), 2.5)]


def test_text_format_skips_blank_lines_and_reads_rows_in_any_order():
    f = read_grid_text(io.StringIO("2\n\n1 0 2.5\n   \n-1 3 1.0\n\n"))
    assert f.items_sorted() == [((-1, 3), 1.0), ((1, 0), 2.5)]


class _EndlessRows:
    """A 1-d grid file of rows 'i 1.0' for i = 1, 2, ...; reading past row `last` fails."""

    def __init__(self, last):
        self.last = last

    def readline(self):
        return "1\n"

    def __iter__(self):
        for i in itertools.count(1):
            if i > self.last:
                pytest.fail(f"row {i} was read past the support budget")
            yield f"{i} 1.0\n"


def test_text_format_stops_reading_at_the_support_budget(monkeypatch):
    monkeypatch.setattr(grids, "DEFAULT_SUPPORT_BUDGET", 3)
    with pytest.raises(BudgetError, match="grid file rows: 4 exceeds the budget of 3"):
        read_grid_text(_EndlessRows(4))
    # the budget itself is allowed, and blank lines do not count
    f = read_grid_text(io.StringIO("1\n1 1.0\n\n2 1.0\n3 0.0\n\n"))
    assert f.support_size() == 2


def test_or_inf_reads_inf_only_past_the_float_range():
    # a value float() rounds down to the largest float keeps its bits; one it rounds up to
    # 2^1024 raises OverflowError, and reads inf for the budget rule to refuse
    top = 2**1024 - 2**971      # the largest float
    assert grids._or_inf(float, top + 2**969) == float(top) == 1.7976931348623157e308
    assert grids._or_inf(lambda: 3 * top / 3) == float(top)
    assert grids._or_inf(float, 2**1024 - 2**970) == math.inf
    assert grids._or_inf(pow, 10.0, 700) == math.inf
