"""Exact truncated convolution of nonnegative integer sequences.

Sparse inputs use schoolbook multiplication, whose cost grows with the
number of nonzero pairs nnz(a) * nnz(b).  Dense inputs use Kronecker
substitution in base 10^w, whose cost grows with n_out * w: each sequence
is written as one decimal number whose i-th block of w digits, counted from
the least significant end, is coefficient i; one multiply of the two
numbers then holds the product's coefficients in the same w-digit slots.

  * Multiply: it is done by the stdlib ``decimal`` module (libmpdec),
    which switches to a number-theoretic transform for large operands, and
    decimal strings convert to and from Decimal in linear time.  A square
    (a is b) builds one Decimal and multiplies it by itself, which lets
    libmpdec transform the operand once.
  * Packing: numpy does the digit work, with no Python code run per
    coefficient.  Coefficients are split into base-10^18 int64 limbs, the
    limbs into the ASCII digits of one uint8 matrix of w-digit rows, and its
    bytes are the decimal string.  The product's digit string is read back
    as a uint8 array; each 18-digit column block of its w-digit rows
    becomes one int64 limb, and the limbs are joined into Python ints.
  * Slot bound: every product coefficient, kept or not, is at most
    min(sum(a) * max(b), sum(b) * max(a)); w is one digit more than that
    bound has, so no slot carries into the next.  The bound is at least
    max(a) and max(b), so every operand coefficient fits its slot too.
  * Exactness: the context's precision (MAX_PREC) exceeds the digits of any
    product that fits in memory, and it traps Inexact, so a product that
    would have been rounded raises instead of yielding a wrong count.
"""

from __future__ import annotations

import decimal

import numpy as np

from .grids import _within_budget

# The decimal path costs about as much as 6 schoolbook pairs per output
# coefficient: per-call timings of the r_{d,k} table builds (d <= 10,
# k = 2, 3) and of experiment 1 favour schoolbook at 5 pairs per coefficient
# and the decimal path at 10.3 when n_out = 10^4, and are even at 6.9
# (2.3e5 pairs) when n_out = 2^15.  It also has a fixed cost of 17-34 us, and
# a schoolbook pair costs about 0.09 us: over the 208 steps of the tables to
# lambda = 12, 15, 30 and 60, a fixed term of 300 or 400 pairs was fastest.
_SPARSE_PAIRS_PER_COEFF = 6
_SPARSE_FIXED_PAIRS = 300

# Largest dense operand, n_out * w digits.  The biggest in use are 3.15 M
# (experiment 2: d = 10, lambda = 2^17) and 2.4 M (d = 10, lambda = 10^5).
_DIGIT_BUDGET = 10**8

_EXACT = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    Emin=decimal.MIN_EMIN,
    traps=[decimal.Inexact],
)

# An int64 limb holds 18 decimal digits, and so does an int64 sum of 18
# ASCII digit codes times powers of ten: 57 * (10^18 - 1) / 9 < 2^63.
_LIMB_DIGITS = 18
_LIMB = 10**_LIMB_DIGITS
# Column m holds the ASCII digits of m, zero-padded to three.
_TRIPLE_COLUMNS = np.frombuffer(
    b"".join(b"%03d" % m for m in range(1000)), dtype=np.uint8
).reshape(1000, 3).T.copy()


def _convolve_sparse(a: list[int], b: list[int], n_out: int) -> list[int]:
    out = [0] * n_out
    nz_b = [(j, v) for j, v in enumerate(b) if v]
    for i, u in enumerate(a):
        if not u:
            continue
        for j, v in nz_b:
            if i + j >= n_out:
                break
            out[i + j] += u * v
    return out


def _limb_columns(w: int) -> list[tuple[int, int]]:
    """Column ranges [lo, hi) of the limbs of a w-digit slot, least significant first."""
    return [(max(hi - _LIMB_DIGITS, 0), hi) for hi in range(w, 0, -_LIMB_DIGITS)]


def _pack(c: list[int], w: int) -> decimal.Decimal:
    """The decimal number whose i-th w-digit slot from the right holds c[i]."""
    rest = np.array(c[::-1], dtype=object)
    digits = np.empty((w, len(c)), dtype=np.uint8)  # digit columns of the slots
    for lo, hi in _limb_columns(w):
        if lo > 0:
            limb = (rest % _LIMB).astype(np.int64)
            rest //= _LIMB
        else:
            limb = rest.astype(np.int64)
        for end in range(hi, lo, -3):
            start = max(end - 3, lo)
            limb, low = np.divmod(limb, 1000)
            # low is in range; mode="clip" lets take write into out unbuffered
            np.take(_TRIPLE_COLUMNS[3 - (end - start):], low, axis=1,
                    out=digits[start:end], mode="clip")
    return decimal.Decimal(np.ascontiguousarray(digits.T).tobytes().decode("ascii"))


def _unpack(product: decimal.Decimal, w: int, n_out: int) -> list[int]:
    """Coefficients 0..n_out-1 of a product held in w-digit slots."""
    raw = np.frombuffer(str(product).zfill(n_out * w).encode("ascii"), dtype=np.uint8)
    digits = np.ascontiguousarray(raw[len(raw) - n_out * w:].reshape(n_out, w)[::-1].T)
    del raw  # the product's digit bytes go before the limbs are built
    limbs = []
    for lo, hi in _limb_columns(w):
        limb = digits[lo].astype(np.int64)
        for col in range(lo + 1, hi):
            limb *= 10
            limb += digits[col]
        limb -= ord("0") * ((10 ** (hi - lo) - 1) // 9)
        limbs.append(limb)
    out = limbs.pop()
    if not limbs:
        return out.tolist()
    out = out.astype(object)
    while limbs:
        out *= _LIMB
        out += limbs.pop()
    return out.tolist()


def convolve_trunc(a: list[int], b: list[int], n_out: int) -> list[int]:
    """First n_out coefficients of the product of the generating series a, b.

    All entries must be nonnegative integers; the result is exact.
    """
    nnz_a = len(a) - a.count(0)
    nnz_b = len(b) - b.count(0)
    if n_out == 0 or nnz_a * nnz_b <= _SPARSE_PAIRS_PER_COEFF * n_out + _SPARSE_FIXED_PAIRS:
        return _convolve_sparse(a, b, n_out)
    w = len(str(min(sum(a) * max(b), sum(b) * max(a)))) + 1
    _within_budget(n_out * w, f"digits of a dense convolution of {n_out} coefficients", _DIGIT_BUDGET)
    x = _pack(a[:n_out], w)
    y = x if a is b else _pack(b[:n_out], w)
    return _unpack(_EXACT.multiply(x, y), w, n_out)


def power_trunc(g: list[int], exponent: int, n_out: int) -> list[int]:
    """g**exponent as a truncated generating series, by left-to-right binary powering.

    Each step squares the power so far and, where the exponent has a one
    bit, multiplies it by g, so the last step of an even exponent is a
    square.  Every step goes through the module global convolve_trunc.
    """
    if exponent == 0:
        return [1] + [0] * (n_out - 1)
    base = list(g[:n_out]) + [0] * max(0, n_out - len(g))
    result = base
    for bit in bin(exponent)[3:]:
        result = convolve_trunc(result, result, n_out)
        if bit == "1":
            result = convolve_trunc(result, base, n_out)
    return result
