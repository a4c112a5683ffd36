"""Exact truncated convolution of nonnegative integer sequences.

Sparse inputs use schoolbook multiplication, whose cost grows with the
number of nonzero pairs nnz(a) * nnz(b).  Dense inputs use Kronecker
substitution in base 10^w, whose cost grows with n_out * w: each sequence
is written as one decimal number whose i-th block of w digits, counted from
the least significant end, is coefficient i; one multiply of the two
numbers then holds the product's coefficients in the same w-digit slots.

  * Multiply: it is done by the stdlib ``decimal`` module (libmpdec),
    which switches to a number-theoretic transform for large operands, and
    decimal strings convert to and from Decimal in linear time.
  * Slot bound: every product coefficient, kept or not, is at most
    min(sum(a) * max(b), sum(b) * max(a)); w is one digit more than that
    bound has, so no slot carries into the next.
  * Exactness: the context's precision (MAX_PREC) exceeds the digits of any
    product that fits in memory, and it traps Inexact, so a product that
    would have been rounded raises instead of yielding a wrong count.
"""

from __future__ import annotations

import decimal

from .errors import BudgetError

# The decimal path costs about as much as 20 schoolbook pairs per output
# coefficient: per-call timings of the r_{d,k} table builds (d <= 10,
# k = 2, 3) cross near 2.2e5 pairs at n_out = 10^4 and 6.5e5 at 2^15.
_SPARSE_PAIRS_PER_COEFF = 20

# Largest dense operand, n_out * w digits.  The biggest in use are 3.15 M
# (experiment 2: d = 10, lambda = 2^17) and 2.3 M (d = 10, lambda = 10^5).
_DIGIT_BUDGET = 10**8

_EXACT = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    Emin=decimal.MIN_EMIN,
    traps=[decimal.Inexact],
)


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


def convolve_trunc(a: list[int], b: list[int], n_out: int) -> list[int]:
    """First n_out coefficients of the product of the generating series a, b.

    All entries must be nonnegative integers; the result is exact.
    """
    nnz_a = sum(1 for v in a if v)
    nnz_b = sum(1 for v in b if v)
    if nnz_a == 0 or nnz_b == 0:
        return [0] * n_out
    if nnz_a * nnz_b <= _SPARSE_PAIRS_PER_COEFF * n_out:
        return _convolve_sparse(a, b, n_out)
    w = len(str(min(sum(a) * max(b), sum(b) * max(a)))) + 1
    if n_out * w > _DIGIT_BUDGET:
        raise BudgetError(f"a dense convolution of {n_out} coefficients needs {n_out * w} digits")
    slot = f"0{w}d"
    x = decimal.Decimal("".join([format(c, slot) for c in reversed(a)]))
    y = decimal.Decimal("".join([format(c, slot) for c in reversed(b)]))
    digits = str(_EXACT.multiply(x, y)).zfill(n_out * w)
    top = len(digits)
    return [int(digits[top - (i + 1) * w : top - i * w]) for i in range(n_out)]


def power_trunc(g: list[int], exponent: int, n_out: int) -> list[int]:
    """g**exponent as a truncated generating series, by repeated squaring."""
    result = [0] * n_out
    result[0] = 1
    base = list(g[:n_out]) + [0] * max(0, n_out - len(g))
    e = exponent
    while e:
        if e & 1:
            result = convolve_trunc(result, base, n_out)
        e >>= 1
        if e:
            base = convolve_trunc(base, base, n_out)
    return result
