"""Brute-force oracles used by the tests and by perfbench's checks, each deliberately naive and
independent of the library code it checks.

brute_rep_count_table, brute_shell and brute_multilinear are defined once, in
spherelab.acceptance, and re-exported here.  A count table is brute_shell's number of points per
level; test_inputs checks that none of the three reads a name acceptance.py imports from the
package.  brute_convolve multiplies two count series term by term, and brute_witness enumerates
the witness box.  Slice levels have no oracle of their own: the tests compare the engine's level
profiles with shell sums over brute_shell.
"""

from __future__ import annotations

import itertools
from collections import Counter

from spherelab.acceptance import brute_multilinear, brute_rep_count_table, brute_shell  # noqa: F401


def brute_convolve(a: list[int], b: list[int], n_out: int) -> list[int]:
    """First n_out coefficients of the product series a * b, term by term."""
    out = [0] * n_out
    for i in range(len(a)):
        for j in range(len(b)):
            if i + j < n_out:
                out[i + j] += a[i] * b[j]
    return out


def brute_witness(x, dim: int, degree: int, linearity: int, box_radius: int) -> float:
    """Witness supremum by direct candidate enumeration over the box."""
    base = (linearity - 1) * sum(abs(c) ** degree for c in x)
    counter: Counter[int] = Counter()
    for w in itertools.product(range(-box_radius, box_radius + 1), repeat=dim):
        lam = base + sum(abs(a - b) ** degree for a, b in zip(x, w))
        if lam >= 1:
            counter[lam] += 1
    expo = linearity * dim / degree - 1.0
    return max(c * lam ** (-expo) for lam, c in counter.items())
