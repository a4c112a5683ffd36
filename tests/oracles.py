"""Brute-force oracles used by the tests.

Deliberately naive and independent of the library code paths: counts by
full coordinate enumeration over itertools.product, averages by walking
the joint sphere in Z^(l*d) tuple by tuple.
"""

from __future__ import annotations

import itertools
from collections import Counter


def kth_root(m: int, k: int) -> int:
    r = 0
    while (r + 1) ** k <= m:
        r += 1
    return r


def brute_count(dim: int, degree: int, lam: int) -> int:
    if lam < 0:
        return 0
    root = kth_root(lam, degree)
    coords = range(-root, root + 1)
    return sum(
        1
        for u in itertools.product(coords, repeat=dim)
        if sum(abs(c) ** degree for c in u) == lam
    )


def brute_shell(dim: int, degree: int, lam: int) -> list[tuple[int, ...]]:
    root = kth_root(lam, degree)
    coords = range(-root, root + 1)
    return sorted(
        u
        for u in itertools.product(coords, repeat=dim)
        if sum(abs(c) ** degree for c in u) == lam
    )


def brute_convolve(a: list[int], b: list[int], n_out: int) -> list[int]:
    """First n_out coefficients of the product series a * b, term by term."""
    out = [0] * n_out
    for i in range(len(a)):
        for j in range(len(b)):
            if i + j < n_out:
                out[i + j] += a[i] * b[j]
    return out


def brute_multilinear(fs, lam: int, dim: int, degree: int, exact: bool):
    """T_lam by full joint-sphere enumeration; returns {point: value}."""
    ell = len(fs)
    root = kth_root(lam, degree)
    coords = range(-root, root + 1)
    shell = [
        w
        for w in itertools.product(coords, repeat=dim * ell)
        if sum(abs(c) ** degree for c in w) == lam
    ]
    acc: dict[tuple[int, ...], float] = {}
    support0 = sorted(fs[0].values.items())
    for w in shell:
        parts = [w[j * dim : (j + 1) * dim] for j in range(ell)]
        for y, v0 in support0:
            x = tuple(a + b for a, b in zip(y, parts[0]))
            prod = v0
            for j in range(1, ell):
                prod *= fs[j].value(tuple(a - b for a, b in zip(x, parts[j])))
                if prod == 0.0:
                    break
            if prod != 0.0:
                acc[x] = acc.get(x, 0.0) + prod
    if exact:
        if not shell:
            return {}
        return {x: v / len(shell) for x, v in acc.items() if v != 0.0}
    norm = float(lam) ** (ell * dim / degree - 1.0)
    return {x: v / norm for x, v in acc.items() if v != 0.0}


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
