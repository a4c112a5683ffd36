"""Brute-force oracles used by the tests and by perfbench's checks.

The count, shell and multilinear oracles are defined once, in
spherelab.acceptance, and re-exported here, so the tests and perfbench
reach them through this module.  All oracles are deliberately naive and
independent of the library code paths they check.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field

from spherelab import BudgetError, GridFunction, ParameterError, SphereSpec
from spherelab.acceptance import brute_multilinear, brute_rep_count_table, brute_shell  # noqa: F401

DEFAULT_SLICE_WORK_BUDGET = 5 * 10**7


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


@dataclass(frozen=True)
class SliceFamily:
    """The slice levels F_mu of a source function, mu = 0..mu_max."""

    source: GridFunction
    spec: SphereSpec
    mu_max: int
    slices: tuple[GridFunction, ...] = field(repr=False)

    def slice(self, mu: int) -> GridFunction:
        if not 0 <= mu <= self.mu_max:
            raise ParameterError(f"mu={mu} outside 0..{self.mu_max}")
        return self.slices[mu]


def slice_family(
    f: GridFunction,
    spec: SphereSpec,
    mu_max: int,
    *,
    work_budget: int = DEFAULT_SLICE_WORK_BUDGET,
) -> SliceFamily:
    """F_mu(x) = sum_{shell mu} f(x - u) for every mu = 0..mu_max.

    Work is counted as sum_mu r(mu) * |supp f| while the shells are
    enumerated; exceeding the budget raises BudgetError naming the level.
    """
    if f.dim != spec.dim:
        raise ParameterError(f"function dim {f.dim} != spec dim {spec.dim}")
    if not isinstance(mu_max, int) or mu_max < 0:
        raise ParameterError(f"mu_max must be a nonnegative integer, got {mu_max!r}")
    support = f.items_sorted()
    shells = []
    work = 0
    for mu in range(mu_max + 1):
        shells.append(brute_shell(spec.dim, spec.degree, mu))
        work += len(shells[mu]) * len(support)
        if work > work_budget:
            raise BudgetError(
                f"slice family work estimate exceeds budget {work_budget} at mu={mu}"
            )
    slices = []
    for shell in shells:
        acc: dict[tuple[int, ...], float] = {}
        for y, v in support:
            for u in shell:
                x = tuple(a + b for a, b in zip(y, u))
                acc[x] = acc.get(x, 0.0) + v
        slices.append(GridFunction(f.dim, acc))
    return SliceFamily(source=f, spec=spec, mu_max=mu_max, slices=tuple(slices))
