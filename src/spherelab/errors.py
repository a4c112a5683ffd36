"""Error taxonomy shared by all spherelab modules.

Exit-code mapping used by the CLI: parameter/range errors -> 2,
budget/resource errors -> 3 (a MemoryError too), analysis errors -> 4.
"""


class SphereLabError(Exception):
    """Base class for all spherelab errors."""


class ParameterError(SphereLabError):
    """Invalid argument values or combinations."""


class RangeError(ParameterError):
    """A requested index lies outside a precomputed table."""


class BudgetError(SphereLabError):
    """A support/work budget would be exceeded; raised before allocating."""


class AnalysisError(SphereLabError):
    """A fit or scan is degenerate (empty blocks, single sample, ...)."""


class EmptySphereWarning(UserWarning):
    """Exact normalization hit a level with zero lattice points."""
