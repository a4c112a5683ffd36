"""Error taxonomy shared by all spherelab modules, and the CLI's exit code for each."""


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


# (error class, kind, exit code): cli.run ends an error of the first class it matches with the
# line "error (kind): message" and the exit code
EXIT_CODES = (
    (BudgetError, "budget", 3),
    (MemoryError, "memory", 3),
    (AnalysisError, "analysis", 4),
    (ParameterError, "parameters", 2),
    (OSError, "io", 2),
)
