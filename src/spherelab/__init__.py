"""spherelab: discrete multilinear spherical averages on Z^d.

Exact lattice-point counting on degree-k spheres, sparse grid functions,
the multilinear averaging/maximal operators with a pointwise domination
checker, and the sharpness toolkit (witness family, decay fits, norm scans,
critical exponents).
"""

from .counts import (
    RepCountTable,
    Shell,
    SphereSpec,
    TableCache,
    enumerate_shell,
    growth_exponent_fit,
    joint_count,
    rep_counts,
)
from .errors import (
    AnalysisError,
    BudgetError,
    EmptySphereWarning,
    ParameterError,
    RangeError,
    SphereLabError,
)
from .grids import (
    GridFunction,
    make_box_indicator,
    make_delta,
    read_grid_text,
    write_grid_text,
)
from .operators import (
    Normalization,
    OperatorConfig,
    domination_check,
    domination_check_multilinear,
    hl_maximal,
    linear_spherical_maximal,
    multilinear_average,
    multilinear_maximal,
)
from .reports import DominationReport, ExponentReport, RegionVerdict, ScanReport
from .sharpness import (
    WitnessSpec,
    critical_r,
    decay_fit,
    p0_bound,
    partial_norm_scan,
    r0_bound,
    region_classify,
    witness_value,
    witness_values,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisError",
    "BudgetError",
    "DominationReport",
    "EmptySphereWarning",
    "ExponentReport",
    "GridFunction",
    "Normalization",
    "OperatorConfig",
    "ParameterError",
    "RangeError",
    "RegionVerdict",
    "RepCountTable",
    "ScanReport",
    "Shell",
    "SphereLabError",
    "SphereSpec",
    "TableCache",
    "WitnessSpec",
    "critical_r",
    "decay_fit",
    "domination_check",
    "domination_check_multilinear",
    "enumerate_shell",
    "growth_exponent_fit",
    "hl_maximal",
    "joint_count",
    "linear_spherical_maximal",
    "make_box_indicator",
    "make_delta",
    "multilinear_average",
    "multilinear_maximal",
    "p0_bound",
    "partial_norm_scan",
    "r0_bound",
    "read_grid_text",
    "region_classify",
    "rep_counts",
    "witness_value",
    "witness_values",
    "write_grid_text",
]
