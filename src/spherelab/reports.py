"""Report types produced by the fitting, scanning, and checking routines."""

from __future__ import annotations

from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class ExponentReport:
    """Log-log slope fit against an expected exponent."""

    fitted_slope: float
    expected_slope: float
    residual: float  # RMS of fit residuals, >= 0
    sample_range: str

    def as_dict(self) -> dict:
        return {
            "slope": self.fitted_slope,
            "expected": self.expected_slope,
            "residual": self.residual,
            "sample_range": self.sample_range,
        }


@dataclass(frozen=True)
class ScanReport:
    """Partial l^r norms of a witness family plus dyadic shell diagnostics.

    shell_sums[i] is the sum of witness^r over the annulus
    (radii[i], radii[i+1]]; ratios are consecutive quotients of those sums.
    partial_norms[i] is the l^r norm over the full ball |x| <= radii[i].
    """

    r: float
    radii: list[int]
    partial_norms: list[float]
    shell_sums: list[float]
    ratios: list[float]
    seed: int
    region_modes: list[str]  # "exact"/"sampled"

    as_dict = asdict


@dataclass(frozen=True)
class DominationReport:
    """Worst pointwise excess of a maximal operator over its majorant."""

    max_violation: float
    argmax_point: tuple[int, ...] | None
    lambda_max: int
    points_checked: int

    as_dict = asdict


@dataclass(frozen=True)
class RegionVerdict:
    """Boundedness classification of an (1/p, 1/q, 1/r) exponent triple."""

    verdict: str  # BOUNDED | UNBOUNDED | UNKNOWN
    reason: str
