"""Curvature tower of a Finsler metric via truncated-jet differentiation.

The pipeline runs entirely on exact truncated Taylor jets: metric tensor,
spray, nonlinear connection, Jacobi endomorphism, Berwald and mean Berwald
curvature, chi form, Cartan and Landsberg torsions. On top of that sit two
families of scalar first integrals of the geodesic flow (power traces and
characteristic-polynomial coefficients of a normalized mean Berwald
endomorphism), a Poisson bracket on field pairs, a geodesic integrator with
drift tracking, and an invariant-verification harness.
"""

from .errors import (
    ConfigError,
    DimensionError,
    DomainError,
    FamilyError,
    FinslerError,
    OrderError,
    SingularMetricError,
    StepFailure,
    UnknownFieldError,
)
from .flow import DriftReport, FieldDrift, IntegrateSettings, Trajectory, drift, integrate
from .integrals import (
    FirstIntegralSet,
    evaluate_fields,
    field_ids,
    first_integral_set,
    paper_closed_forms,
    poisson_bracket_scaled,
)
from .jets import DualLayer, Jet, JetArray, JetSpace
from .metrics import MetricSpec, PhasePoint, catalog, load_metric_file, parse_metric, sample_phase_point
from .tensors import CurvaturePacket, FlagData, PointEvaluation
from .verify import VerifyReport, verify_metric

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "CurvaturePacket",
    "DimensionError",
    "DomainError",
    "DriftReport",
    "DualLayer",
    "FamilyError",
    "FieldDrift",
    "FinslerError",
    "FirstIntegralSet",
    "FlagData",
    "IntegrateSettings",
    "Jet",
    "JetArray",
    "JetSpace",
    "MetricSpec",
    "OrderError",
    "PhasePoint",
    "PointEvaluation",
    "SingularMetricError",
    "StepFailure",
    "Trajectory",
    "UnknownFieldError",
    "VerifyReport",
    "catalog",
    "drift",
    "evaluate_fields",
    "field_ids",
    "first_integral_set",
    "integrate",
    "load_metric_file",
    "paper_closed_forms",
    "parse_metric",
    "poisson_bracket_scaled",
    "sample_phase_point",
    "verify_metric",
    "__version__",
]
