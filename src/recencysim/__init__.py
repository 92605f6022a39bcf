"""Desk-scale simulation toolkit for cross-sectional HIV incidence estimation
under testing-based exclusion criteria and selective screening attendance."""

__version__ = "0.1.0"

from .recency_model import DEFAULT_ASSAY, LONG_ASSAY, RecencyAssay, mdri, phi
from .testing_history import (
    ExponentialInterTest,
    ObservationRule,
    TestingProcess,
    UniformInterTest,
)
from .population import (
    DEFAULT_PARAMS,
    PopulationParams,
    SurveyCounts,
)
from .estimator import (
    analytic_bias,
    effective_mdri_closed,
    kassanjee_estimate,
    log_variance,
    survey_composition,
)
from .screening_analytics import (
    ScreeningForecast,
    forecast,
    required_screening,
)

__all__ = [
    "DEFAULT_ASSAY",
    "LONG_ASSAY",
    "RecencyAssay",
    "mdri",
    "phi",
    "ExponentialInterTest",
    "UniformInterTest",
    "ObservationRule",
    "TestingProcess",
    "DEFAULT_PARAMS",
    "PopulationParams",
    "SurveyCounts",
    "analytic_bias",
    "effective_mdri_closed",
    "kassanjee_estimate",
    "log_variance",
    "survey_composition",
    "ScreeningForecast",
    "forecast",
    "required_screening",
]
