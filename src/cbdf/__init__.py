"""Variable-step implicit multistep integrators of orders 1-8 and their
complex-fraction two-jump compositions of orders 2-9, with a built-in local
error estimate, linear stability analysis, and an adaptive step driver.
"""

from . import errors
from .adaptivity import (
    StepController,
    TrajectoryRecord,
    adaptive_drive,
    min_ratio,
    next_step,
    ratio_clamp,
)
from .bdf_core import (
    HistoryWindow,
    ImplicitSolveConfig,
    coeff_fixed,
    coeff_variable,
    g_closed_form,
    predictor_weights,
)
from .composition import (
    ComposedStepOutput,
    CompositionSetup,
    G_coefficients,
    alpha1_polynomial,
    build_setup,
    composed_step,
    gbar_fixed,
    ratios_from_window,
    solve_alpha1,
)
from .polyroot import find_roots, solve_dense
from .problems import ODEProblem, bootstrap, builtin, lambert_w
from .stability import (
    StabilityRegion,
    region_raster,
    region_to_csv,
    region_to_pbm,
    stability_angle,
    theta_coefficients,
)

__version__ = "0.1.0"

__all__ = [
    "solve_dense",
    "find_roots",
    "HistoryWindow",
    "ImplicitSolveConfig",
    "coeff_fixed",
    "coeff_variable",
    "g_closed_form",
    "predictor_weights",
    "CompositionSetup",
    "ComposedStepOutput",
    "ratios_from_window",
    "alpha1_polynomial",
    "solve_alpha1",
    "G_coefficients",
    "gbar_fixed",
    "build_setup",
    "composed_step",
    "StabilityRegion",
    "theta_coefficients",
    "region_raster",
    "stability_angle",
    "region_to_csv",
    "region_to_pbm",
    "StepController",
    "TrajectoryRecord",
    "ratio_clamp",
    "next_step",
    "min_ratio",
    "adaptive_drive",
    "ODEProblem",
    "builtin",
    "lambert_w",
    "bootstrap",
    "errors",
]
