"""halfline-dnls: coefficient-space solvers and a verification lab for
derivative nonlinear Schrodinger equations with one-sided Fourier support
on the circle.

The one-sided support makes the truncated coefficient dynamics an exact
restriction of the full equation, so three independent pipelines (cascade
Duhamel quadrature, normal-form Picard, gauge-system Picard) must agree to
solver tolerance; the package exploits that to certify phase bounds, witness
unconditional uniqueness numerically, and reproduce norm inflation with
infinite loss of regularity at desk scale.
"""

__version__ = "0.1.0"

from .spectral import (DispersionKind, EquationSpec, SpectralState,
                       TruncationMismatchError, convolve, derivative_coeffs,
                       dispersion_mu, dispersion_symbol, power, sobolev_norm)
from .phase import (PhaseCertificate, PhaseTuple, certify_phase_bound,
                    phase_lower_bound, resonance_phase, support_semigroup)
from .quadrature import OverflowGuardError, PanelGrid, QuadratureError
from .trajectory import Trajectory
from .cascade import (TimeWindow, cascade_integrate, linear_solve,
                      mean_zero_inverse, mean_zero_transform,
                      nonlinear_forcing, standard_windows, weak_residual)
from .normalform import (MaxIterationsError, NonContractionError,
                         NormalFormOperators, PicardLog, picard_solve)
from .gauge import (GaugeWeight, SecularSlopeError, compatibility_defects,
                    compatible_gauge_data, conjugation_defect, exp_coeffs,
                    gauge_exp, gauge_lambda, gauge_picard_solve,
                    gauge_system_rhs, primitive_from_zero)
from .inflation import (ExperimentConfig, NormReport, build_inflation_data,
                        choose_N, cross_validate, inflation_time,
                        run_experiment)

__all__ = [
    "__version__",
    # spectral core
    "DispersionKind", "EquationSpec", "SpectralState",
    "TruncationMismatchError", "convolve", "power", "sobolev_norm",
    "derivative_coeffs", "dispersion_mu", "dispersion_symbol",
    # phase analysis
    "PhaseTuple", "PhaseCertificate", "resonance_phase", "phase_lower_bound",
    "certify_phase_bound", "support_semigroup",
    # quadrature / trajectories
    "PanelGrid", "QuadratureError", "OverflowGuardError", "Trajectory",
    # cascade
    "nonlinear_forcing", "cascade_integrate", "linear_solve",
    "mean_zero_transform", "mean_zero_inverse", "TimeWindow",
    "standard_windows", "weak_residual",
    # normal form
    "NormalFormOperators", "PicardLog", "picard_solve",
    "NonContractionError", "MaxIterationsError",
    # gauge
    "GaugeWeight", "SecularSlopeError", "primitive_from_zero", "gauge_lambda",
    "exp_coeffs", "gauge_exp", "gauge_system_rhs", "compatible_gauge_data",
    "gauge_picard_solve", "compatibility_defects", "conjugation_defect",
    # inflation lab
    "build_inflation_data", "inflation_time", "choose_N", "ExperimentConfig",
    "NormReport", "run_experiment", "cross_validate",
]
