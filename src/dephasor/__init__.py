"""Cat-state sensing under commuting dephasing.

Builds finite sensor models whose noise generator commutes with the
Hamiltonian, evolves them exactly or numerically, and quantifies when a
dephasing channel raises the quantum Fisher information for time and
frequency estimation above the noiseless baseline.
"""

from .dynamics import (EvolutionSpec, NoiseSchedule, default_step,
                       evolve_exact, evolve_lindblad_numeric, schedule_eval,
                       trajectory)
from .estimators import (EstimateReport, ObservableSpec, estimator_variance,
                         observable_expectation, optimal_observable,
                         saturation_ratio)
from .fisher import (QfiReport, SldResult, derivative_coefficients,
                     qfi_cat, qfi_closed, qfi_lower_bound, sld_and_qfi,
                     state_derivative)
from .hilbert import (CatSpec, DensityMatrix, NumericalContractError,
                      Operator, SensorModel, SupportBlock, ValidationError,
                      branch_model, build_sensor_model, cat_initial_state,
                      cat_spec_for, load_model, model_from_json,
                      model_to_json, operator_expectation)
from .linalg import joint_eigenbasis
from .protocols import (GridSpec, HeatmapTable, OptimumReport, RampWindow,
                        SensingTime, advantage_ratio, constant_rate_gain,
                        default_fig_grid, heatmap_scan, maximize_ratio,
                        optimal_time_constant, optimal_window_ramp,
                        ramp_window_gain)
from .svgmap import render_heatmap_svg

__version__ = "0.1.0"

__all__ = [
    "CatSpec", "DensityMatrix", "EstimateReport", "EvolutionSpec", "GridSpec",
    "HeatmapTable", "NoiseSchedule", "NumericalContractError",
    "ObservableSpec", "Operator", "OptimumReport", "QfiReport", "RampWindow",
    "SensingTime", "SensorModel", "SldResult", "SupportBlock",
    "ValidationError", "advantage_ratio", "branch_model", "build_sensor_model",
    "cat_initial_state", "cat_spec_for",
    "constant_rate_gain", "default_fig_grid", "default_step",
    "derivative_coefficients", "estimator_variance", "evolve_exact",
    "evolve_lindblad_numeric",
    "heatmap_scan", "joint_eigenbasis", "load_model", "maximize_ratio",
    "model_from_json", "model_to_json",
    "observable_expectation", "operator_expectation", "optimal_observable",
    "optimal_time_constant", "optimal_window_ramp", "qfi_cat", "qfi_closed",
    "qfi_lower_bound", "ramp_window_gain",
    "render_heatmap_svg", "saturation_ratio", "schedule_eval", "sld_and_qfi",
    "state_derivative", "trajectory",
]
