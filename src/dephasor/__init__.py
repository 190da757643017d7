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
from .fisher import (QfiReport, SldResult, drho_domega, drho_dt, qfi_closed,
                     qfi_freq_cat, qfi_freq_lower_bound, qfi_quadratic_bound,
                     qfi_time_cat, qfi_time_lower_bound, sld_and_qfi)
from .hilbert import (CatSpec, DensityMatrix, NumericalContractError,
                      Operator, SensorModel, ValidationError, branch_model,
                      build_sensor_model, cat_initial_state, cat_spec_for,
                      commutator_norms, load_model, model_from_json,
                      model_to_json, operator_expectation)
from .linalg import joint_eigenbasis
from .protocols import (GridSpec, HeatmapTable, OptimumReport, RampWindow,
                        SensingTime, advantage_ratio, constant_rate_gain,
                        default_fig_grid, golden_section_max, heatmap_scan,
                        maximize_ratio, optimal_time_constant,
                        optimal_window_ramp, ramp_window_gain)
from .svgmap import render_heatmap_svg

__version__ = "0.1.0"

__all__ = [
    "CatSpec", "DensityMatrix", "EstimateReport", "EvolutionSpec", "GridSpec",
    "HeatmapTable", "NoiseSchedule", "NumericalContractError",
    "ObservableSpec", "Operator", "OptimumReport", "QfiReport", "RampWindow",
    "SensingTime", "SensorModel", "SldResult", "ValidationError",
    "advantage_ratio", "branch_model", "build_sensor_model",
    "cat_initial_state", "cat_spec_for", "commutator_norms",
    "constant_rate_gain", "default_fig_grid", "default_step", "drho_domega",
    "drho_dt", "estimator_variance", "evolve_exact", "evolve_lindblad_numeric",
    "golden_section_max", "heatmap_scan", "joint_eigenbasis", "load_model",
    "maximize_ratio", "model_from_json", "model_to_json",
    "observable_expectation", "operator_expectation", "optimal_observable",
    "optimal_time_constant", "optimal_window_ramp", "qfi_closed",
    "qfi_freq_cat", "qfi_freq_lower_bound", "qfi_quadratic_bound",
    "qfi_time_cat", "qfi_time_lower_bound", "ramp_window_gain",
    "render_heatmap_svg", "saturation_ratio", "schedule_eval", "sld_and_qfi",
    "trajectory",
]
