"""Practical readout: branch-interference observables and error propagation.

The measured signal for both sensor families is

    <O> = cos(dE t) exp(-dL^2 Gamma)

with unit-magnitude eigenvalues of O on the branch pair, so
(Delta O)^2 = 1 - <O>^2, and a parameter estimate from inverting the
mean carries variance (Delta O)^2 / |d<O>/d lambda|^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import NoiseSchedule, scalar_or_array, schedule_eval, times
from .fisher import (law_at, qfi_law, require_finite, require_law,
                     signal_derivative_law, signal_law)
from .hilbert import CatSpec, Operator, SensorModel, ValidationError


@dataclass(frozen=True, eq=False)
class ObservableSpec:
    """A readout observable and the family it belongs to."""

    kind: str
    operator: Operator


@dataclass(frozen=True)
class EstimateReport:
    """Signal statistics and the propagated estimator variance.

    ``d_mean`` and ``variance_estimator`` are None when only the signal
    itself was requested.  A stationary signal (d_mean == 0) makes the
    estimator variance an explicit infinity rather than an error.
    """

    mean: float
    variance_o: float
    d_mean: float | None = None
    variance_estimator: float | None = None
    parameter: str | None = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def diverged(self) -> bool:
        return self.variance_estimator is not None and \
            math.isinf(self.variance_estimator)

    def to_dict(self) -> dict:
        return {"mean": self.mean, "variance_O": self.variance_o,
                "d_mean": self.d_mean,
                "variance_estimator": self.variance_estimator,
                "parameter": self.parameter,
                "diagnostics": self.diagnostics}


def optimal_observable(model: SensorModel) -> ObservableSpec:
    """The branch-interference readout for a sensor family.

    Qubit networks measure the product of single-qubit sigma_x, which on
    the computational basis is the bit-complement exchange matrix.  Any
    two-level model measures the branch swap, sigma_x in its eigenbasis.
    """
    parity = model.kind == "qubit_network"
    if not parity and model.dim != 2:
        raise ValidationError(
            "custom models need an explicitly chosen observable")
    op, v = np.eye(model.dim, dtype=complex)[::-1], model.basis
    if not parity and v is not None:
        op = v @ op @ v.conj().T
    return ObservableSpec(kind="parity" if parity else "branch_swap",
                          operator=Operator(op, hermitian=True))


def observable_expectation(spec: CatSpec, schedule: NoiseSchedule,
                           t: float) -> EstimateReport:
    """Signal mean and variance at a single time."""
    _, integral = schedule_eval(schedule, t)
    mean = float(signal_law(spec, integral, t))
    return EstimateReport(mean=mean, variance_o=1.0 - mean * mean,
                          diagnostics={"integral": integral})


@np.errstate(all="ignore")
def signal_statistics(spec: CatSpec, schedule: NoiseSchedule, t,
                      parameter: str):
    """(integral, mean, var(O), d<O>/d lambda, var(O) / |d<O>/d lambda|^2)
    at a time or an array of times (floats for a scalar time); the last
    is an explicit infinity where the signal is stationary."""
    require_law(spec, parameter)
    ts = times(t)
    rate, integral = schedule_eval(schedule, ts)
    mean = signal_law(spec, integral, ts)
    d_mean = signal_derivative_law(spec, parameter, rate, integral, ts)
    var_o = 1.0 - mean * mean
    d2 = d_mean * d_mean  # below the normal range: divide by d_mean twice
    var_est = np.where(d_mean == 0.0, np.inf, np.where(
        d2 < np.finfo(float).tiny, var_o / d_mean / d_mean, var_o / d2))
    return tuple(scalar_or_array(t, v) for v in
                 (integral, mean, var_o, d_mean, var_est))


def estimator_variance(spec: CatSpec, schedule: NoiseSchedule, t: float,
                       parameter: str) -> EstimateReport:
    """Error propagation var(O) / |d<O>/d lambda|^2 at a single time."""
    integral, mean, var_o, d_mean, var_est = signal_statistics(
        spec, schedule, t, parameter)
    diagnostics = {"integral": integral}
    if math.isinf(var_est):
        diagnostics["diverged"] = True
    return EstimateReport(mean=mean, variance_o=var_o, d_mean=d_mean,
                          variance_estimator=var_est, parameter=parameter,
                          diagnostics=diagnostics)


@np.errstate(all="ignore")
def saturation_ratio(spec: CatSpec, schedule: NoiseSchedule, t,
                     parameter: str):
    """var(estimate) times the matching QFI; 1 means a saturated bound.

    Infinite on a stationary signal or a diverged QFI; never drops below
    1 beyond numerical error.  Takes a time or an array of times.
    """
    var_est = signal_statistics(spec, schedule, t, parameter)[4]
    qfi = law_at(qfi_law, spec, schedule, t, parameter)
    flagged = np.isinf(var_est) | np.isinf(qfi)
    value = np.where(flagged, np.inf, np.multiply(var_est, qfi))
    return scalar_or_array(t, require_finite(value, flagged))
