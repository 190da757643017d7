"""Practical readout: branch-interference observables and error propagation.

The measured signal for both sensor families, and the error of the
estimate that inverts its mean, come from one kernel, ``readout_law``.
With x = 2 dL^2 Gamma, phi = dE t and N = a dE sin(phi) + b dL^2
cos(phi), (a, b) from ``derivative_coefficients``:

    <O> = cos(phi) e^{-x/2},    d<O>/d lambda = -e^{-x/2} N,
    (Delta O)^2 = -expm1(-x) + e^{-x} sin(phi)^2,
    (Delta O)^2 / |d<O>/d lambda|^2 = expm1(x) / N^2 + (sin(phi) / N)^2,

with unit-magnitude eigenvalues of O on the branch pair.  No term is a
difference, so nothing cancels at small t.  Times the QFI F, the last is
the saturation ratio, >= 1 by the quantum Cramer-Rao bound (Braunstein
and Caves, PRL 72, 3439 (1994)); GHZ parity readout: Bollinger et al.,
PRA 54, R4649 (1996).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import NoiseSchedule, scalar_or_array, schedule_eval, times
from .fisher import (_TINY, decay_exponent, derivative_coefficients,
                     qfi_law, require_finite, require_law)
from .hilbert import CatSpec, Operator, SensorModel, ValidationError

_LN2 = math.log(2.0)


@dataclass(frozen=True, eq=False)
class ObservableSpec:
    """A readout observable and the family it belongs to."""

    kind: str
    operator: Operator


@dataclass(frozen=True)
class EstimateReport:
    """Signal statistics, the propagated estimator variance and the bound.

    ``d_mean`` and the fields after ``diagnostics`` are None when only
    the signal itself was requested.  A stationary signal (N = 0, so
    d_mean == 0) makes the estimator variance an explicit infinity
    rather than an error.
    """

    mean: float
    variance_o: float
    d_mean: float | None = None
    variance_estimator: float | None = None
    parameter: str | None = None
    diagnostics: dict = field(default_factory=dict)
    one_over_qfi: float | None = None
    saturation_ratio: float | None = None

    @property
    def diverged(self) -> bool:
        return self.variance_estimator is not None and \
            math.isinf(self.variance_estimator)

    def to_dict(self) -> dict:
        return {"mean": self.mean, "variance_O": self.variance_o,
                "d_mean": self.d_mean,
                "variance_estimator": self.variance_estimator,
                "parameter": self.parameter,
                "diagnostics": self.diagnostics,
                "one_over_qfi": self.one_over_qfi,
                "saturation_ratio": self.saturation_ratio}


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


def _exp2(y):
    """e^y as (m, k), e^y = m 2^k: k = 0 while |y| < 700, else an integer
    that leaves m = e^{y - k ln 2} within a factor 2 of 1."""
    far = np.abs(y) >= 700.0
    if not far.any():
        return np.exp(y), 0
    k = np.where(far, np.clip(np.trunc(y / _LN2), -4096.0, 4096.0), 0.0)
    return np.exp(y - k * _LN2), k.astype(np.int32)


@np.errstate(all="ignore")
def readout_law(spec: CatSpec, parameter: str | None, rate, dose, t):
    """(<O>, var(O), d<O>/d lambda, var(O) / (d<O>/d lambda)^2) of the
    parity readout (module docstring), broadcasting over (rate, dose, t);
    with ``parameter`` None the first two alone.

    N and the last are formed as mantissa and power of 2 (``frexp``):
    (a, b) at the mantissas of (rate, dose, t), exact where a product or
    a square would leave the float range, and expm1(x) from the dose's
    mantissa where x is below the normal range.  In range the bits are
    those of the plain float formula.  The last is +inf exactly where
    N = 0; a value past the float range is a NumericalContractError.
    """
    t, dose = np.asarray(t, dtype=float), np.asarray(dose, dtype=float)
    x = decay_exponent(spec, dose)
    sin, cos = np.sin(spec.delta_e * t), np.cos(spec.delta_e * t)
    mean = require_finite(cos * np.exp(-0.5 * x))
    var_o = require_finite(-np.expm1(-x) + np.exp(-x) * sin ** 2)
    if parameter is None:
        return mean, var_o
    (mr, er), (md, ed), (mt, et), (ms, es) = map(np.frexp,
                                                (rate, dose, t, sin))
    # a is 1 or t / omega, b rate or 2 Gamma / omega: one input's 2^e each
    a, b = derivative_coefficients(parameter, spec.omega, mr, md, mt)
    e1, e2 = (es, er) if parameter == "time" else (et + es, ed)
    t1, t2 = a * spec.delta_e * ms, b * spec.delta_l ** 2 * cos
    # N: the terms aligned on the larger exponent of a nonzero one, summed
    # with one rounding, as n 2^en with n in [0.5, 1)
    en = np.maximum(np.where(t1 == 0.0, e2, e1), np.where(t2 == 0.0, e1, e2))
    n, shift = np.frexp(np.ldexp(t1, e1 - en) + np.ldexp(t2, e2 - en))
    en = en + shift
    m, k = _exp2(-0.5 * x)
    d_mean = require_finite(-np.ldexp(m * n, en + k))
    m, k = _exp2(x)  # e^x - 1 = e^x past 700
    small = x < _TINY
    em, shift = np.frexp(np.where(small, decay_exponent(spec, md),
                                  np.where(k > 0, m, np.expm1(x))))
    var_est = np.ldexp(em / n / n, np.where(small, ed, k) + shift - 2 * en) \
        + np.ldexp((ms / n) ** 2, 2 * (es - en))
    stationary = n == 0.0
    return mean, var_o, d_mean, require_finite(
        np.where(stationary, np.inf, var_est), stationary)


def observable_expectation(spec: CatSpec, schedule: NoiseSchedule,
                           t: float) -> EstimateReport:
    """Signal mean and variance at a single time."""
    _, integral = schedule_eval(schedule, t)
    mean, var_o = readout_law(spec, None, 0.0, integral, t)
    return EstimateReport(mean=float(mean), variance_o=float(var_o),
                          diagnostics={"integral": integral})


@np.errstate(all="ignore")
def signal_statistics(spec: CatSpec, schedule: NoiseSchedule, t,
                      parameter: str):
    """(integral, mean, var(O), d<O>/d lambda, var(O) / |d<O>/d lambda|^2,
    1/F, F var(O) / |d<O>/d lambda|^2) at a time or an array of times
    (floats for a scalar time), the schedule read once.  F is ``qfi_law``,
    an explicit infinity at the onset of a constant rate; 1/F is inf
    where F is 0, and the saturation ratio F var(O) / |d<O>/d lambda|^2
    inf where a factor is."""
    require_law(spec, parameter)
    ts = times(t)
    rate, dose = schedule_eval(schedule, ts)
    stats = readout_law(spec, parameter, rate, dose, ts)
    qfi = qfi_law(spec, parameter, rate, dose, ts,
                  schedule.rate_right(ts) - rate)
    flagged = np.isinf(stats[3]) | np.isinf(qfi)
    bound = (require_finite(1.0 / qfi, qfi == 0.0), require_finite(
        np.where(flagged, np.inf, stats[3] * qfi), flagged))
    return tuple(scalar_or_array(t, v) for v in (dose, *stats, *bound))


def estimator_variance(spec: CatSpec, schedule: NoiseSchedule, t: float,
                       parameter: str) -> EstimateReport:
    """Error propagation var(O) / |d<O>/d lambda|^2 at a single time, with
    1/F and the saturation ratio."""
    integral, mean, var_o, d_mean, var_est, inverse, saturation = \
        signal_statistics(spec, schedule, t, parameter)
    diagnostics = {"integral": integral}
    if math.isinf(var_est):
        diagnostics["diverged"] = True
    return EstimateReport(mean, var_o, d_mean, var_est, parameter,
                          diagnostics, inverse, saturation)


def saturation_ratio(spec: CatSpec, schedule: NoiseSchedule, t,
                     parameter: str):
    """F var(estimate), the QFI times the estimator variance; 1 means a
    saturated bound, and the Cramer-Rao bound keeps it >= 1.  Infinite
    on a stationary signal or a diverged QFI.  Takes a time or an array
    of times."""
    return signal_statistics(spec, schedule, t, parameter)[6]
