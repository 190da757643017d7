"""Quantum Fisher information for time and frequency estimation.

The central quantity is F(lambda) = tr(rho Lam^2) with the symmetric
logarithmic derivative Lam defined by d rho / d lambda =
(Lam rho + rho Lam) / 2.  In the eigenbasis of rho the matrix elements
are Lam[j][k] = 2 (d rho)[j][k] / (p_j + p_k), and eigenvalue pairs
whose sum falls below a cutoff are dropped.

One derivative serves both parameters, -i a [H, rho] - b [L, [L, rho]]
with (a, b) from ``derivative_coefficients``, written like the state on
its block in the model's eigenbasis and zero off it, so the SLD is
solved on the block (Liu, Yuan, Lu and Wang, J. Phys. A 53, 023001
(2020)); dense is the oracle.  ``qfi_lower_bound`` is its squared norm.

Closed forms for the two-branch cat state and the noiseless baselines
sit next to the generic numeric route so every analytic claim can be
cross-checked against the eigenbasis formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import NoiseSchedule, scalar_or_array, schedule_eval, times
from .hilbert import (CatSpec, DensityMatrix, NumericalContractError,
                      Operator, SensorModel, SupportBlock, ValidationError,
                      hermiticity_defect)

SLD_PAIR_CUTOFF = 1e-10
DRHO_HERMITICITY_TOL = 1e-8
DRHO_TRACE_TOL = 1e-8
PURITY_TOL = 1e-10

PARAMETERS = ("time", "omega")


@dataclass(frozen=True, eq=False)
class SldResult:
    """Symmetric logarithmic derivative, written like its state."""

    sld: SupportBlock
    truncated_rank: int


@dataclass(frozen=True, eq=False)
class QfiReport:
    """A Fisher information value and how it was obtained."""

    value: float
    method: str
    parameter: str
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.parameter not in PARAMETERS:
            raise ValidationError(f"unknown parameter {self.parameter!r}")
        if not (self.value >= 0.0 or math.isinf(self.value)):
            raise ValidationError("Fisher information must be nonnegative")

    @property
    def diverged(self) -> bool:
        return bool(self.diagnostics.get("diverged", False))

    def to_dict(self) -> dict:
        return {"value": self.value, "method": self.method,
                "parameter": self.parameter, "diagnostics": self.diagnostics}


def check_parameter(parameter: str):
    if parameter not in PARAMETERS:
        raise ValidationError(f"unknown parameter {parameter!r}")


def sld_and_qfi(rho: DensityMatrix, drho, parameter: str = "time"
                ) -> tuple[SldResult, QfiReport]:
    """SLD and QFI from the eigenbasis formula.

    ``drho`` must be Hermitian and traceless within 1e-8.  Pairs with
    p_j + p_k < 1e-10 contribute nothing; ``truncated_rank`` counts the
    eigenvalues whose diagonal pair fell below the cutoff, the n - k
    zeros off a k-column support among them.  A ``drho`` written like
    ``rho`` is solved on the block, anything else on dense matrices.
    """
    check_parameter(parameter)
    basis, support = rho.basis, rho.support
    if isinstance(drho, SupportBlock) and drho.basis is basis and \
            drho.support == support and drho.dim == rho.dim:
        dm, r = drho.array, rho.array
    else:
        dm = drho.matrix if isinstance(drho, Operator) else np.asarray(
            drho, dtype=complex)
        if dm.shape != (rho.dim, rho.dim):
            raise ValidationError("drho dimension does not match the state")
        r, basis, support = rho.matrix, None, None
    if hermiticity_defect(dm) > DRHO_HERMITICITY_TOL:
        raise ValidationError("drho must be Hermitian within 1e-8")
    tr = complex(np.trace(dm))
    scale = max(1.0, float(np.max(np.abs(dm))))
    if abs(tr) > DRHO_TRACE_TOL * scale:
        raise ValidationError(f"drho must be traceless (got tr {tr!r})")

    w, v = np.linalg.eigh(r)
    dd = v.conj().T @ dm @ v
    sums = w[:, None] + w[None, :]
    keep = sums >= SLD_PAIR_CUTOFF
    if not np.any(keep):
        raise ValidationError("all eigenvalue pairs fall below the SLD cutoff")
    lam = np.zeros_like(dd)
    lam[keep] = 2.0 * dd[keep] / sums[keep]
    qfi = float(np.sum(w[:, None] * np.abs(lam) ** 2))
    off = rho.dim - len(w)  # zeros off the support
    truncated = off + int(np.sum(2.0 * w < SLD_PAIR_CUTOFF))

    sld = v @ lam @ v.conj().T
    sld = SupportBlock(0.5 * (sld + sld.conj().T), basis, support, rho.dim)
    result = SldResult(sld=sld, truncated_rank=truncated)
    report = QfiReport(value=qfi, method="numeric_sld", parameter=parameter,
                       diagnostics={"truncated_rank": truncated,
                                    "min_eigenvalue": min(
                                        float(w[0]), 0.0 if off else math.inf),
                                    "purity": rho.purity()})
    return result, report


def derivative_coefficients(parameter: str, omega: float, rate, dose, t):
    """(a, b) of d rho / d lambda = -i a [H, rho] - b [L, [L, rho]]: each
    coherence rho_jk moves at -i a w_jk - b (l_j - l_k)^2, w_jk = omega
    (e_j - e_k).  (1, gamma_t) for time; (t/omega, 2 Gamma/omega) for
    omega under L = H, where the phase and the decay both carry omega.
    The b term is the incoherent one, which the noise adds."""
    check_parameter(parameter)
    if parameter == "time":
        return 1.0, rate
    return t / omega, 2.0 * dose / omega


def _commutators(model: SensorModel, rho: DensityMatrix, parameter: str):
    """([H, rho], [L, [L, rho]], support) on the state's block in the
    model's eigenbasis, where a tiny coherence keeps its accuracy; omega
    needs L = H, checked before the state is read."""
    if parameter == "omega" and not model.energy_lindblad:
        raise ValidationError(
            "frequency derivatives require energy dephasing (L = H)")
    r, support = model.eigenbasis_block(rho)
    levels = slice(None) if support is None else list(support)
    h = model.omega * model.spectrum[levels]
    lm = model.lindblad_spectrum[levels]
    c_h = h[:, None] * r - r * h[None, :]
    c_l = lm[:, None] * r - r * lm[None, :]
    return c_h, lm[:, None] * c_l - c_l * lm[None, :], support


def state_derivative(model: SensorModel, schedule: NoiseSchedule,
                     rho: DensityMatrix, t: float,
                     parameter: str) -> SupportBlock:
    """d rho / d lambda = -i a [H, rho] - b [L, [L, rho]], with (a, b)
    from ``derivative_coefficients``, written like the state in the
    model's eigenbasis."""
    c_h, c_ll, support = _commutators(model, rho, parameter)
    rate, dose = schedule_eval(schedule, t)
    a, b = derivative_coefficients(parameter, model.omega, rate, dose, t)
    out = -1j * a * c_h
    if b != 0.0:
        out = out - b * c_ll
    return SupportBlock(out, model.basis, support, model.dim)


def qfi_lower_bound(model: SensorModel, schedule: NoiseSchedule,
                    rho: DensityMatrix, t: float, parameter: str
                    ) -> QfiReport:
    """a^2 ||[H, rho]||_2^2 + b^2 ||[L, [L, rho]]||_2^2, which is
    ||d rho / d lambda||_2^2: the cross term vanishes, as both
    commutators scale each coherence by a real factor."""
    c_h, c_ll, _ = _commutators(model, rho, parameter)
    rate, dose = schedule_eval(schedule, t)
    a, b = derivative_coefficients(parameter, model.omega, rate, dose, t)
    n_h, n_ll = (float(np.vdot(c, c).real) for c in (c_h, c_ll))
    diagnostics = {"rate": rate} if parameter == "time" else {}
    diagnostics.update(integral=dose, norm_h_sq=n_h)
    diagnostics["norm_ll_sq" if parameter == "time" else "norm_hh_sq"] = n_ll
    return QfiReport(value=a * a * n_h + b * b * n_ll, method="lower_bound",
                     parameter=parameter, diagnostics=diagnostics)


# Cat-state closed forms, written once: numpy-broadcasting laws of
# (rate, dose, t).  A non-finite value other than the onset divergence of
# the time QFI is an overflow: NumericalContractError, no numpy warning.
_quiet = np.errstate(all="ignore")
_TINY = np.finfo(float).tiny


def require_law(spec: CatSpec, parameter: str):
    """Reject an unknown parameter, and omega without energy dephasing."""
    check_parameter(parameter)
    if parameter == "omega" and not spec.energy_like:
        raise ValidationError(
            "frequency laws require energy dephasing (L = H)")


def require_finite(value, flagged=False):
    """``value``, unless it holds inf or NaN not ``flagged`` as allowed."""
    finite = np.isfinite(value)
    if not finite.all() and (~finite & ~np.asarray(flagged)).any():
        raise NumericalContractError(
            "a cat-state closed form is non-finite (floating-point "
            "overflow or underflow)")
    return value


def decay_exponent(spec: CatSpec, dose):
    """x = 2 dL^2 Gamma."""
    return 2.0 * spec.delta_l ** 2 * np.asarray(dose, dtype=float)


def baseline_law(spec: CatSpec, parameter: str, t):
    """Noiseless QFI: dE^2 for time, (dE/w)^2 t^2 for omega."""
    t = np.asarray(t, dtype=float)
    if parameter == "time":
        return np.full(t.shape, spec.delta_e ** 2)
    return spec.delta_e * spec.delta_e / (spec.omega ** 2) * (t * t)


def _decayed(x, term, from_logs, base=1.0):
    """base (e^{-x} term).  Where the dose is positive and e^{-x}
    underflows, the product is not finite or ``base`` is below the normal
    range, a factor left the float range (0 x inf = NaN, or a baseline
    lost to underflow): there from_logs(), the same product formed from
    logs, and 0 where x itself is inf, which outruns any log."""
    decay = np.exp(-x)
    value = base * (decay * term)
    out = ((decay == 0.0) | ~np.isfinite(value) | (base < _TINY)) & (x > 0.0)
    if not out.any():
        return value
    return np.where(out, np.where(x == np.inf, 0.0, from_logs()), value)


def _omega_ratio(spec: CatSpec, x, dose, t, base=1.0, log_base=0.0):
    """Omega QFI over its baseline, e^{-x} (1 + 4 dE^2 (Gamma/t)^2 /
    (1 - e^{-x})), written without t^2 and Gamma^2, which underflow at
    small t; times ``base``, of log ``log_base``.  NaN at zero dose,
    where the caller puts the limit 1."""
    per_t = np.asarray(dose, dtype=float) / t
    c = 4.0 * spec.delta_e ** 2
    return _decayed(x, 1.0 + c * per_t * per_t / (-np.expm1(-x)),
                    lambda: np.exp(log_base + np.logaddexp(0.0, np.log(
                        c) + 2.0 * (np.log(dose) - np.log(t)) - np.log(
                            -np.expm1(-x))) - x), base)


def _qfi(spec, parameter, rate, dose, t, onset_rate):
    """(QFI with inf at the onset, zero-dose mask, onset mask)."""
    x = decay_exponent(spec, dose)
    if parameter == "time":
        noise = rate * rate * spec.delta_l ** 4 / (-np.expm1(-x))
        value = _decayed(x, spec.delta_e ** 2 + noise, lambda: np.exp(
            np.logaddexp(2.0 * np.log(spec.delta_e), 2.0 * np.log(rate)
                         + 4.0 * np.log(spec.delta_l)
                         - np.log(-np.expm1(-x))) - x))
    else:
        value = _omega_ratio(spec, x, dose, t, baseline_law(
            spec, parameter, t), 2.0 * (np.log(spec.delta_e / spec.omega)
                                        + np.log(t)))
    zero, onset = x == 0.0, False
    if zero.any():
        value = np.where(zero, baseline_law(spec, parameter, t), value)
        if parameter == "time":
            onset = zero & (np.asarray(onset_rate) * spec.delta_l ** 2 > 0.0)
            value = np.where(onset, np.inf, value)
    return value, zero, onset


@_quiet
def qfi_law(spec: CatSpec, parameter: str, rate, dose, t, onset_rate=0.0):
    """Exact QFI of the two-branch cat state.

    time:   F = e^{-x} (dE^2 + gamma_t^2 dL^4 / (1 - e^{-x}))
    omega:  F = (dE/w)^2 e^{-x} (4 dE^2 Gamma^2 / (1 - e^{-x}) + t^2)

    with x = 2 dL^2 Gamma.  At x = 0 the noise terms take their limit 0,
    but the time QFI is an explicit inf where the rate jumps at t:
    ``onset_rate``, the rate just after t minus the rate at t, is
    positive only at the onset of a constant rate.  A dose that merely
    underflowed to 0 after the onset takes the limit.
    """
    value, _, onset = _qfi(spec, parameter, rate, dose, t, onset_rate)
    return require_finite(value, onset)


@_quiet
def ratio_law(spec: CatSpec, parameter: str, rate, dose, t, onset_rate=0.0):
    """QFI / noiseless baseline: exactly 1 at zero dose, inf at the onset
    divergence of the time QFI (a jump ``onset_rate`` > 0, as in
    ``qfi_law``).  Needs dE > 0.  The omega ratio is formed directly,
    not as QFI / baseline (see ``_omega_ratio``)."""
    if parameter == "time":
        qfi, zero, onset = _qfi(spec, parameter, rate, dose, t, onset_rate)
        ratio = qfi / baseline_law(spec, parameter, t)
    else:
        x = decay_exponent(spec, dose)
        ratio = _omega_ratio(spec, x, dose, t)
        zero, onset = x == 0.0, False
    if zero.any():
        ratio = np.where(zero & ~np.asarray(onset), 1.0, ratio)
    return require_finite(ratio, onset)


@_quiet
def signal_law(spec: CatSpec, dose, t):
    """Parity signal <O> = cos(dE t) e^{-dL^2 Gamma}."""
    return require_finite(np.cos(spec.delta_e * np.asarray(t, dtype=float))
                          * np.exp(-spec.delta_l ** 2 * np.asarray(dose)))


@_quiet
def signal_derivative_law(spec: CatSpec, parameter: str, rate, dose, t):
    """d<O>/d lambda = -e^{-dL^2 Gamma} (a dE sin(dE t) + b dL^2 cos(dE t))
    with (a, b) from ``derivative_coefficients``; for omega dL = dE, and
    the envelope picks up its omega dependence through dE = w d_eps.
    Past the float range each term is taken from logs (see ``_decayed``).
    """
    t = np.asarray(t, dtype=float)
    a, b = derivative_coefficients(parameter, spec.omega, rate, dose, t)
    de, dl2, phase = spec.delta_e, spec.delta_l ** 2, spec.delta_e * t
    sin, cos = np.sin(phase), np.cos(phase)
    x = dl2 * np.asarray(dose)

    def from_logs():
        return sum(np.sign(wave) * np.exp(np.log(c) + np.log(np.abs(wave))
                                          + np.log(f) - x)
                   for c, f, wave in ((a, de, sin), (b, dl2, cos)))

    return require_finite(-_decayed(x, a * de * sin + b * dl2 * cos,
                                    from_logs))


@_quiet
def law_at(law, spec: CatSpec, schedule: NoiseSchedule, t, parameter: str):
    """``qfi_law`` or ``ratio_law`` on a schedule, at a time or an array
    of times, with the rate's jump at t as ``onset_rate``; a scalar time
    gives a float."""
    require_law(spec, parameter)
    ts = times(t)
    rate, dose = schedule_eval(schedule, ts)
    return scalar_or_array(t, law(spec, parameter, rate, dose, ts,
                                  schedule.rate_right(ts) - rate))


@_quiet
def _cat_qfi_report(spec: CatSpec, schedule: NoiseSchedule, t: float,
                   parameter: str) -> QfiReport:
    """``qfi_law`` at one time, with its schedule inputs as diagnostics."""
    value = law_at(qfi_law, spec, schedule, t, parameter)
    rate, dose = schedule_eval(schedule, t)
    diagnostics = {"rate": rate} if parameter == "time" else {}
    diagnostics.update(integral=dose,
                       exponent=float(decay_exponent(spec, dose)))
    if math.isinf(value):
        diagnostics["diverged"] = True
    return QfiReport(value=value, method="analytic_cat", parameter=parameter,
                     diagnostics=diagnostics)


def qfi_time_cat(spec: CatSpec, schedule: NoiseSchedule, t: float) -> QfiReport:
    """Exact time-estimation QFI of the two-branch cat state."""
    return _cat_qfi_report(spec, schedule, t, "time")


def qfi_freq_cat(spec: CatSpec, schedule: NoiseSchedule, t: float) -> QfiReport:
    """Exact frequency-estimation QFI of the cat state, for L = H."""
    return _cat_qfi_report(spec, schedule, t, "omega")


def qfi_closed(spec_or_model, rho: DensityMatrix | None = None,
               t: float = 0.0, parameter: str = "time") -> QfiReport:
    """Noiseless baselines: 4 var(H), and (t^2/w^2) 4 var(H) for omega.

    Accepts a CatSpec (var(H) = dE^2/4 exactly) or a SensorModel with a
    pure state, whose var(H) is sum_j p_j (e_j - mean)^2 over the
    populations p_j of its block in the model's eigenbasis.
    """
    check_parameter(parameter)
    if isinstance(spec_or_model, CatSpec):
        spec = spec_or_model
        return QfiReport(value=float(baseline_law(spec, parameter, t)),
                         method="closed_baseline", parameter=parameter,
                         diagnostics={"var_h": 0.25 * spec.delta_e ** 2})
    if not isinstance(spec_or_model, SensorModel):
        raise ValidationError("expected a CatSpec or SensorModel")
    if rho is None:
        raise ValidationError("a state is required with a model")
    purity = rho.purity()
    if purity < 1.0 - PURITY_TOL:
        raise ValidationError(
            f"closed-evolution baseline needs a pure state "
            f"(purity {purity:.12f})")
    omega, eps = spec_or_model.omega, spec_or_model.spectrum
    block, support = spec_or_model.eigenbasis_block(rho)
    h = omega * (eps if support is None else eps[list(support)])
    p = block.diagonal().real
    var_h = float(p @ (h - p @ h) ** 2)
    value = 4.0 * var_h if parameter == "time" else \
        4.0 * var_h * t * t / (omega * omega)
    return QfiReport(value=value, method="closed_baseline",
                     parameter=parameter, diagnostics={"var_h": var_h})
