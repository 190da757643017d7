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
    ``rho`` is solved on the block, anything else on dense matrices.  A
    QFI past the float range is a NumericalContractError.
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
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        lam[keep] = 2.0 * dd[keep] / sums[keep]
        qfi = float(np.sum(w[:, None] * np.abs(lam) ** 2))
    # a finite QFI bounds every kept lam, so the SLD below is finite too
    if not math.isfinite(qfi):
        raise NumericalContractError("the SLD QFI is past the float range")
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


def require_law(spec: CatSpec, parameter: str, ratio: bool = False):
    """Reject an unknown parameter, omega without energy dephasing, and
    with ``ratio`` a zero energy gap."""
    if ratio and spec.delta_e <= 0.0:
        raise ValidationError("the ratio needs a positive energy gap")
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


def _decayed(x, term, from_logs, lossy=None):
    """e^{-x} term, as (e^{-x/2} term) e^{-x/2} where e^{-x} is subnormal.
    Where e^{-x/2} is too, the product is not finite (0 x inf = NaN) or a
    factor is ``lossy``: from_logs(pick), formed from logs of the picked
    cells, and 0 where x itself is inf, which outruns any log."""
    decay = np.exp(-x)
    value, deep = decay * term, decay < _TINY
    if not deep.any() and (lossy is None or not lossy.any()) \
            and np.isfinite(value).all():
        return value
    value, deep = np.array(value), np.array(deep)

    def pick(v, cells):
        return np.broadcast_to(v, value.shape)[cells]

    if deep.any():
        half = np.exp(-0.5 * pick(x, deep))
        value[deep] = half * pick(term, deep) * half
        deep[deep] = half < _TINY
    out = deep | ~np.isfinite(value) | (False if lossy is None else lossy)
    if out.any():
        value[out] = np.where(pick(x, out) == np.inf, 0.0,
                              from_logs(lambda v: pick(v, out)))
    return value


def _cat_law(spec: CatSpec, parameter: str, rate, dose, t, onset_rate,
             ratio: bool):
    """(QFI F of the two-branch cat state, or with ``ratio`` F over its
    noiseless baseline F0, onset mask).  With x = 2 dL^2 Gamma, s = x /
    (1 - e^{-x}) and (a, b) from ``derivative_coefficients``, F = e^{-x}
    (P + Q s) and F / F0 = e^{-x} (1 + (Q / P) s), P = (a dE)^2 = F0,
    Q = b^2 dL^4 / x = b (b / Gamma) dL^2 / 2, built from the dose, not x:
    it keeps its bits where x is subnormal or 0 (s = 1).  b is linear in
    (rate, dose) and a free of both, so b / Gamma is b at (rate / Gamma,
    1); the logs read b / sqrt(Gamma), in range wherever Q is.  Q / P
    needs b / a alone, free of omega: the ratio reads them at omega = 1,
    where t / omega cannot round.  At zero dose: F0 or 1, or inf where b
    jumps (the onset of a constant rate)."""
    dose = np.asarray(dose, dtype=float)
    omega = 1.0 if ratio else spec.omega
    a, b = derivative_coefficients(parameter, omega, rate, dose, t)
    b_dose = derivative_coefficients(parameter, omega, rate / dose, 1.0,
                                     t)[1]
    de, dl = spec.delta_e, spec.delta_l
    x = decay_exponent(spec, dose)
    s = -x
    s /= np.expm1(s)
    flat = x == 0.0  # no dose, or x lost to underflow
    zero = None
    if flat.any():
        s, zero = np.where(flat, 1.0, s), dose == 0.0
    if ratio:  # Q / P from b / a, without P
        h, p, lossy = 0.5 * np.divide(dl, de) ** 2, 1.0, None
        term = 1.0 + b / a * (b_dose * (h / a)) * s
    else:  # b = 2 Gamma / omega loses bits below the normal range
        p = np.square(a * de)
        lossy = (0.0 < b) & (b < _TINY) if np.any(b < _TINY) else None
        term = p + b * b_dose * (0.5 * dl * dl) * s
    if zero is not None:  # the limit P, not 0 x inf
        term = np.where(zero, p, term)

    def from_logs(pick):
        root = np.sqrt(pick(dose))
        c = derivative_coefficients(parameter, omega, pick(rate) / root,
                                    root, pick(t))[1]
        lu, lk = np.log(pick(a)) + np.log(de), np.log(c) + np.log(dl)
        if ratio:
            lu, lk = 0.0, lk - lu
        return np.exp(np.logaddexp(2.0 * lu, 2.0 * lk + np.log(
            0.5 * pick(s))) - pick(x))

    value = _decayed(x, term, from_logs, lossy)
    if zero is None:
        return value, False
    onset = zero & (derivative_coefficients(
        parameter, spec.omega, onset_rate, 0.0, t)[1] * (dl * dl) > 0.0)
    return np.where(zero, np.where(onset, np.inf, p), value), onset


@_quiet
def qfi_law(spec: CatSpec, parameter: str, rate, dose, t, onset_rate=0.0):
    """Exact QFI of the two-branch cat state (``_cat_law``); for time
    e^{-x} (dE^2 + gamma_t^2 dL^4 / (1 - e^{-x})), for omega (dE/w)^2
    e^{-x} (4 dE^2 Gamma^2 / (1 - e^{-x}) + t^2).  At zero dose the noise
    term takes its limit 0, but the time QFI is an explicit inf where the
    rate jumps at t: ``onset_rate``, the rate just after t minus the rate
    at t, is positive only at the onset of a constant rate."""
    return require_finite(*_cat_law(spec, parameter, rate, dose, t,
                                    onset_rate, ratio=False))


@_quiet
def ratio_law(spec: CatSpec, parameter: str, rate, dose, t, onset_rate=0.0):
    """QFI / noiseless baseline, formed directly: exactly 1 at zero dose,
    inf at the onset divergence of the time QFI (a jump ``onset_rate``
    > 0, as in ``qfi_law``).  Needs dE > 0."""
    return require_finite(*_cat_law(spec, parameter, rate, dose, t,
                                    onset_rate, ratio=True))


@_quiet
def law_at(law, spec: CatSpec, schedule: NoiseSchedule, t, parameter: str):
    """``qfi_law`` or ``ratio_law`` on a schedule, at a time or an array
    of times, with the rate's jump at t as ``onset_rate``; a scalar time
    gives a float."""
    require_law(spec, parameter, law is ratio_law)
    ts = times(t)
    rate, dose = schedule_eval(schedule, ts)
    return scalar_or_array(t, law(spec, parameter, rate, dose, ts,
                                  schedule.rate_right(ts) - rate))


@_quiet
def qfi_cat(spec: CatSpec, schedule: NoiseSchedule, t: float,
            parameter: str) -> QfiReport:
    """Exact cat-state QFI (``qfi_law``) at one time, with diagnostics,
    from one read of the schedule."""
    require_law(spec, parameter)
    ts = times(t)
    rate, dose = schedule_eval(schedule, ts)
    value = qfi_law(spec, parameter, rate, dose, ts,
                    schedule.rate_right(ts) - rate).item()
    rate, dose = rate.item(), dose.item()
    diagnostics = {"rate": rate} if parameter == "time" else {}
    diagnostics.update(integral=dose,
                       exponent=float(decay_exponent(spec, dose)))
    if math.isinf(value):
        diagnostics["diverged"] = True
    return QfiReport(value=value, method="analytic_cat", parameter=parameter,
                     diagnostics=diagnostics)


def qfi_closed(spec_or_model, rho: DensityMatrix | None = None,
               t: float = 0.0, parameter: str = "time") -> QfiReport:
    """Noiseless baselines (a dE)^2 = 4 a^2 var(H), with a from
    ``derivative_coefficients``: 4 var(H), and (t/w)^2 4 var(H) for omega.

    Accepts a CatSpec (var(H) = dE^2/4 exactly) or a SensorModel with a
    pure state, whose var(H) is sum_j p_j (e_j - mean)^2 over the
    populations p_j of its block in the model's eigenbasis.
    """
    if not isinstance(spec_or_model, (CatSpec, SensorModel)):
        raise ValidationError("expected a CatSpec or SensorModel")
    a = derivative_coefficients(parameter, spec_or_model.omega, 0, 0, t)[0]
    if isinstance(spec_or_model, CatSpec):
        var_h = 0.25 * spec_or_model.delta_e ** 2
    elif rho is None:
        raise ValidationError("a state is required with a model")
    else:
        purity = rho.purity()
        if purity < 1.0 - PURITY_TOL:
            raise ValidationError(
                f"closed-evolution baseline needs a pure state "
                f"(purity {purity:.12f})")
        block, support = spec_or_model.eigenbasis_block(rho)
        levels = slice(None) if support is None else list(support)
        h = spec_or_model.omega * spec_or_model.spectrum[levels]
        p = block.diagonal().real
        var_h = float(p @ (h - p @ h) ** 2)
    return QfiReport(value=4.0 * var_h * a * a, method="closed_baseline",
                     parameter=parameter, diagnostics={"var_h": var_h})
