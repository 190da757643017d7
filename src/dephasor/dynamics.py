"""Time evolution under commuting dephasing.

The equation of motion is

    d rho / dt = -i [H, rho] - gamma_t [L, [L, rho]]

with Hermitian L commuting with H and a nonnegative, possibly
time-dependent rate gamma_t that switches on at an onset time t0.
Because H and L commute, every matrix element in their joint eigenbasis
evolves independently: element (j, k) is multiplied by a gain that
depends only on its pair (w, d) = (omega (e_j - e_k), (l_j - l_k)^2).
One propagator serves two gain rules.  Each call builds the table of
distinct pairs once (folding the sign of w: the gain of (-w, d) is the
conjugate of the gain of (w, d)) and multiplies the state once: element
(j, k) by its pair's gain, element (k, j) by the conjugate, the
diagonal by 1.  ``evolve_exact`` takes the exact gain
exp(-i w t - d Gamma(t)), Gamma the integrated rate; the fixed-step
RK4 (``evolve_lindblad_numeric``, ``trajectory``) takes the product of
its step gains, an independent check of the exact one.  The state is
rotated in once per call (not at all if it carries its eigenbasis form,
``DensityMatrix.frame``), and rotated back and re-symmetrized once per
returned state, which keeps its eigenbasis form as its frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hilbert import (DensityMatrix, NumericalContractError, SensorModel,
                      ValidationError)

POSITIVITY_FLOOR = -1e-7
CONVERGENCE_TOL = 1e-8
MAX_STEPS_DEFAULT = 10_000
GAIN_BLOCK = 4096

SCHEDULE_VARIANTS = ("constant", "linear_ramp", "piecewise_linear")


@dataclass(frozen=True)
class NoiseSchedule:
    """Dephasing rate profile gamma_t with onset t0.

    Noise acts strictly after the onset: the reported rate is zero for
    t <= t0.  Integrals are closed-form for all three variants.  Rates
    and integrals broadcast over an array of times.
    """

    variant: str
    gamma: float = 0.0
    gamma_dot: float = 0.0
    t0: float = 0.0
    knots: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        if self.variant not in SCHEDULE_VARIANTS:
            raise ValidationError(f"unknown schedule variant {self.variant!r}")
        if self.t0 < 0.0 or not math.isfinite(self.t0):
            raise ValidationError("t0 must be nonnegative and finite")
        if self.variant == "constant":
            if self.gamma < 0.0 or not math.isfinite(self.gamma):
                raise ValidationError("gamma must be nonnegative and finite")
        elif self.variant == "linear_ramp":
            if self.gamma_dot < 0.0 or not math.isfinite(self.gamma_dot):
                raise ValidationError(
                    "ramp slope must be nonnegative and finite")
        else:
            ks = self.knots
            if len(ks) < 2:
                raise ValidationError("piecewise schedule needs >= 2 knots")
            for tk, gk in ks:
                if not (math.isfinite(tk) and math.isfinite(gk)):
                    raise ValidationError("knots must be finite")
                if gk < 0.0:
                    raise ValidationError(f"negative rate {gk} at knot t={tk}")
                if tk < 0.0:
                    raise ValidationError("knot times must be nonnegative")
            for (ta, _), (tb, _) in zip(ks, ks[1:]):
                if not tb > ta:
                    raise ValidationError("knot times must strictly increase")
            object.__setattr__(self, "t0", ks[0][0])

    @classmethod
    def constant(cls, gamma: float, t0: float = 0.0) -> "NoiseSchedule":
        return cls(variant="constant", gamma=float(gamma), t0=float(t0))

    @classmethod
    def linear_ramp(cls, gamma_dot: float, t0: float = 0.0) -> "NoiseSchedule":
        return cls(variant="linear_ramp", gamma_dot=float(gamma_dot),
                   t0=float(t0))

    @classmethod
    def piecewise_linear(cls, knots) -> "NoiseSchedule":
        ks = tuple((float(t), float(g)) for t, g in knots)
        return cls(variant="piecewise_linear", knots=ks)

    def rate(self, t):
        """gamma_t; zero at and before the onset, by convention."""
        return self._rate(t, right=False)

    def rate_right(self, t):
        """Right-continuous rate: the value just after t.

        Differs from ``rate`` only exactly at the onset.  The integrator
        samples this so a step that begins at the onset integrates the
        post-onset dynamics; divergence checks use it to spot a rate
        that switches on discontinuously."""
        return self._rate(t, right=True)

    def _rate(self, t, right: bool):
        ts = times(t)
        if self.variant == "constant":
            g = self.gamma
        elif self.variant == "linear_ramp":
            g = self.gamma_dot * (ts - self.t0)
        else:
            kt, kg = np.array(self.knots).T
            # index of the segment [kt[i], kt[i+1]) holding t, clamped
            i = np.searchsorted(kt[1:-1], ts, side="right")
            ta, tb, ga, gb = kt[i], kt[i + 1], kg[i], kg[i + 1]
            g = np.where(ts >= kt[-1], kg[-1],
                         ga + (gb - ga) * (ts - ta) / (tb - ta))
        on = ts >= self.t0 if right else ts > self.t0
        return scalar_or_array(t, np.where(on, g, 0.0))

    def integral(self, t):
        """Integrated rate from the onset up to t (0 when t <= t0)."""
        ts = times(t)
        if self.variant == "constant":
            total = self.gamma * np.maximum(0.0, ts - self.t0)
        elif self.variant == "linear_ramp":
            dt = np.maximum(0.0, ts - self.t0)
            total = 0.5 * self.gamma_dot * dt * dt
        else:
            ks = self.knots
            total = np.zeros_like(ts)
            for (ta, ga), (tb, gb) in zip(ks, ks[1:]):
                hi = np.minimum(ts, tb)
                # exact trapezoid of the linear segment, cut at t
                ghi = ga + (gb - ga) * (hi - ta) / (tb - ta)
                total = total + np.where(ts > ta,
                                         0.5 * (ga + ghi) * (hi - ta), 0.0)
            total = total + np.where(ts > ks[-1][0],
                                     ks[-1][1] * (ts - ks[-1][0]), 0.0)
        return scalar_or_array(t, total)

    def max_rate(self, t_final: float) -> float:
        if self.variant != "piecewise_linear":
            return self.rate(t_final)
        return max([0.0, self.rate_right(min(t_final, self.knots[-1][0]))]
                   + [gk for tk, gk in self.knots if tk <= t_final])

    def breakpoints(self, t_final: float) -> list[float]:
        """Times in (0, t_final) where the rate is not smooth."""
        if self.variant == "piecewise_linear":
            pts = [tk for tk, _ in self.knots]
        else:
            pts = [self.t0]
        return sorted({p for p in pts if 0.0 < p < t_final})


def times(t) -> np.ndarray:
    """t as a float array of at least one dimension (faster than 0-d)."""
    return np.atleast_1d(np.asarray(t, dtype=float))


def scalar_or_array(t, values: np.ndarray):
    """``values`` (computed on ``times(t)``), as a float for a scalar t."""
    return values.item() if isinstance(t, float) or np.ndim(t) == 0 \
        else values


def schedule_eval(schedule: NoiseSchedule, t):
    """(gamma_t, integral of gamma from t0 to t) at t (or t array)."""
    ts = np.asarray(t, dtype=float)
    if not ((ts >= 0.0) & (ts < math.inf)).all():
        raise ValidationError("t must be nonnegative and finite")
    return schedule.rate(t), schedule.integral(t)


@dataclass(frozen=True)
class EvolutionSpec:
    """Everything an integration run needs besides the initial state."""

    model: SensorModel
    schedule: NoiseSchedule
    t_final: float
    dt: float | None = None

    def __post_init__(self):
        if self.t_final < 0.0 or not math.isfinite(self.t_final):
            raise ValidationError("t_final must be nonnegative and finite")
        if self.dt is not None and (not math.isfinite(self.dt)
                                    or self.dt <= 0.0):
            raise ValidationError("dt must be positive and finite")


def default_step(model: SensorModel, schedule: NoiseSchedule,
                 t_final: float) -> float:
    """Step size rule: resolve the fastest phase, the fastest decay, and
    never take fewer than 10^4 steps over the run."""
    if t_final <= 0.0:
        raise ValidationError("t_final must be positive")
    candidates = [t_final / MAX_STEPS_DEFAULT]
    eps = model.spectrum
    phase = model.omega * (float(np.max(eps)) - float(np.min(eps)))
    if phase > 0.0:
        candidates.append(0.01 / phase)
    lam = model.lindblad_spectrum
    lgap = float(np.max(lam)) - float(np.min(lam))
    gmax = schedule.max_rate(t_final)
    if gmax * lgap * lgap > 0.0:
        candidates.append(0.1 / (gmax * lgap * lgap))
    return min(candidates)


def _pair_table(model: SensorModel):
    """Distinct (|w|, d) = (|omega (e_j - e_k)|, (l_j - l_k)^2) over the
    strict upper triangle; the (j, k) indices of that triangle, the
    index of each element's pair, and where w < 0 (the gain of (-w, d)
    is the conjugate of the gain of (w, d), exactly)."""
    eps, lam = model.spectrum, model.lindblad_spectrum
    upper = np.triu_indices(model.dim, 1)
    j, k = upper
    w = model.omega * (eps[j] - eps[k])
    table = np.stack([np.abs(w), (lam[j] - lam[k]) ** 2])
    (w_abs, d), inverse = np.unique(table, axis=1, return_inverse=True)
    return w_abs, d, upper, inverse.ravel(), w < 0.0


def _rk4_segment(w: np.ndarray, d: np.ndarray, schedule: NoiseSchedule,
                 t_start: float, t_end: float,
                 dt_target: float) -> np.ndarray:
    """Product of the RK4 step gains over one smooth segment, per pair.

    Element (j, k) obeys d rho_jk/dt = m_jk(g) rho_jk with
    m(g) = -i w - g d, so one RK4 step multiplies it by a scalar gain.
    Gains are formed a block of steps at a time; blocks hold about
    ``GAIN_BLOCK`` elements, so memory does not grow with the steps.
    """
    span = t_end - t_start
    n = max(1, int(math.ceil(span / dt_target - 1e-12)))
    dt = span / n
    edges = t_start + np.arange(n + 1) * dt
    edges[n] = t_end
    ta, tb = edges[:-1], edges[1:]
    rates = schedule.rate_right(np.stack([ta, 0.5 * (ta + tb), tb]))
    # The segment end is a breakpoint; the rate that belongs to this
    # segment there is the left limit, not the value after the jump.
    rates[2, -1] = schedule.rate(t_end)
    phase = -1j * w
    total = np.ones(w.shape, dtype=complex)
    block = max(1, GAIN_BLOCK // w.size)
    for s in range(0, n, block):
        step, g1, gm, g2 = (a[s:s + block, None] for a in (tb - ta, *rates))
        k1 = phase - g1 * d
        mid = phase - gm * d
        k2 = mid * (1.0 + 0.5 * step * k1)
        k3 = mid * (1.0 + 0.5 * step * k2)
        k4 = (phase - g2 * d) * (1.0 + step * k3)
        gain = 1.0 + (step / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        total = total * np.prod(gain, axis=0)
    return total


@np.errstate(all="ignore")  # a blown-up step fails the finite check
def _propagate(pairs, schedule: NoiseSchedule, rho: np.ndarray,
               t_start: float, t_end: float, dt_target: float) -> np.ndarray:
    """An eigenbasis array carried from t_start to t_end.

    The RK4 step gains of the segments between schedule breakpoints
    multiply into one gain per pair, applied to the state once.
    """
    w, d = pairs[:2]
    gain = np.ones(w.shape, dtype=complex)
    lo = t_start
    for cut in [p for p in schedule.breakpoints(t_end) if p > t_start] \
            + [t_end]:
        if cut > lo:
            gain = gain * _rk4_segment(w, d, schedule, lo, cut, dt_target)
            lo = cut
    return _apply_gains(pairs, gain, rho)


def _apply_gains(pairs, gain: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """An eigenbasis array with each element multiplied by its pair's
    gain: the upper triangle by the gain (conjugated where w < 0), the
    lower by the conjugate of that.  The diagonal (w = d = 0) keeps
    gain 1."""
    _, _, (j, k), inverse, negative = pairs
    gain = gain[inverse]
    gain[negative] = gain[negative].conj()
    out = rho.copy()
    out[j, k] *= gain
    out[k, j] *= gain.conj()
    return out


def evolve_exact(spec: EvolutionSpec, rho0: DensityMatrix) -> DensityMatrix:
    """The exact state at t_final: each pair's gain is
    exp(-i w t - d Gamma(t)), with Gamma the integrated rate.  Takes the
    same inputs as ``evolve_lindblad_numeric``; ``spec.dt`` is unused."""
    model, t = spec.model, spec.t_final
    rho_e = model.to_eigenbasis(rho0)
    pairs = _pair_table(model)
    w, d = pairs[:2]
    gain = np.exp(-1j * w * t - d * spec.schedule.integral(t))
    return _contract_state(model, _apply_gains(pairs, gain, rho_e))


def evolve_lindblad_numeric(spec: EvolutionSpec, rho0: DensityMatrix,
                            verify_convergence: bool = False) -> DensityMatrix:
    """Fixed-step RK4 integration of the dephasing master equation.

    Steps run elementwise in the joint eigenbasis of H and L; the state
    is re-symmetrized once, after rotating back, not after every step.
    Integration is split at schedule breakpoints (onset, knots) so each
    RK4 segment sees a smooth rate.  The run fails with
    NumericalContractError if the state stops being finite, the trace
    drifts beyond 1e-9 or the final state dips below -1e-7 in its
    spectrum; with ``verify_convergence`` the run is repeated at half
    the step and any entry disagreeing by more than 1e-8 is an error.
    """
    model, schedule = spec.model, spec.schedule
    rho_e = model.to_eigenbasis(rho0)
    if spec.t_final == 0.0:
        return rho0
    dt = spec.dt if spec.dt is not None else default_step(
        model, schedule, spec.t_final)

    pairs = _pair_table(model)
    out = _propagate(pairs, schedule, rho_e, 0.0, spec.t_final, dt)
    if verify_convergence:
        fine = _propagate(pairs, schedule, rho_e, 0.0, spec.t_final,
                          dt / 2.0)
        gap = float(np.max(np.abs(model.from_eigenbasis(fine - out))))
        if gap > CONVERGENCE_TOL:
            raise NumericalContractError(
                f"halving dt moved entries by {gap:.3e} > {CONVERGENCE_TOL}; "
                f"retry with a smaller dt (current {dt:.3e})")
        out = fine
    return _contract_state(model, out, dt)


def _contract_state(model: SensorModel, rho_e: np.ndarray,
                    dt: float | None = None) -> DensityMatrix:
    """Wrap an evolved eigenbasis array as a state, rotated back and
    re-symmetrized, with ``rho_e`` kept as its frame.  Invariant
    breakage becomes a numerical-contract failure (the inputs were
    valid; the propagation wasn't), with a smaller-dt hint when the
    state was integrated with a step dt."""
    rho = model.from_eigenbasis(rho_e)
    rho = 0.5 * (rho + rho.conj().T)
    try:
        return DensityMatrix(rho, positivity_tol=-POSITIVITY_FLOOR,
                             frame=(model.basis, rho_e))
    except ValidationError as exc:
        hint = "" if dt is None else \
            f"; retry with a smaller dt (current {dt:.3e})"
        raise NumericalContractError(
            f"integration broke a state invariant ({exc}){hint}") from exc


def trajectory(spec: EvolutionSpec, rho0: DensityMatrix,
               samples: int) -> list[tuple[float, DensityMatrix]]:
    """States at ``samples`` evenly spaced times from 0 to t_final."""
    if samples < 2:
        raise ValidationError("need at least 2 samples")
    model, schedule = spec.model, spec.schedule
    if spec.t_final <= 0.0:
        raise ValidationError("t_final must be positive for a trajectory")
    dt = spec.dt if spec.dt is not None else default_step(
        model, schedule, spec.t_final)
    times = np.linspace(0.0, spec.t_final, samples)
    out = [(0.0, rho0)]
    pairs = _pair_table(model)
    rho_e = model.to_eigenbasis(rho0)
    for ta, tb in zip(times, times[1:]):
        rho_e = _propagate(pairs, schedule, rho_e, float(ta), float(tb), dt)
        out.append((float(tb), _contract_state(model, rho_e, dt)))
    return out
