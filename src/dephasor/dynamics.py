"""Time evolution under commuting dephasing.

The equation of motion is

    d rho / dt = -i [H, rho] - gamma_t [L, [L, rho]]

with Hermitian L commuting with H and a nonnegative, possibly
time-dependent rate gamma_t that switches on at an onset time t0.
Because H and L commute, every matrix element in their joint eigenbasis
evolves independently: element (j, k) is multiplied by a gain that
depends only on its pair (w, d) = (omega (e_j - e_k), (l_j - l_k)^2).
A state never leaves its support block, and all work is on that block
(a cat state: 2 x 2, one distinct pair, at any dimension).  Each state
is the initial block times its pairs' gains: ``evolve_exact`` takes
exp(-i w t - d Gamma(t)), Gamma the integrated rate, and the fixed-step
RK4 the product of its step gains, their rates read from each smooth
segment's linear law, folded into one running gain a block at a time
in one pass, ``rk4_samples``: its blocks and least eigenvalues, checked
a stack at a time, are the states of ``trajectory`` (in the model's
eigenbasis) and, read as arrays, the rows of the CLI's ``evolve``.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .hilbert import (DensityMatrix, NumericalContractError, SensorModel,
                      ValidationError, _check_states)

POSITIVITY_FLOOR = -1e-7
CONVERGENCE_TOL = 1e-8
MAX_STEPS_DEFAULT = 10_000
GAIN_BLOCK = 2 ** 14
MAX_STEPS = 10 ** 8

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
            with np.errstate(over="ignore"):  # inf beyond the float range
                g = self.gamma_dot * (ts - self.t0)
        else:
            kt, kg = np.array(self.knots).T
            # index of the segment [kt[i], kt[i+1]) holding t, clamped
            i = np.searchsorted(kt[1:-1], ts, side="right")
            ta, tb, ga, gb = kt[i], kt[i + 1], kg[i], kg[i + 1]
            with np.errstate(over="ignore", invalid="ignore"):
                # off its segment (discarded) the line can leave the range
                g = np.where(ts >= kt[-1], kg[-1],
                             ga + (gb - ga) * ((ts - ta) / (tb - ta)))
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
                hi = np.clip(ts, ta, tb)
                # exact trapezoid of the linear segment, cut at t (empty
                # where t <= ta), from halves: a sum of two rates can overflow
                ghi = ga + (gb - ga) * ((hi - ta) / (tb - ta))
                total = total + (0.5 * ga + 0.5 * ghi) * (hi - ta)
            total = total + ks[-1][1] * np.maximum(0.0, ts - ks[-1][0])
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


def _pair_table(model: SensorModel, support=None):
    """Distinct (|w|, d) = (|omega (e_j - e_k)|, (l_j - l_k)^2) over the
    strict upper triangle of the support's levels; its (j, k) indices,
    each element's pair, and where w < 0 (the gain of (-w, d) is the
    conjugate of the gain of (w, d), exactly).  Two levels, as on a cat
    block, are one pair: the same table without the mask or the sort."""
    levels = slice(None) if support is None else list(support)
    eps, lam = model.spectrum[levels], model.lindblad_spectrum[levels]
    one = len(eps) == 2  # a cat block: its one pair, unmasked, unsorted
    j, k = upper = (np.array([0]), np.array([1])) if one else \
        np.triu_indices(len(eps), 1)
    w = model.omega * (eps[j] - eps[k])
    # one complex key |w| + i d: np.unique sorts it by |w|, then by d
    key = np.empty(w.size, dtype=complex)
    key.real, key.imag = np.abs(w), (lam[j] - lam[k]) ** 2
    pairs, inverse = (key, np.array([0])) if one else \
        np.unique(key, return_inverse=True)
    # contiguous copies: the RK4 loop reads them once per block
    return pairs.real.copy(), pairs.imag.copy(), upper, inverse, w < 0.0


def _step_gain(phase, d, step, g1, gm, g2):
    """One RK4 step's gain for m(g) = phase - g d, with the rate g1 at
    the step's start, gm at its midpoint and g2 at its end.  Each real
    step factor is cast to complex once, as a mixed product would cast
    it, and dropped after its last product; every product keeps its
    operand order, since a complex product can move a bit when they
    swap.  The k's are fresh arrays: updated in place, they left the
    freed blocks of many pairs at the top of the heap, to be trimmed
    and faulted back in at every call (a 496-pair ramp took 1.4 times
    as long)."""
    k1 = phase - g1 * d
    mid = phase - gm * d
    half = np.asarray(0.5 * step, dtype=complex)
    k2 = mid * (1.0 + half * k1)
    k3 = mid * (1.0 + half * k2)
    del half
    k4 = (phase - g2 * d) * (1.0 + np.asarray(step, dtype=complex) * k3)
    return 1.0 + np.asarray(step / 6.0, dtype=complex) * (
        k1 + 2.0 * (k2 + k3) + k4)


@np.errstate(all="ignore")  # a blown-up step fails the state's check
def _rk4_gains(w: np.ndarray, d: np.ndarray, schedule: NoiseSchedule,
               times: np.ndarray, dt_target: float) -> np.ndarray:
    """The RK4 gain per pair from times[0] to each later sample, as one
    (samples - 1, pairs) array.

    Element (j, k) obeys d rho_jk/dt = (-i w - g d) rho_jk, so an RK4
    step multiplies it by a scalar gain.  Each sample interval is cut at
    the breakpoints into segments of n = ceil(span / dt_target) steps of
    width dt = span / n (over ``MAX_STEPS``: ValidationError).  The rate
    is linear in between, so the schedule is read only at a segment's
    ends, g after its start and g_end before its end; step i takes
    g + sigma (i + x) at x = 0, 1/2, 1, sigma = (g_end - g) / n, and the
    last step ends on g_end.  A segment with g = g_end is one factor row,
    R(z)^n, R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 at z = dt (-i w - g d);
    any other is one row per step.  Rows are formed a block of about
    ``GAIN_BLOCK`` entries at a time and folded into the running gain in
    time order, by a running product only where a sample reads inside
    the block (the block size can move a gain at round-off).  What does
    not change per block (each segment's first row, the step points x)
    is formed once per call."""
    edges = np.sort(np.append(times, [
        p for p in schedule.breakpoints(float(times[-1])) if p > times[0]]))
    lo, hi = (e[edges[:-1] < edges[1:]] for e in (edges[:-1], edges[1:]))
    count = (hi - lo) / dt_target
    if not (count <= MAX_STEPS).all():
        raise ValidationError(f"step count {count.max():.3e} exceeds the "
                              f"cap of {MAX_STEPS:.3e}")
    n = np.maximum(1, np.ceil(count - 1e-12)).astype(np.int64)
    dt, phase = (hi - lo) / n, -1j * w
    g, g_end = schedule.rate_right(lo), schedule.rate(hi)
    const, sigma = g == g_end, (g_end - g) / n
    rows = np.where(const, 1, n)
    ends = np.cumsum(rows)
    # sample i + 1 reads the running gain after the first read[i] rows
    read = np.append(0, ends)[np.searchsorted(hi, times[1:], side="right")]
    out = np.empty((len(times) - 1, w.size), dtype=complex)
    out[read == 0] = 1.0  # a later sample still at times[0]
    running = np.ones(w.size, dtype=complex)
    block = max(2, GAIN_BLOCK // (w.size + 4))
    starts, xs = ends - rows, np.array([[0.0], [0.5], [1.0]])
    for a in range(0, ends[-1], block):
        b = min(a + block, ends[-1])
        r = np.arange(a, b)
        s = ends.searchsorted(r, "right")
        # row r is step r - starts[s] of its segment s, read at its xs
        rates = sigma[s] * (r - starts[s] + xs) + g[s]
        done = np.arange(s[0], s[-1] + (ends[s[-1]] == b))  # ending here
        rates[2, ends[done] - 1 - a] = g_end[done]
        gain = _step_gain(phase, d, dt[s][:, None], *rates[..., None])
        c = done[const[done]]
        gain[ends[c] - 1 - a] **= n[c, None]  # a constant segment: R^n
        gain[0] *= running
        first, last = read.searchsorted([a + 1, b + 1])
        if first == last:  # no sample reads inside the block
            running = np.multiply.reduce(gain, axis=0)
        else:
            running = np.multiply.accumulate(gain, axis=0, out=gain)[-1]
            out[first:last] = gain[read[first:last] - a - 1]
    return out


@np.errstate(all="ignore")  # a blown-up gain fails the finite check
def _apply_gains(pairs, gain: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """An eigenbasis block with each element times its pair's gain: the
    upper triangle by the gain (conjugated where w < 0), the lower by
    the conjugate of that, the diagonal (w = d = 0) by 1.  Gains of
    shape (samples, pairs) give a (samples, k, k) stack of blocks."""
    _, _, (j, k), inverse, negative = pairs
    gain = gain[..., inverse]
    gain = np.where(negative, gain.conj(), gain)
    out = np.broadcast_to(rho, gain.shape[:-1] + rho.shape).copy()
    out[..., j, k] *= gain
    out[..., k, j] *= gain.conj()
    return out


def evolve_exact(spec: EvolutionSpec, rho0: DensityMatrix) -> DensityMatrix:
    """The exact state at t_final: each pair's gain is
    exp(-i w t - d Gamma(t)), with Gamma the integrated rate.  Takes the
    same inputs as ``evolve_lindblad_numeric``; ``spec.dt`` is unused."""
    model, t = spec.model, spec.t_final
    block, support = model.eigenbasis_block(rho0)
    pairs = _pair_table(model, support)
    gain = np.exp(-1j * pairs[0] * t - pairs[1] * spec.schedule.integral(t))
    try:
        return DensityMatrix(_apply_gains(pairs, gain, block), model.basis,
                             support, model.dim, -POSITIVITY_FLOOR)
    except ValidationError as exc:  # valid inputs, broken propagation
        raise NumericalContractError(
            f"integration broke a state invariant ({exc})") from exc


def evolve_lindblad_numeric(spec: EvolutionSpec, rho0: DensityMatrix,
                            verify_convergence: bool = False) -> DensityMatrix:
    """Fixed-step RK4 integration of the dephasing master equation: the
    two-sample case of ``rk4_samples``, its contracts and checks."""
    if spec.t_final == 0.0:
        spec.model.eigenbasis_block(rho0)  # the state must fit the model
        return rho0
    fields, chunks = rk4_samples(spec, rho0, 2, verify_convergence)
    _, (_, blocks, lows) = chunks  # rho0's, then the state at t_final
    return DensityMatrix._checked(blocks, lows, **fields)[0]


def rk4_samples(spec: EvolutionSpec, rho0: DensityMatrix, samples: int,
                verify_convergence: bool = False):
    """The one RK4 pass over ``samples`` evenly spaced times from 0 to
    t_final: (its states' fields, chunks).  The arguments are checked and
    the gains formed at the call; ``verify_convergence`` reruns at half
    the step, and an entry moving by over 1e-8 is an error.  ``chunks``
    yields (times, blocks, least eigenvalues): rho0's, then at most
    max(1, GAIN_BLOCK // k^2) k x k blocks at a time, checked as a stack.
    A block not finite, off unit trace by 1e-9 or below -1e-7 in its
    spectrum ends the run after those before it.  Both errors are
    NumericalContractError, with a smaller-dt hint."""
    if samples < 2:
        raise ValidationError("need at least 2 samples")
    model, schedule = spec.model, spec.schedule
    if spec.t_final <= 0.0:
        raise ValidationError("t_final must be positive for a trajectory")
    dt = spec.dt if spec.dt is not None else default_step(
        model, schedule, spec.t_final)
    times = np.linspace(0.0, spec.t_final, samples)
    block, support = model.eigenbasis_block(rho0)
    pairs = _pair_table(model, support)
    runs = [_rk4_gains(*pairs[:2], schedule, times, step)
            for step in (dt, dt / 2.0)[:1 + verify_convergence]]
    if verify_convergence:
        coarse, fine = (_apply_gains(pairs, g, block) for g in runs)
        gap = float(np.max(np.abs(fine - coarse)))
        if gap > CONVERGENCE_TOL:
            raise NumericalContractError(
                f"halving dt moved entries by {gap:.3e} > {CONVERGENCE_TOL}; "
                f"retry with a smaller dt (current {dt:.3e})")
    gains, chunk = runs[-1], max(1, GAIN_BLOCK // len(block) ** 2)

    def checked():
        yield times[:1], block[None], [rho0.min_eigenvalue()]
        for c in range(1, samples, chunk):
            blocks = _apply_gains(pairs, gains[c - 1:c - 1 + chunk], block)
            try:
                lows = _check_states(blocks, model.dim, -POSITIVITY_FLOOR)
            except ValidationError as exc:  # the blocks before the broken
                good = len(exc.lows)
                yield times[c:c + good], blocks[:good], exc.lows
                raise NumericalContractError(
                    f"integration broke a state invariant ({exc}); retry "
                    f"with a smaller dt (current {dt:.3e})") from exc
            yield times[c:c + chunk], blocks, lows

    return {"basis": model.basis, "support": support, "dim": model.dim,
            "positivity_tol": -POSITIVITY_FLOOR}, checked()


def trajectory(spec: EvolutionSpec, rho0: DensityMatrix,
               samples: int) -> Iterator[tuple[float, DensityMatrix]]:
    """The states of ``rk4_samples`` (run at the call), rho0 first, one
    (t, state) at a time; a broken state ends the run after the others."""
    fields, chunks = rk4_samples(spec, rho0, samples)

    def sampled():
        next(chunks)
        yield 0.0, rho0
        for ts, blocks, lows in chunks:
            yield from zip(ts.tolist(),
                           DensityMatrix._checked(blocks, lows, **fields))

    return sampled()
