"""Property tests of the cat-state closed forms over random inputs.

Random gaps, schedules and time grids check that the array kernel and
the scalar wrappers agree bit for bit, that the advantage ratio is the
QFI over its noiseless baseline, that the ratio tends to 1 with the
dose, and that the time QFI sits above its commutator lower bound.

Random commuting models (H and L both diagonal in one Haar-random frame)
check the RK4 integrator: it matches a dense-matmul RK4 reference, keeps
trace and positivity along trajectories, and its state fed through
``drho_dt`` and the SLD reproduces the closed-form time QFI.
"""

import math

import numpy as np
import pytest

from dephasor import (CatSpec, DensityMatrix, EvolutionSpec, NoiseSchedule,
                      NumericalContractError, Operator, advantage_ratio,
                      branch_model, build_sensor_model, cat_initial_state,
                      cat_spec_for, cat_state_analytic, drho_dt,
                      estimator_variance, evolve_lindblad_numeric,
                      observable_expectation, saturation_ratio,
                      sld_and_qfi, trajectory)
from dephasor.estimators import signal_statistics
from dephasor.fisher import (law_at, qfi_closed, qfi_freq_cat, qfi_law,
                             qfi_time_cat, qfi_time_lower_bound)

pytest.importorskip("hypothesis")
from hypothesis import (assume, given, settings,  # noqa: E402
                        strategies as st)

PARAMS = ("time", "omega")


@st.composite
def specs(draw, energy=None):
    delta_e = draw(st.floats(0.5, 5.0))
    if energy is None:
        energy = draw(st.booleans())
    delta_l = delta_e if energy else draw(st.floats(0.0, 5.0))
    return CatSpec(delta_e=delta_e, delta_l=delta_l,
                   omega=draw(st.floats(0.2, 3.0)))


@st.composite
def schedules(draw, rate=st.floats(0.0, 20.0)):
    kind = draw(st.sampled_from(("constant", "linear_ramp", "pw")))
    t0 = draw(st.floats(0.0, 1.0))
    if kind == "constant":
        return NoiseSchedule.constant(draw(rate), t0=t0)
    if kind == "linear_ramp":
        return NoiseSchedule.linear_ramp(draw(rate), t0=t0)
    times = sorted(draw(st.lists(st.floats(0.0, 2.0), min_size=2,
                                 max_size=4, unique=True)))
    rates = draw(st.lists(rate, min_size=len(times), max_size=len(times)))
    return NoiseSchedule.piecewise_linear(zip(times, rates))


@st.composite
def time_grids(draw, schedule):
    ts = draw(st.lists(st.floats(0.0, 3.0), min_size=1, max_size=16))
    if draw(st.booleans()):
        ts.append(schedule.t0)  # the onset, where the time QFI diverges
    return np.array(ts)


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


def outcome(fn):
    """fn()'s values as bit patterns, or the overflow it raised."""
    try:
        return bits(fn())
    except NumericalContractError:
        return "overflow"


@given(st.data(), st.sampled_from(PARAMS))
def test_array_kernel_equals_scalar_wrappers(data, parameter):
    spec = data.draw(specs(energy=True if parameter == "omega" else None))
    sch = data.draw(schedules())
    ts = data.draw(time_grids(sch))
    scalar_qfi = qfi_time_cat if parameter == "time" else qfi_freq_cat

    def each(fn):
        return lambda: [fn(float(t)) for t in ts]

    pairs = [
        (lambda: advantage_ratio(spec, sch, ts, parameter),
         each(lambda t: advantage_ratio(spec, sch, t, parameter))),
        (lambda: law_at(qfi_law, spec, sch, ts, parameter),
         each(lambda t: scalar_qfi(spec, sch, t).value)),
        (lambda: saturation_ratio(spec, sch, ts, parameter),
         each(lambda t: saturation_ratio(spec, sch, t, parameter))),
        (lambda: signal_statistics(spec, sch, ts, parameter)[1],
         each(lambda t: observable_expectation(spec, sch, t).mean)),
    ]
    fields = ("mean", "variance_o", "d_mean", "variance_estimator")
    for k, name in enumerate(fields):
        pairs.append((
            lambda k=k: signal_statistics(spec, sch, ts, parameter)[1 + k],
            each(lambda t, name=name: getattr(
                estimator_variance(spec, sch, t, parameter), name))))
    for array_fn, scalar_fn in pairs:
        assert outcome(array_fn) == outcome(scalar_fn)


@given(st.data(), st.sampled_from(PARAMS), st.floats(0.0, 3.0))
def test_ratio_times_baseline_is_qfi(data, parameter, t):
    spec = data.draw(specs(energy=True if parameter == "omega" else None))
    sch = data.draw(schedules())
    try:
        ratio = advantage_ratio(spec, sch, t, parameter)
    except NumericalContractError:
        assume(False)
    qfi = law_at(qfi_law, spec, sch, t, parameter)
    base = qfi_closed(spec, t=t, parameter=parameter).value
    assume(math.isfinite(qfi) and base > 0.0)
    assert math.isclose(ratio * base, qfi, rel_tol=1e-14, abs_tol=1e-290)


@given(st.data(), st.sampled_from(PARAMS), st.floats(0.05, 2.0))
def test_ratio_tends_to_one_with_the_dose(data, parameter, span):
    spec = data.draw(specs(energy=True if parameter == "omega" else None))
    kind = data.draw(st.sampled_from(("constant", "linear_ramp")))
    t0 = data.draw(st.floats(0.0, 1.0))
    scale = data.draw(st.floats(0.1, 10.0))
    make = getattr(NoiseSchedule, kind)
    gaps = [abs(advantage_ratio(spec, make(scale * lam, t0=t0), t0 + span,
                                parameter) - 1.0)
            for lam in (1e-6, 1e-8, 1e-10)]
    # nonincreasing up to rounding of a ratio near 1
    assert gaps[2] <= gaps[1] + 4e-16 and gaps[1] <= gaps[0] + 4e-16
    assert gaps[2] < 1e-6


@given(specs(), schedules(), st.floats(0.0, 3.0))
def test_time_qfi_above_commutator_bound(spec, sch, t):
    rho, _ = cat_state_analytic(spec, sch, t)
    bound = qfi_time_lower_bound(branch_model(spec), sch, rho, t).value
    assert qfi_time_cat(spec, sch, t).value >= bound


# ------------------------------------------------ random commuting models

@st.composite
def commuting_models(draw):
    """Custom model whose H and L are diagonal in one Haar-random frame.

    Levels are drawn from a mix of floats and a few fixed values, so
    degenerate spectra of H, of L, or of both come up too."""
    dim = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    level = st.floats(-1.0, 1.0) | st.sampled_from((-1.0, 0.0, 1.0))
    levels = st.lists(level, min_size=dim, max_size=dim)
    eps = np.array(draw(levels))
    assume(np.ptp(eps) > 0.1)

    def dense(diag):
        mat = (q * diag) @ q.conj().T
        return Operator(0.5 * (mat + mat.conj().T), hermitian=True)

    lindblad = "energy" if draw(st.booleans()) else dense(np.array(
        draw(levels)))
    return build_sensor_model("custom", dim, draw(st.floats(0.5, 2.0)),
                              lindblad, h=dense(eps))


def random_state(model, seed):
    rng = np.random.default_rng(seed)
    n = model.dim
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = a @ a.conj().T
    return DensityMatrix(rho / np.trace(rho).real)


def _dense_rhs(h, l, g, rho):
    out = -1j * (h @ rho - rho @ h)
    if g != 0.0:
        k = l @ rho - rho @ l
        out -= g * (l @ k - k @ l)
    return out


def dense_rk4(model, schedule, rho, t_final, dt_target):
    """Reference RK4 on dense matrices: six matmuls per stage and a
    re-symmetrized state after every step, with the integrator's step
    rule, breakpoint splits and per-step rates."""
    h, l = model.hamiltonian(), model.lindblad.matrix
    lo = 0.0
    for cut in schedule.breakpoints(t_final) + [t_final]:
        span = cut - lo
        n = max(1, int(math.ceil(span / dt_target - 1e-12)))
        edges = lo + np.arange(n + 1) * (span / n)
        edges[n] = cut
        ta, tb = edges[:-1], edges[1:]
        rates = schedule.rate_right(np.stack([ta, 0.5 * (ta + tb), tb]))
        rates[2, -1] = schedule.rate(cut)
        for step, g1, gm, g2 in zip(tb - ta, *rates):
            k1 = _dense_rhs(h, l, g1, rho)
            k2 = _dense_rhs(h, l, gm, rho + 0.5 * step * k1)
            k3 = _dense_rhs(h, l, gm, rho + 0.5 * step * k2)
            k4 = _dense_rhs(h, l, g2, rho + step * k3)
            rho = rho + (step / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
            rho = 0.5 * (rho + rho.conj().T)
        lo = cut
    return rho


@settings(max_examples=40)
@given(commuting_models(), schedules(rate=st.floats(0.0, 2.0)),
       st.floats(0.1, 1.5), st.integers(200, 500), st.integers(0, 2 ** 16))
def test_eigenbasis_rk4_matches_dense_reference(model, sch, t, steps, seed):
    rho0 = random_state(model, seed)
    dt = t / steps
    got = evolve_lindblad_numeric(
        EvolutionSpec(model=model, schedule=sch, t_final=t, dt=dt), rho0)
    want = dense_rk4(model, sch, np.array(rho0.matrix), t, dt)
    assert np.max(np.abs(got.matrix - want)) <= 1e-12


@settings(max_examples=40)
@given(commuting_models(), schedules(rate=st.floats(0.0, 5.0)),
       st.floats(0.1, 1.5), st.integers(2, 6))
def test_trajectory_keeps_trace_and_positivity(model, sch, t, samples):
    states = trajectory(EvolutionSpec(model=model, schedule=sch, t_final=t),
                        cat_initial_state(model), samples)
    assert len(states) == samples
    for _, rho in states:
        assert abs(complex(np.trace(rho.matrix)) - 1.0) <= 1e-9
        assert rho.min_eigenvalue() >= -1e-7


@settings(max_examples=40)
@given(commuting_models(), schedules(rate=st.floats(0.0, 2.0)),
       st.floats(0.1, 1.5))
def test_numeric_sld_route_matches_closed_time_qfi(model, sch, t):
    assume(abs(t - sch.t0) > 1e-3)  # the time QFI diverges at the onset
    rho_t = evolve_lindblad_numeric(
        EvolutionSpec(model=model, schedule=sch, t_final=t),
        cat_initial_state(model))
    _, report = sld_and_qfi(rho_t, drho_dt(model, sch, rho_t, t), "time")
    want = qfi_time_cat(cat_spec_for(model), sch, t).value
    assert math.isclose(report.value, want, rel_tol=1e-6)
