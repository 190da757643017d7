"""Property tests of the cat-state closed forms over random inputs.

Random gaps, schedules and time grids check that the array kernel and
the scalar wrappers agree bit for bit, that the advantage ratio is the
QFI over its noiseless baseline, that the ratio tends to 1 with the
dose, and that the time QFI sits above its commutator lower bound.

Random commuting models (H and L both diagonal in one Haar-random frame)
check the RK4 integrator: it matches a dense-matmul RK4 reference, keeps
trace and positivity along trajectories, its state fed through
``drho_dt`` or ``drho_domega`` and the SLD reproduces the closed-form
time or frequency QFI (also deep in the tail, where the branch coherence
is far below the populations' round-off), and that numeric QFI sits
above its commutator bound.  The derivatives and bounds, formed in the
model's eigenbasis, match dense commutators of H and L along
trajectories, with and without the state's eigenbasis form.  Models
whose (w, d) pairs repeat many times (energy-dephased qubit networks,
custom models with a degenerate L) check the distinct-pair RK4 against
the same reference, at every trajectory sample too, and that a
two-sample trajectory ends on the evolved state bit for bit.  The same
models check the exact propagator: RK4 at its default step matches
``evolve_exact`` to 1e-12, and a central difference of ``evolve_exact``
over t matches the dense right-hand side of the equation of motion.
Inputs that broke a property once are pinned as explicit examples.

Random log-ratios and region grids check the array scan renderer: every
cell color follows the scalar color law, and the ratio = 1 boundary is
the one a double loop over neighbouring cells finds.
"""

import math
import re

import numpy as np
import pytest

from dephasor import (CatSpec, DensityMatrix, EvolutionSpec, NoiseSchedule,
                      NumericalContractError, Operator, advantage_ratio,
                      branch_model, build_sensor_model, cat_initial_state,
                      cat_spec_for, commutator_norms, drho_dt,
                      estimator_variance, evolve_exact,
                      evolve_lindblad_numeric,
                      observable_expectation, saturation_ratio,
                      sld_and_qfi, trajectory)
from dephasor.dynamics import _pair_table
from dephasor.estimators import signal_statistics
from dephasor.fisher import (drho_domega, law_at, qfi_closed, qfi_freq_cat,
                             qfi_freq_lower_bound, qfi_law, qfi_time_cat,
                             qfi_time_lower_bound)
from dephasor.protocols import HeatmapTable
from dephasor.svgmap import (LOG_CEIL, LOG_FLOOR, _NEG_HI, _NEG_LO, _POS_HI,
                             _POS_LO, HEIGHT, MARGIN_BOTTOM, MARGIN_LEFT,
                             MARGIN_RIGHT, MARGIN_TOP, WIDTH, _color,
                             _color_codes, render_heatmap_svg)

from conftest import exact_cat_state, framed, haar_unitary

pytest.importorskip("hypothesis")
from hypothesis import (assume, example, given, settings,  # noqa: E402
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


# Inputs that broke a property once, pinned with @example.  Derandomized
# draws mix in the numeric literals of the code base, so adding or
# deleting a constant anywhere can move the random examples off them.

def haar_model(eps, lam=None, omega=2.0, seed=3):
    """Custom model with H, and L unless it is H, diagonal in a seeded
    Haar-random frame."""
    q = haar_unitary(np.random.default_rng(seed), len(eps))
    lindblad = "energy" if lam is None else Operator(
        framed(q, np.array(lam)), hermitian=True)
    return build_sensor_model("custom", len(eps), omega, lindblad,
                              h=Operator(framed(q, np.array(eps)),
                                         hermitian=True))


# dE = dL = 4, so a constant rate g gives x = 32 g at t = 1: the branch
# coherence e^{-x/2} sits far below the populations' round-off
DEEP_TAIL = haar_model([-1.0, 1.0, 0.0, 0.5, -0.5, 0.25, 0.0, -0.25])
# h levels 1e-7 apart, which L tells apart
NEAR_DEGENERATE = haar_model([0.0, 1e-7, 1.0], [1.0, -1.0, 0.5], omega=1.3)


def complex_lift_model():
    """A real h with a degenerate level that a complex L lifts."""
    q, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(3, 3)))
    inner = np.array([[0.0, 1j, 0.0], [-1j, 0.0, 0.0], [0.0, 0.0, 3.0]])
    return build_sensor_model(
        "custom", 3, 1.0, Operator(q @ inner @ q.T, hermitian=True),
        h=Operator(q @ np.diag([1.0, 1.0, 2.0]) @ q.T, hermitian=True))


COMPLEX_LIFT = complex_lift_model()
KNOTS_INSIDE = NoiseSchedule.piecewise_linear(
    [(0.1, 0.0), (0.35, 1.5), (0.8, 0.4)])


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
@example(CatSpec(2.0, 2.0, 1.0), NoiseSchedule.constant(1.0, t0=0.5), 0.5)
@example(CatSpec(2.0, 2.0, 1.0), NoiseSchedule.constant(20.0), 3.0)
def test_time_qfi_above_commutator_bound(spec, sch, t):
    model = branch_model(spec)
    rho = exact_cat_state(model, sch, t)
    bound = qfi_time_lower_bound(model, sch, rho, t).value
    assert qfi_time_cat(spec, sch, t).value >= bound


# ------------------------------------------------ random commuting models

@st.composite
def commuting_models(draw, energy=None):
    """Custom model whose H and L are diagonal in one Haar-random frame.

    Levels are drawn from a mix of floats and a few fixed values, so
    degenerate spectra of H, of L, or of both come up too.  ``energy``
    forces energy dephasing (L = H) on or off."""
    dim = draw(st.integers(2, 8))
    q = haar_unitary(np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))),
                     dim)
    level = st.floats(-1.0, 1.0) | st.sampled_from((-1.0, 0.0, 1.0))
    levels = st.lists(level, min_size=dim, max_size=dim)
    eps = np.array(draw(levels))
    assume(np.ptp(eps) > 0.1)

    def dense(diag):
        return Operator(framed(q, diag), hermitian=True)

    if energy is None:
        energy = draw(st.booleans())
    lindblad = "energy" if energy else dense(np.array(draw(levels)))
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


def dense_rk4(model, schedule, rho, t_final, dt_target, t_start=0.0):
    """Reference RK4 on dense matrices from t_start to t_final: six
    matmuls per stage and a re-symmetrized state after every step, with
    the integrator's step rule, breakpoint splits and per-step rates."""
    h, l = model.hamiltonian(), model.lindblad.matrix
    lo = t_start
    cuts = [p for p in schedule.breakpoints(t_final) if p > t_start]
    for cut in cuts + [t_final]:
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
@example(NEAR_DEGENERATE, NoiseSchedule.constant(1.5), 1.0, 300, 0)
@example(COMPLEX_LIFT, NoiseSchedule.linear_ramp(1.5, t0=0.2), 1.0, 300, 1)
@example(DEEP_TAIL, KNOTS_INSIDE, 1.0, 400, 2)
@example(DEEP_TAIL, NoiseSchedule.constant(1.0, t0=0.5), 0.5, 200, 3)
@example(DEEP_TAIL, NoiseSchedule.constant(1.0, t0=0.25), 1.0, 200, 4)
def test_eigenbasis_rk4_matches_dense_reference(model, sch, t, steps, seed):
    rho0 = random_state(model, seed)
    dt = t / steps
    got = evolve_lindblad_numeric(
        EvolutionSpec(model=model, schedule=sch, t_final=t, dt=dt), rho0)
    want = dense_rk4(model, sch, np.array(rho0.matrix), t, dt)
    assert np.max(np.abs(got.matrix - want)) <= 1e-12


@settings(max_examples=40)
@given(commuting_models(), schedules(rate=st.floats(0.0, 5.0)),
       st.floats(0.1, 1.5), st.integers(0, 2 ** 16))
@example(DEEP_TAIL, NoiseSchedule.constant(5.0), 1.0, 0)
@example(NEAR_DEGENERATE, KNOTS_INSIDE, 1.0, 1)
def test_default_step_rk4_matches_exact_evolution(model, sch, t, seed):
    # the two gain rules of one propagator: RK4 at its default step
    # differs from the exact gain by its truncation error only
    run = EvolutionSpec(model=model, schedule=sch, t_final=t)
    rho0 = random_state(model, seed)
    got = evolve_lindblad_numeric(run, rho0)
    want = evolve_exact(run, rho0)
    assert want.frame[0] is got.frame[0] is model.basis
    assert np.max(np.abs(got.frame[1] - want.frame[1])) <= 1e-12
    assert np.max(np.abs(got.matrix - want.matrix)) <= 1e-12


@settings(max_examples=40)
@given(commuting_models(), schedules(rate=st.floats(0.0, 2.0)),
       st.floats(0.1, 1.5), st.integers(0, 2 ** 16))
@example(COMPLEX_LIFT, KNOTS_INSIDE, 0.6, 0)
def test_exact_evolution_solves_the_equation_of_motion(model, sch, t, seed):
    # a central difference of the exact flow against the dense
    # right-hand side, away from where the rate is not smooth
    h = 1e-5
    assume(all(abs(t - p) > 2 * h for p in sch.breakpoints(t + 1.0)))
    rho0 = random_state(model, seed)

    def state(tt):
        run = EvolutionSpec(model=model, schedule=sch, t_final=tt)
        return evolve_exact(run, rho0).matrix

    fd = (state(t + h) - state(t - h)) / (2.0 * h)
    rhs = _dense_rhs(model.hamiltonian(), model.lindblad.matrix,
                     sch.rate(t), state(t))
    assert np.max(np.abs(fd - rhs)) <= 1e-8


@pytest.mark.parametrize("seed", range(4))
def test_near_degenerate_levels_rk4_matches_dense_reference(seed):
    # h levels 1e-7 apart: unless the basis is rotated inside that
    # cluster, L keeps an off-diagonal part the eigenbasis RK4 drops
    model = haar_model([0.0, 1e-7, 1.0], [1.0, -1.0, 0.5], omega=1.3,
                       seed=seed)
    sch, t, dt = NoiseSchedule.linear_ramp(1.5, t0=0.2), 1.0, 1.0 / 300
    rho0 = random_state(model, seed)
    got = evolve_lindblad_numeric(
        EvolutionSpec(model=model, schedule=sch, t_final=t, dt=dt), rho0)
    want = dense_rk4(model, sch, np.array(rho0.matrix), t, dt)
    assert np.max(np.abs(got.matrix - want)) <= 1e-13


# Distinct-pair kernel: models whose (w, d) pairs repeat many times

@st.composite
def repeated_pair_models(draw):
    """Energy-dephased qubit networks (N = 2..5), or custom models whose
    L has only the levels -1, 0, 1 in a Haar-random frame.  Custom H
    levels sit on a grid of eighths: equal or at least 1/8 apart."""
    omega = draw(st.floats(0.5, 2.0))
    if draw(st.booleans()):
        return build_sensor_model("qubit_network", draw(st.integers(2, 5)),
                                  omega)
    dim = draw(st.integers(3, 8))
    q = haar_unitary(np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))),
                     dim)
    eps = np.array(draw(st.lists(st.integers(-8, 8), min_size=dim,
                                 max_size=dim))) / 8.0
    assume(np.ptp(eps) > 0.1)
    lam = np.array(draw(st.lists(st.sampled_from((-1.0, 0.0, 1.0)),
                                 min_size=dim, max_size=dim)))
    return build_sensor_model(
        "custom", dim, omega, Operator(framed(q, lam), hermitian=True),
        h=Operator(framed(q, eps), hermitian=True))


@st.composite
def piecewise_schedules(draw, t):
    """Piecewise-linear rates with two to four knots inside (0, t)."""
    knots = sorted(draw(st.lists(st.floats(0.02, 0.98), min_size=2,
                                 max_size=4, unique=True)))
    rates = draw(st.lists(st.floats(0.0, 2.0), min_size=len(knots),
                          max_size=len(knots)))
    return NoiseSchedule.piecewise_linear(
        (k * t, g) for k, g in zip(knots, rates))


@settings(max_examples=30)
@given(st.data(), repeated_pair_models(), st.floats(0.2, 1.5),
       st.integers(200, 400), st.integers(0, 2 ** 16))
def test_distinct_pair_rk4_matches_dense_reference(data, model, t, steps,
                                                   seed):
    sch = data.draw(piecewise_schedules(t) | schedules(st.floats(0.0, 2.0)))
    rho0 = random_state(model, seed)
    dt = t / steps
    got = evolve_lindblad_numeric(
        EvolutionSpec(model=model, schedule=sch, t_final=t, dt=dt), rho0)
    want = dense_rk4(model, sch, np.array(rho0.matrix), t, dt)
    assert np.max(np.abs(got.matrix - want)) <= 1e-12


@settings(max_examples=20)
@given(st.data(), repeated_pair_models(), st.floats(0.2, 1.5),
       st.integers(2, 5), st.integers(0, 2 ** 16))
def test_distinct_pair_trajectory_matches_dense_reference(data, model, t,
                                                          samples, seed):
    sch = data.draw(piecewise_schedules(t))
    rho0 = random_state(model, seed)
    dt = t / 300
    states = trajectory(
        EvolutionSpec(model=model, schedule=sch, t_final=t, dt=dt), rho0,
        samples)
    want = np.array(rho0.matrix)
    grid = np.linspace(0.0, t, samples)
    for (ta, _), (tb, rho) in zip(states, states[1:]):
        want = dense_rk4(model, sch, want, tb, dt, t_start=ta)
        assert np.max(np.abs(rho.matrix - want)) <= 1e-12
    assert [tb for tb, _ in states] == grid.tolist()


@settings(max_examples=20)
@given(st.data(), repeated_pair_models(), st.floats(0.2, 1.5),
       st.integers(0, 2 ** 16))
def test_two_sample_trajectory_is_the_evolved_state_bit_for_bit(
        data, model, t, seed):
    sch = data.draw(piecewise_schedules(t) | schedules(st.floats(0.0, 2.0)))
    spec = EvolutionSpec(model=model, schedule=sch, t_final=t)
    rho0 = random_state(model, seed)
    end = trajectory(spec, rho0, 2)[-1]
    assert end[0] == t
    assert bits(end[1].matrix.view(float)) == bits(
        evolve_lindblad_numeric(spec, rho0).matrix.view(float))


@pytest.mark.parametrize("omega", [1.0, 2.0])
@pytest.mark.parametrize("n_qubits", range(1, 9))
def test_qubit_network_has_one_pair_per_energy_gap(n_qubits, omega):
    # |e_j - e_k| takes the values 0..N; only the gap 0 leaves d = 0.
    # (With these omegas every level difference is exact, so no pair
    # splits in the last bit.)
    model = build_sensor_model("qubit_network", n_qubits, omega)
    w, d, (j, k), inverse, negative = _pair_table(model)
    nontrivial = (w != 0.0) | (d != 0.0)
    assert int(np.sum(nontrivial)) == n_qubits
    assert len(inverse) == len(j) == model.dim * (model.dim - 1) // 2
    eps = model.spectrum
    np.testing.assert_array_equal(
        np.where(negative, -1.0, 1.0) * w[inverse],
        model.omega * (eps[j] - eps[k]))


@settings(max_examples=40)
@given(commuting_models(), schedules(rate=st.floats(0.0, 5.0)),
       st.floats(0.1, 1.5), st.integers(2, 6))
@example(DEEP_TAIL, NoiseSchedule.constant(5.0, t0=0.5), 1.0, 3)
@example(NEAR_DEGENERATE, KNOTS_INSIDE, 1.0, 5)
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
@example(COMPLEX_LIFT, NoiseSchedule.linear_ramp(2.0, t0=0.5), 0.502)
@example(NEAR_DEGENERATE, KNOTS_INSIDE, 1.0)
def test_numeric_sld_route_matches_closed_time_qfi(model, sch, t):
    assume(abs(t - sch.t0) > 1e-3)  # the time QFI diverges at the onset
    rho_t = evolve_lindblad_numeric(
        EvolutionSpec(model=model, schedule=sch, t_final=t),
        cat_initial_state(model))
    _, report = sld_and_qfi(rho_t, drho_dt(model, sch, rho_t, t), "time")
    want = qfi_time_cat(cat_spec_for(model), sch, t).value
    assert math.isclose(report.value, want, rel_tol=1e-6)


@pytest.mark.parametrize("rate", [2.0, 5.0, 10.0])
def test_numeric_time_qfi_in_the_deep_tail(rate):
    # x = 64, 160 and 320: the coherence e^{-x/2} sits far below the
    # round-off of the O(1) populations in the model's Haar frame.  The
    # state carries its eigenbasis form, so the derivative keeps it.
    model, sch, t = DEEP_TAIL, NoiseSchedule.constant(rate), 1.0
    rho_t = evolve_lindblad_numeric(
        EvolutionSpec(model=model, schedule=sch, t_final=t),
        cat_initial_state(model))
    _, report = sld_and_qfi(rho_t, drho_dt(model, sch, rho_t, t), "time")
    want = qfi_time_cat(cat_spec_for(model), sch, t).value
    assert math.isclose(report.value, want, rel_tol=1e-6)


def frame_residual(model):
    """Largest entry by which H and L miss their diagonals in the
    model's computed eigenbasis (round-off)."""
    v = model.basis
    return max(float(np.max(np.abs(v.conj().T @ op @ v - np.diag(d))))
               for op, d in ((model.hamiltonian(),
                              model.omega * model.spectrum),
                             (model.lindblad.matrix,
                              model.lindblad_spectrum)))


@settings(max_examples=30)
@given(commuting_models(), schedules(rate=st.floats(0.0, 2.0)),
       st.floats(0.1, 1.5), st.integers(2, 4))
@example(NEAR_DEGENERATE, KNOTS_INSIDE, 1.0, 3)
@example(COMPLEX_LIFT, NoiseSchedule.constant(1.0, t0=0.5), 1.0, 3)
def test_eigenbasis_derivatives_match_dense_commutators(model, sch, t,
                                                        samples):
    # drho and the bounds are formed in the model's eigenbasis; the
    # reference is the dense commutators of H and L, which differ by how
    # far H and L are from diagonal in the computed basis.  Each
    # trajectory state carries its eigenbasis form, which rotates out to
    # its matrix; the same state without the form is rotated in.
    run = EvolutionSpec(model=model, schedule=sch, t_final=t)
    h, l, v = model.hamiltonian(), model.lindblad.matrix, model.basis
    tol = 1e-12 + 1e3 * frame_residual(model)
    rate, dose = sch.rate(t), sch.integral(t)
    for _, rho in trajectory(run, cat_initial_state(model), samples)[1:]:
        assert rho.frame[0] is v
        form = model.to_eigenbasis(rho)
        assert np.max(np.abs(v @ form @ v.conj().T - rho.matrix)) <= 1e-14
        m = rho.matrix
        n_h, n_ll = commutator_norms(h, l, rho)
        for state in (rho, DensityMatrix(m, positivity_tol=1e-7)):
            np.testing.assert_allclose(drho_dt(model, sch, state, t),
                                       _dense_rhs(h, l, rate, m),
                                       rtol=0.0, atol=tol)
            assert math.isclose(
                qfi_time_lower_bound(model, sch, state, t).value,
                n_h + rate * rate * n_ll, rel_tol=1e-9, abs_tol=tol)
            if not model.energy_lindblad:
                continue
            w = model.omega
            k = h @ m - m @ h
            np.testing.assert_allclose(
                drho_domega(model, sch, state, t),
                -1j * (t / w) * k - (2.0 * dose / w) * (h @ k - k @ h),
                rtol=0.0, atol=tol)
            _, n_hh = commutator_norms(h, h, rho)  # L = H
            assert math.isclose(
                qfi_freq_lower_bound(model, sch, state, t).value,
                (t * t * n_h + 4.0 * dose * dose * n_hh) / (w * w),
                rel_tol=1e-9, abs_tol=tol)


@settings(max_examples=40)
@given(commuting_models(energy=True), schedules(rate=st.floats(0.0, 2.0)),
       st.floats(0.1, 1.5))
@example(DEEP_TAIL, NoiseSchedule.constant(2.0), 1.0)
@example(DEEP_TAIL, NoiseSchedule.constant(5.0), 1.0)
@example(DEEP_TAIL, NoiseSchedule.constant(10.0), 1.0)
@example(DEEP_TAIL, NoiseSchedule.constant(1.0, t0=0.5), 0.502)
def test_numeric_sld_route_matches_closed_freq_qfi(model, sch, t):
    rho_t = evolve_lindblad_numeric(
        EvolutionSpec(model=model, schedule=sch, t_final=t),
        cat_initial_state(model))
    _, report = sld_and_qfi(rho_t, drho_domega(model, sch, rho_t, t),
                            "omega")
    want = qfi_freq_cat(cat_spec_for(model), sch, t).value
    assert math.isclose(report.value, want, rel_tol=1e-6)


@settings(max_examples=40)
@given(st.data(), st.sampled_from(PARAMS),
       schedules(rate=st.floats(0.0, 2.0)), st.floats(0.1, 1.5))
def test_numeric_qfi_above_commutator_bound(data, parameter, sch, t):
    # the SLD QFI is at least tr[(d rho)^2], which the bound equals
    # for a commuting model
    model = data.draw(commuting_models(
        energy=True if parameter == "omega" else None))
    rho_t = evolve_lindblad_numeric(
        EvolutionSpec(model=model, schedule=sch, t_final=t),
        cat_initial_state(model))
    if parameter == "time":
        drho = drho_dt(model, sch, rho_t, t)
        bound = qfi_time_lower_bound(model, sch, rho_t, t).value
    else:
        drho = drho_domega(model, sch, rho_t, t)
        bound = qfi_freq_lower_bound(model, sch, rho_t, t).value
    _, report = sld_and_qfi(rho_t, drho, parameter)
    assert report.value >= bound * (1.0 - 1e-9)


# ----------------------------------------------------- scan SVG rendering

def reference_color(log_ratio):
    """The color law cell by cell, in Python floats and ``round``."""
    if math.isinf(log_ratio):
        log_ratio = LOG_CEIL if log_ratio > 0 else LOG_FLOOR
    v = min(max(log_ratio, LOG_FLOOR), LOG_CEIL)
    if v < 0.0:
        lo, hi, u = _NEG_LO, _NEG_HI, 1.0 - v / LOG_FLOOR
    else:
        lo, hi, u = _POS_LO, _POS_HI, v / LOG_CEIL
    return "#" + "".join(f"{round(a + (b - a) * u):02x}"
                         for a, b in zip(lo, hi))


def lands_on_tie(log_ratio):
    v = min(max(log_ratio, LOG_FLOOR), LOG_CEIL)
    lo, hi, u = ((_NEG_LO, _NEG_HI, 1.0 - v / LOG_FLOOR) if v < 0.0
                 else (_POS_LO, _POS_HI, v / LOG_CEIL))
    return any((a + (b - a) * u) % 1.0 == 0.5 for a, b in zip(lo, hi))


# quarter steps where some channel's lerp is exactly k + 1/2
TIES = [k / 4 for k in range(-12, 17) if lands_on_tie(k / 4)]
EDGES = (math.inf, -math.inf, 0.0, -0.0, LOG_FLOOR, LOG_CEIL,
         LOG_FLOOR - 1e-9, LOG_CEIL + 1e-9, -1e300, 1e300)
log_ratios = (st.floats(-6.0, 7.0) | st.sampled_from(EDGES)
              | st.sampled_from(TIES))


@given(st.lists(log_ratios, min_size=1, max_size=48))
def test_array_colors_follow_the_scalar_law(values):
    assert len(TIES) >= 4
    want = [reference_color(v) for v in values]
    codes = _color_codes(np.array(values)).tolist()
    assert [f"#{c:06x}" for c in codes] == want
    assert [_color(v) for v in values] == want


# ratios on either side of 1, including both sides' extremes and 1 itself
CELL_RATIOS = (0.0, 1e-300, 0.5, 1.0 - 2.0 ** -53, 1.0, 3.0, 1e300,
               math.inf)
shapes = (st.tuples(st.integers(2, 9), st.integers(2, 9))
          | st.tuples(st.just(2), st.integers(2, 14))
          | st.tuples(st.integers(2, 14), st.just(2)))
LINE = re.compile(r'<line x1="([^"]+)" y1="([^"]+)" x2="([^"]+)" '
                  r'y2="([^"]+)" stroke="#000000" stroke-width="1.2"/>')
FILL = re.compile(r'<rect x="[^"]+" y="[^"]+" width="[^"]+" '
                  r'height="[^"]+" fill="(#[0-9a-f]{6})"/>')


def brute_force_boundary(enhanced):
    """Edges between neighbouring cells in different regions, by loops."""
    ny, nx = enhanced.shape
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
    cell_w, cell_h = plot_w / nx, plot_h / ny

    def cx(i):
        return MARGIN_LEFT + i * cell_w

    def cy(j):
        return MARGIN_TOP + plot_h - (j + 1) * cell_h

    segs = []
    for j in range(ny):
        for i in range(nx - 1):
            if enhanced[j, i] != enhanced[j, i + 1]:
                segs.append((cx(i + 1), cy(j), cx(i + 1), cy(j) + cell_h))
    for j in range(ny - 1):
        for i in range(nx):
            if enhanced[j, i] != enhanced[j + 1, i]:
                segs.append((cx(i), cy(j), cx(i) + cell_w, cy(j)))
    return [tuple(f"{v:.2f}" for v in seg) for seg in segs]


@given(st.data(), shapes)
def test_svg_boundary_and_fills_match_cell_loops(data, shape):
    ny, nx = shape
    cells = data.draw(st.lists(st.sampled_from(CELL_RATIOS),
                               min_size=ny * nx, max_size=ny * nx))
    ratios = np.array(cells).reshape(ny, nx)
    table = HeatmapTable(parameter="time", x_name="t", y_name="gamma",
                         x_values=np.linspace(0.1, 1.0, nx),
                         y_values=np.geomspace(0.1, 10.0, ny),
                         ratios=ratios)
    svg = render_heatmap_svg(table)
    assert LINE.findall(svg) == brute_force_boundary(ratios >= 1.0)
    logs = [math.log10(r) if r > 0.0 else LOG_FLOOR for r in cells]
    assert FILL.findall(svg) == [reference_color(v) for v in logs]
