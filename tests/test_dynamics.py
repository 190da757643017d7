"""Schedules, exact evolution, RK4 integration, cat-state dynamics."""

import math
import tracemalloc
import types
import warnings

import numpy as np
import pytest

from dephasor import (CatSpec, DensityMatrix, EvolutionSpec, NoiseSchedule,
                      NumericalContractError, ValidationError, branch_model,
                      build_sensor_model, cat_initial_state, evolve_exact,
                      evolve_lindblad_numeric, schedule_eval, trajectory)
from dephasor import dynamics
from dephasor.dynamics import _rk4_gains, _step_gain, default_step

from conftest import (cat_reference, dense_schedule_integral,
                      evolved_branch_state, exact_cat_state)

QUIET = NoiseSchedule.constant(0.0)


def make_schedules():
    return [
        NoiseSchedule.constant(0.3),
        NoiseSchedule.constant(0.3, t0=0.25),
        NoiseSchedule.linear_ramp(2.0),
        NoiseSchedule.linear_ramp(2.0, t0=0.1),
        NoiseSchedule.piecewise_linear([(0.0, 0.0), (0.2, 1.0), (0.5, 0.5)]),
    ]


# --------------------------------------------------------------- schedules

@pytest.mark.parametrize("bad", [
    dict(variant="constant", gamma=-0.1),
    dict(variant="constant", gamma=math.nan),
    dict(variant="linear_ramp", gamma_dot=-1.0),
    dict(variant="constant", gamma=0.1, t0=-0.5),
    dict(variant="piecewise_linear", knots=((0.0, 0.0),)),
    dict(variant="piecewise_linear", knots=((0.0, 0.0), (0.0, 1.0))),
    dict(variant="piecewise_linear", knots=((0.0, 0.0), (0.5, -1.0))),
    dict(variant="sigmoid"),
])
def test_schedule_validation(bad):
    with pytest.raises(ValidationError):
        NoiseSchedule(**bad)


def test_onset_is_left_continuous():
    sch = NoiseSchedule.constant(0.7, t0=0.5)
    assert sch.rate(0.5) == 0.0
    assert sch.rate_right(0.5) == 0.7
    assert sch.rate(0.5 + 1e-12) == 0.7
    ramp = NoiseSchedule.linear_ramp(3.0, t0=0.5)
    assert ramp.rate(0.5) == 0.0
    assert ramp.rate_right(0.5) == 0.0     # ramp starts from zero anyway
    assert ramp.rate(0.8) == pytest.approx(3.0 * 0.3)


def test_piecewise_rate_and_tail():
    sch = NoiseSchedule.piecewise_linear(
        [(0.0, 0.0), (0.2, 1.0), (0.5, 0.5)])
    assert sch.rate(0.1) == pytest.approx(0.5)
    assert sch.rate(0.2) == pytest.approx(1.0)
    assert sch.rate(0.35) == pytest.approx(0.75)
    # constant continuation past the last knot
    assert sch.rate(0.9) == 0.5
    assert sch.rate(5.0) == 0.5


def test_piecewise_onset_knot_convention():
    sch = NoiseSchedule.piecewise_linear([(0.1, 0.4), (0.3, 0.4)])
    assert sch.t0 == 0.1
    assert sch.rate(0.1) == 0.0
    assert sch.rate_right(0.1) == 0.4


@pytest.mark.parametrize("sch", make_schedules())
@pytest.mark.parametrize("t", [0.0, 0.15, 0.5, 1.0, 3.0])
def test_integral_matches_quadrature(sch, t):
    exact = sch.integral(t)
    if t == 0.0:
        assert exact == 0.0
        return
    est = dense_schedule_integral(sch, t)
    assert exact == pytest.approx(est, abs=1e-12 * max(1.0, est))


def test_piecewise_integral_frozen_value():
    sch = NoiseSchedule.piecewise_linear(
        [(0.0, 0.0), (0.2, 1.0), (0.5, 0.5)])
    # 0.1 (first segment) + 0.225 (second) + 0.25 (constant tail)
    assert sch.integral(1.0) == pytest.approx(0.575, abs=1e-15)


def test_integral_zero_before_onset():
    for sch in make_schedules():
        assert sch.integral(0.0) == 0.0
        assert sch.integral(min(sch.t0, 0.0) + 0.0) == 0.0



@pytest.mark.parametrize("knots, t, want", [
    # two knot rates near the float maximum: their sum overflows, the
    # dose does not
    ([(0.0, 1.7e308), (1.0, 1.7e308)], 0.5, 8.5e307),
    # the tail after a far last knot and the segment after t are empty
    ([(0.0, 1.7e308), (1e20, 1.7e308)], 1.0, 1.7e308),
    ([(-0.0, 1.7e308), (1e20, -0.0)], 0.0, 0.0),
])
def test_integral_near_the_float_maximum(knots, t, want):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert NoiseSchedule.piecewise_linear(knots).integral(t) == want


def test_knot_segment_rate_far_from_its_knots():
    # (t - ta) / (tb - ta) first: (gb - ga) (t - ta) alone would overflow
    sch = NoiseSchedule.piecewise_linear([(0, 0), (1e10, 1e300)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sch.rate(5e9) == 5e299
        assert sch.integral(1e9) == 5e307


def test_max_rate_and_breakpoints():
    sch = NoiseSchedule.piecewise_linear(
        [(0.0, 0.0), (0.2, 1.0), (0.5, 0.5)])
    assert sch.max_rate(0.1) == pytest.approx(0.5)
    assert sch.max_rate(2.0) == 1.0
    assert sch.breakpoints(1.0) == [0.2, 0.5]
    ramp = NoiseSchedule.linear_ramp(1.0, t0=0.25)
    assert ramp.breakpoints(1.0) == [0.25]
    assert ramp.breakpoints(0.2) == []
    assert ramp.max_rate(1.0) == pytest.approx(0.75)


def test_schedule_eval_validates_time():
    sch = NoiseSchedule.constant(0.5)
    assert schedule_eval(sch, 2.0) == (0.5, 1.0)
    with pytest.raises(ValidationError):
        schedule_eval(sch, -1.0)
    with pytest.raises(ValidationError):
        schedule_eval(sch, math.inf)


# ------------------------------------------ closed (noiseless) evolution

def test_evolve_closed_phase_only():
    spec = CatSpec(delta_e=2.0, delta_l=2.0, omega=1.0)
    t = 0.7
    rho = exact_cat_state(branch_model(spec), QUIET, t)
    # populations untouched, coherence rotates at the branch gap
    assert rho.matrix[0, 0] == pytest.approx(0.5, abs=1e-15)
    expected = 0.5 * np.exp(1j * spec.delta_e * t)
    assert rho.matrix[0, 1] == pytest.approx(expected, abs=1e-14)
    assert rho.purity() == pytest.approx(1.0, abs=1e-13)


def test_evolve_closed_matches_analytic_zero_noise():
    spec = CatSpec(delta_e=3.0, delta_l=1.0, omega=1.5)
    model = branch_model(spec)
    for t in (0.3, 1.1):
        rho = exact_cat_state(model, QUIET, t)
        assert np.max(np.abs(rho.matrix - cat_reference(spec, QUIET, t))) \
            < 1e-13


def test_evolve_closed_rejects_bad_args():
    model = branch_model(CatSpec(delta_e=1.0, delta_l=1.0, omega=1.0))
    with pytest.raises(ValidationError):
        evolve_exact(EvolutionSpec(model=model, schedule=QUIET,
                                   t_final=-0.1), cat_initial_state(model))
    other = cat_initial_state(build_sensor_model("qubit_network", 2,
                                                 omega=1.0))
    with pytest.raises(ValidationError):
        evolve_exact(EvolutionSpec(model=model, schedule=QUIET, t_final=0.1),
                     other)


# --------------------------------------------------- exact noisy cat state

@pytest.mark.parametrize("sch", make_schedules())
@pytest.mark.parametrize("t", [0.0, 0.15, 1.0, 3.0])
def test_evolve_exact_matches_cat_reference(sch, t):
    spec = CatSpec(delta_e=3.0, delta_l=1.0, omega=1.5)
    rho = exact_cat_state(branch_model(spec), sch, t)
    assert np.max(np.abs(rho.matrix - cat_reference(spec, sch, t))) < 1e-13


def test_cat_analytic_structure():
    spec = CatSpec(delta_e=2.0, delta_l=2.0, omega=1.0)
    sch = NoiseSchedule.constant(0.25)
    t = 0.8
    rho = exact_cat_state(branch_model(spec), sch, t)
    coher = math.exp(-spec.delta_l ** 2 * sch.integral(t))
    assert abs(rho.matrix[0, 1]) == pytest.approx(0.5 * coher)
    assert np.angle(rho.matrix[0, 1]) == pytest.approx(spec.delta_e * t)
    # eigenvalues (1 +- coherence) / 2
    assert np.linalg.eigvalsh(rho.matrix) == pytest.approx(
        [0.5 * (1.0 - coher), 0.5 * (1.0 + coher)], abs=1e-12)
    assert rho.min_eigenvalue() == pytest.approx(0.5 * (1.0 - coher),
                                                 abs=1e-12)


def test_cat_analytic_purity_decays():
    spec = CatSpec(delta_e=1.0, delta_l=2.0, omega=1.0)
    model = branch_model(spec)
    sch = NoiseSchedule.linear_ramp(1.0)
    purities = [exact_cat_state(model, sch, t).purity()
                for t in (0.0, 0.4, 0.8, 1.6)]
    assert purities[0] == 1.0
    assert all(a > b for a, b in zip(purities, purities[1:]))
    # fully dephased limit: purity -> 1/2
    assert exact_cat_state(model, sch, 50.0).purity() == pytest.approx(
        0.5, abs=1e-12)


# ------------------------------------------------------------ RK4 integrator

@pytest.mark.parametrize("sch", make_schedules())
def test_rk4_matches_analytic_cat(sch):
    spec = CatSpec(delta_e=2.0, delta_l=1.0, omega=1.0)
    t = 1.0
    _, rho = evolved_branch_state(spec, sch, t, dt=1e-3)
    assert np.max(np.abs(rho.matrix - cat_reference(spec, sch, t))) < 5e-12


def test_rk4_fourth_order_convergence():
    # truncation error must fall by ~2^4 per halving while it still
    # dominates roundoff
    spec = CatSpec(delta_e=2.0, delta_l=2.0, omega=1.0)
    sch = NoiseSchedule.linear_ramp(2.0, t0=0.1)
    t = 1.0
    exact = cat_reference(spec, sch, t)

    def err(dt):
        _, rho = evolved_branch_state(spec, sch, t, dt=dt)
        return np.max(np.abs(rho.matrix - exact))

    e1, e2 = err(0.04), err(0.02)
    assert e1 / e2 > 10.0
    assert e2 < 1e-6


def test_rk4_on_network_matches_branch_closed_form():
    # GHZ-3: full 8-dimensional integration against the two-branch
    # closed form embedded at the branch indices
    model = build_sensor_model("qubit_network", 3, omega=1.0)
    sch = NoiseSchedule.constant(0.2)
    rho0 = cat_initial_state(model)
    t = 0.5
    run = EvolutionSpec(model=model, schedule=sch, t_final=t, dt=5e-4)
    rho = evolve_lindblad_numeric(run, rho0)
    spec = CatSpec(delta_e=3.0, delta_l=3.0, omega=1.0)
    i, j = model.branch_indices
    sub = rho.matrix[np.ix_([i, j], [i, j])]
    assert np.max(np.abs(sub - cat_reference(spec, sch, t))) < 1e-11


def test_rk4_segment_memory_does_not_grow_with_the_steps():
    # 10^6 steps of one pair: step times and rates are held a chunk at
    # a time (the whole table of them took about 80 MB)
    one = np.array([1.0])
    tracemalloc.start()
    try:
        gain, = _rk4_gains(one, one, NoiseSchedule.linear_ramp(1.0),
                           np.array([0.0, 1.0]), 1e-6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
    assert abs(gain[0] - np.exp(-1j - 0.5)) < 1e-9


def test_rk4_gains_memory_stays_near_one_block():
    # 10^4 ramp steps for 2016 distinct pairs (a dense dim-64 block):
    # the factor rows are held one block at a time (a row of gains for
    # every unit of steps took 127 MiB); a pair's gain is the one it has
    # on its own
    rng = np.random.default_rng(5)
    w, d = rng.uniform(0.0, 4.0, (2, 2016))
    args = (NoiseSchedule.linear_ramp(1.0), np.array([0.0, 1.0]), 1e-4)
    tracemalloc.start()
    try:
        gain, = _rk4_gains(w, d, *args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20
    one, = _rk4_gains(w[7:8], d[7:8], *args)
    assert abs(gain[7] - one[0]) <= 1e-13 * abs(one[0])


@pytest.mark.parametrize("eps, lam", [
    ([-1.5, 1.5], [-1.5, 1.5]), ([2.0, -0.5], [0.25, 3.0]),
    ([0.7, 0.7], [0.0, 1.0]), ([0.0, 1.0], [2.0, 2.0]),
    ([1.0, 1.0], [1.0, 1.0]),
])
def test_a_two_level_pair_table_is_the_sorted_one(eps, lam):
    # a cat block's table skips the index mask and the sort: it must be
    # the table np.triu_indices and np.unique give, bit for bit
    model = types.SimpleNamespace(spectrum=np.array(eps),
                                  lindblad_spectrum=np.array(lam),
                                  omega=1.3)
    w_abs, d, (j, k), inverse, negative = dynamics._pair_table(model)
    want_j, want_k = np.triu_indices(2, 1)
    w = model.omega * (model.spectrum[want_j] - model.spectrum[want_k])
    key = np.abs(w) + 1j * (model.lindblad_spectrum[want_j]
                            - model.lindblad_spectrum[want_k]) ** 2
    pairs, want_inverse = np.unique(key, return_inverse=True)
    for got, want in ((j, want_j), (k, want_k), (inverse, want_inverse),
                      (negative, w < 0.0), (w_abs, pairs.real),
                      (d, pairs.imag)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def plain_step_gain(phase, d, step, g1, gm, g2):
    """The RK4 step gain as one plain expression, real step factors
    mixed into complex products as they come."""
    k1 = phase - g1 * d
    mid = phase - gm * d
    k2 = mid * (1.0 + 0.5 * step * k1)
    k3 = mid * (1.0 + 0.5 * step * k2)
    k4 = (phase - g2 * d) * (1.0 + step * k3)
    return 1.0 + (step / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


@pytest.mark.parametrize("shape", ["scalar", "rows", "pairs"])
def test_step_gain_is_the_plain_expression_bit_for_bit(shape):
    # the kernel casts the real step factors to complex once and keeps
    # every operand order: the same bits as the plain expression, signed
    # zeros included, at zero rates and gaps too
    rng = np.random.default_rng(23)
    rows, pairs = 300, 6
    w = np.append([0.0, 0.0, 1.0], rng.uniform(-50.0, 50.0, pairs - 3))
    d = np.append([0.0, 2.0, 0.0], rng.uniform(0.0, 30.0, pairs - 3))
    step = rng.uniform(1e-5, 0.1, (rows, 1))
    rates = rng.uniform(0.0, 20.0, (3, rows, pairs))
    rates[:, ::3] = 0.0  # rate-free steps
    cases = [(step, rates if shape == "pairs" else rates[..., :1])]
    if shape == "scalar":  # a rate-free step, then two with rates
        cases = [(float(step[i, 0]), rates[:, i, 0].tolist())
                 for i in range(3)]
    for step, rates in cases:
        got = _step_gain(-1j * w, d, step, *rates)
        want = plain_step_gain(-1j * w, d, step, *rates)
        assert got.shape == want.shape == np.shape(step)[:1] + (pairs,)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def segment_gain(w, d, schedule, t_start, t_end, dt_target):
    """The RK4 gain of one smooth segment: the plain product of its
    step gains, each step with its own width and its rates at its
    start, midpoint and end (the left limit at the segment end); with
    one rate g at both ends, the step gain at g to the step count."""
    span = t_end - t_start
    n = max(1, int(math.ceil(span / dt_target - 1e-12)))
    g = schedule.rate_right(t_start)
    if g == schedule.rate(t_end):
        return _step_gain(-1j * w, d, span / n, g, g, g) ** n
    edges = t_start + np.arange(n + 1) * (span / n)
    edges[n] = t_end
    ta, tb = edges[:-1], edges[1:]
    rates = schedule.rate_right(np.stack([ta, 0.5 * (ta + tb), tb]))
    rates[2, -1] = schedule.rate(t_end)
    gains = _step_gain(-1j * w, d, *(x[:, None] for x in (tb - ta, *rates)))
    return np.prod(gains, axis=0)


def per_interval_gains(w, d, schedule, times, dt_target):
    """Oracle: the running gain at times[1:], one sample interval at a
    time, each cut at the breakpoints into smooth segments."""
    total = np.ones(w.shape, dtype=complex)
    out = []
    for ta, tb in zip(times.tolist(), times[1:].tolist()):
        lo = ta
        for cut in [p for p in schedule.breakpoints(tb) if p > ta] + [tb]:
            if cut > lo:
                total = total * segment_gain(w, d, schedule, lo, cut,
                                             dt_target)
                lo = cut
        out.append(total)
    return out


W3 = np.array([0.0, 0.5, 1.0, 3.0])
D3 = np.array([1.0, 0.0, 4.0, 0.25])


@pytest.mark.parametrize("sch, times, dt", [
    # onset on the second sample; then a long constant stretch per
    # interval, more steps than one block holds rows
    (NoiseSchedule.constant(0.7, t0=0.25), np.linspace(0.0, 1.0, 5), 1e-3),
    (NoiseSchedule.constant(0.7, t0=0.25), np.array([0.0, 0.25, 1.25]),
     1.0 / (dynamics.GAIN_BLOCK + 4099)),
    # ramp switched on at a sample, and on between samples
    (NoiseSchedule.linear_ramp(2.0, t0=0.5), np.linspace(0.0, 1.5, 7), 1e-3),
    (NoiseSchedule.linear_ramp(2.0, t0=0.3), np.linspace(0.0, 1.5, 7), 1e-3),
    # knots on samples, equal knots, the tail after the last knot
    (NoiseSchedule.piecewise_linear(
        [(0.25, 0.0), (0.5, 1.5), (1.0, 1.5), (1.2, 0.3)]),
     np.linspace(0.0, 1.5, 7), 1e-3),
    # intervals shorter than one step
    (NoiseSchedule.piecewise_linear([(0.1, 0.2), (0.7, 2.0)]),
     np.linspace(0.0, 1.0, 41), 0.3),
    (NoiseSchedule.linear_ramp(1.0), np.linspace(0.0, 2.0, 301), 0.02),
    # a ramp segment as long as the second case: its rows cross block
    # edges
    (NoiseSchedule.linear_ramp(0.7, t0=0.25), np.array([0.0, 0.25, 1.25]),
     1.0 / (dynamics.GAIN_BLOCK + 4099)),
])
def test_one_pass_gains_match_the_per_interval_loop(sch, times, dt):
    got = list(_rk4_gains(W3, D3, sch, times, dt))
    want = per_interval_gains(W3, D3, sch, times, dt)
    assert len(got) == len(times) - 1
    for g, h in zip(got, want):
        assert np.all(np.abs(g - h) <= 1e-13 * np.abs(h))


@pytest.mark.parametrize("sch, samples", [
    (NoiseSchedule.linear_ramp(1.0, t0=0.2), 2),
    (NoiseSchedule.piecewise_linear([(0.1, 0.0), (0.4, 2.0), (0.9, 0.5)]),
     11),
])
def test_rk4_reads_the_schedule_per_segment(monkeypatch, sch, samples):
    # 10^5 steps: each step takes its rates from its segment's linear
    # law, so the schedule is read at the two ends of each segment (the
    # sample intervals cut at the breakpoints), never per step
    evaluated = []
    rate = NoiseSchedule._rate
    monkeypatch.setattr(NoiseSchedule, "_rate", lambda self, t, right: (
        evaluated.append(np.size(t)) or rate(self, t, right)))
    times = np.linspace(0.0, 1.0, samples)
    gains = _rk4_gains(W3, D3, sch, times, 1e-5)
    assert gains.shape == (samples - 1, len(W3))
    segments = samples - 1 + len(sch.breakpoints(1.0))
    assert 0 < sum(evaluated) <= 2 * segments


def test_one_pass_trajectory_matches_the_per_interval_loop():
    # every sample of a 101-sample ramp trajectory of a dim-8 model:
    # a cat state has one pair, a dense state all of them
    model = build_sensor_model("qubit_network", 3, omega=1.0)
    sch = NoiseSchedule.linear_ramp(1.5, t0=0.2)
    run = EvolutionSpec(model=model, schedule=sch, t_final=1.0, dt=1e-3)
    times = np.linspace(0.0, 1.0, 101)
    rng = np.random.default_rng(7)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    dense = a @ a.conj().T
    for rho0 in (cat_initial_state(model),
                 DensityMatrix(dense / np.trace(dense).real)):
        pairs = dynamics._pair_table(model, rho0.support)
        want = per_interval_gains(*pairs[:2], sch, times, 1e-3)
        block = model.eigenbasis_block(rho0)[0]
        for (t, rho), gain in zip(list(trajectory(run, rho0, 101))[1:],
                                  want):
            ref = dynamics._apply_gains(pairs, gain, block)
            assert rho.support == rho0.support
            assert np.all(np.abs(rho.array - ref) <= 1e-13 * np.abs(ref))


def per_sample_trajectory(run, rho0, samples):
    """Oracle: each sample's gains scattered onto the initial block and
    the state formed and checked on its own, one sample at a time."""
    model = run.model
    dt = run.dt if run.dt is not None else default_step(
        model, run.schedule, run.t_final)
    times = np.linspace(0.0, run.t_final, samples)
    block, support = model.eigenbasis_block(rho0)
    _, _, (j, k), inverse, negative = pairs = dynamics._pair_table(
        model, support)
    states = [rho0]
    for gain in _rk4_gains(*pairs[:2], run.schedule, times, dt):
        gain = gain[inverse]
        gain[negative] = gain[negative].conj()
        out = block.copy()
        out[j, k] *= gain
        out[k, j] *= gain.conj()
        states.append(DensityMatrix(out, basis=model.basis, support=support,
                                    dim=model.dim, positivity_tol=1e-7))
    return list(zip(times.tolist(), states))


@pytest.mark.parametrize("gain_block", [dynamics.GAIN_BLOCK, 64, 12, 1])
def test_chunked_trajectory_matches_the_per_sample_loop(monkeypatch,
                                                        gain_block):
    # chunks of max(1, GAIN_BLOCK // k^2) samples: 4096, 16, 3 and 1
    # cat-state samples, 256, 1, 1 and 1 dense dim-8 ones; every state,
    # least eigenvalue and time equals the per-sample loop's bit for bit
    monkeypatch.setattr(dynamics, "GAIN_BLOCK", gain_block)
    model = build_sensor_model("qubit_network", 3, omega=1.0)
    sch = NoiseSchedule.piecewise_linear([(0.1, 0.0), (0.4, 2.0), (0.9, 0.5)])
    run = EvolutionSpec(model=model, schedule=sch, t_final=1.0, dt=1e-3)
    rng = np.random.default_rng(3)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    dense = a @ a.conj().T
    for rho0, samples in ((cat_initial_state(model), 37),
                          (DensityMatrix(dense / np.trace(dense).real), 5)):
        want = per_sample_trajectory(run, rho0, samples)
        got = list(trajectory(run, rho0, samples))
        assert len(got) == samples
        for (t, rho), (t_ref, ref) in zip(got, want):
            assert t == t_ref and rho.support == ref.support
            assert rho.basis is ref.basis
            assert np.array_equal(rho.array, ref.array)
            assert rho.min_eigenvalue() == ref.min_eigenvalue()


def test_trajectory_fails_at_its_first_broken_sample(monkeypatch):
    # a stiff rate switched on mid-run at a coarse step: the samples
    # before the first broken one are yielded, and it ends the run with
    # the retry hint, whether it sits in one chunk with them or not
    model = branch_model(CatSpec(delta_e=2.0, delta_l=2.0, omega=1.0))
    run = EvolutionSpec(model=model,
                        schedule=NoiseSchedule.constant(80.0, t0=2.0),
                        t_final=4.0, dt=0.5)
    for gain_block in (dynamics.GAIN_BLOCK, 4):
        monkeypatch.setattr(dynamics, "GAIN_BLOCK", gain_block)
        seen = []
        with pytest.raises(NumericalContractError, match="smaller dt"):
            for t, _ in trajectory(run, cat_initial_state(model), 9):
                seen.append(t)
        assert seen == [0.0, 0.5, 1.0, 1.5, 2.0]


def test_trajectory_samples_still_at_the_start_keep_the_initial_block():
    # linspace(0, 5e-324, 5) is 0, 0, 0, 5e-324, 5e-324: the samples
    # that repeat t = 0 take no step, so their blocks are rho0's bit for
    # bit, not unwritten memory
    model = branch_model(CatSpec(delta_e=2.0, delta_l=2.0, omega=1.0))
    rho0 = cat_initial_state(model)
    run = EvolutionSpec(model=model, schedule=NoiseSchedule.constant(1.0),
                        t_final=5e-324, dt=1.0)
    states = list(trajectory(run, rho0, 5))
    assert [t for t, _ in states] == [0.0, 0.0, 0.0, 5e-324, 5e-324]
    for _, rho in states[:3]:
        assert np.array_equal(rho.array, rho0.array)


def test_rk4_zero_time_returns_input():
    model = branch_model(CatSpec(delta_e=1.0, delta_l=1.0, omega=1.0))
    rho0 = cat_initial_state(model)
    run = EvolutionSpec(model=model, schedule=NoiseSchedule.constant(1.0),
                        t_final=0.0)
    assert evolve_lindblad_numeric(run, rho0) is rho0


def test_rk4_convergence_verification_flags_coarse_step():
    spec = CatSpec(delta_e=4.0, delta_l=4.0, omega=1.0)
    model = branch_model(spec)
    rho0 = cat_initial_state(model)
    run = EvolutionSpec(model=model, schedule=NoiseSchedule.constant(0.5),
                        t_final=2.0, dt=0.4)
    with pytest.raises(NumericalContractError, match="halving"):
        evolve_lindblad_numeric(run, rho0, verify_convergence=True)


def test_rk4_blowup_reports_contract_error():
    # absurdly coarse step on a stiff rate: invariants break, and the
    # failure must carry the retry hint rather than a validation error
    spec = CatSpec(delta_e=2.0, delta_l=2.0, omega=1.0)
    model = branch_model(spec)
    rho0 = cat_initial_state(model)
    run = EvolutionSpec(model=model, schedule=NoiseSchedule.constant(80.0),
                        t_final=4.0, dt=0.5)
    with pytest.raises(NumericalContractError, match="smaller dt"):
        evolve_lindblad_numeric(run, rho0)


def test_default_step_resolves_fast_phase():
    model = branch_model(CatSpec(delta_e=40.0, delta_l=1.0, omega=1.0))
    sch = NoiseSchedule.constant(0.1)
    dt = default_step(model, sch, 1.0)
    assert dt <= 0.01 / 40.0 + 1e-15


def test_trajectory_consistent_with_single_shot():
    spec = CatSpec(delta_e=2.0, delta_l=1.0, omega=1.0)
    model = branch_model(spec)
    sch = NoiseSchedule.linear_ramp(1.5, t0=0.2)
    rho0 = cat_initial_state(model)
    run = EvolutionSpec(model=model, schedule=sch, t_final=1.0, dt=1e-3)
    samples = list(trajectory(run, rho0, samples=5))
    assert [t for t, _ in samples] == pytest.approx(
        [0.0, 0.25, 0.5, 0.75, 1.0])
    assert samples[0][1] is rho0
    direct = evolve_lindblad_numeric(run, rho0)
    assert np.max(np.abs(samples[-1][1].matrix - direct.matrix)) < 1e-10
    # every intermediate state matches the closed form too
    for t, rho in samples[1:]:
        assert np.max(np.abs(rho.matrix - cat_reference(spec, sch, t))) \
            < 1e-10


def test_trajectory_streams_its_states():
    # 7 qubits, 101 samples: the cat state is its 2 x 2 branch block at
    # any dimension, so the run holds the gains and one chunk of 2 x 2
    # states (dense 128 x 128 states held about 26 MB)
    model = build_sensor_model("qubit_network", 7, omega=1.0)
    run = EvolutionSpec(model=model, schedule=NoiseSchedule.constant(0.2),
                        t_final=1.0)
    rho0 = cat_initial_state(model)
    tracemalloc.start()
    try:
        count = sum(1 for _ in trajectory(run, rho0, samples=101))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 101
    assert peak < 8 * 2 ** 20


def test_trajectory_needs_two_samples():
    model = branch_model(CatSpec(delta_e=1.0, delta_l=1.0, omega=1.0))
    run = EvolutionSpec(model=model, schedule=NoiseSchedule.constant(0.1),
                        t_final=1.0)
    # both checks run at the call, before the first state is asked for
    with pytest.raises(ValidationError):
        trajectory(run, cat_initial_state(model), samples=1)
    with pytest.raises(ValidationError, match="positive"):
        trajectory(EvolutionSpec(model=model, schedule=run.schedule,
                                 t_final=0.0), cat_initial_state(model), 5)
