"""Schedules, exact evolution, RK4 integration, cat-state dynamics."""

import math

import numpy as np
import pytest

from dephasor import (CatSpec, EvolutionSpec, NoiseSchedule,
                      NumericalContractError, ValidationError, branch_model,
                      build_sensor_model, cat_initial_state, evolve_exact,
                      evolve_lindblad_numeric, schedule_eval, trajectory)
from dephasor.dynamics import default_step

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
    samples = trajectory(run, rho0, samples=5)
    assert [t for t, _ in samples] == pytest.approx(
        [0.0, 0.25, 0.5, 0.75, 1.0])
    assert samples[0][1] is rho0
    direct = evolve_lindblad_numeric(run, rho0)
    assert np.max(np.abs(samples[-1][1].matrix - direct.matrix)) < 1e-10
    # every intermediate state matches the closed form too
    for t, rho in samples[1:]:
        assert np.max(np.abs(rho.matrix - cat_reference(spec, sch, t))) \
            < 1e-10


def test_trajectory_needs_two_samples():
    model = branch_model(CatSpec(delta_e=1.0, delta_l=1.0, omega=1.0))
    run = EvolutionSpec(model=model, schedule=NoiseSchedule.constant(0.1),
                        t_final=1.0)
    with pytest.raises(ValidationError):
        trajectory(run, cat_initial_state(model), samples=1)
