"""Readout signal, error propagation, and bound saturation."""

import math

import numpy as np
import pytest

from dephasor import (CatSpec, EvolutionSpec, NoiseSchedule, Operator,
                      ValidationError, build_sensor_model, cat_initial_state,
                      evolve_lindblad_numeric, operator_expectation)
from dephasor.estimators import (estimator_variance, observable_expectation,
                                 optimal_observable, saturation_ratio)
from dephasor.fisher import qfi_cat

from conftest import kpi_window_schedule

LN2 = math.log(2.0)


# ------------------------------------------------------------------- signal

def test_signal_mean_and_variance_known_point():
    # cos(pi) e^{-4 * 0.25 * pi/2} at delta_e = delta_l = 2
    spec = CatSpec(delta_e=2.0, delta_l=2.0, omega=1.0)
    sch = NoiseSchedule.constant(0.25)
    rep = observable_expectation(spec, sch, math.pi / 2.0)
    assert rep.mean == pytest.approx(-math.exp(-math.pi / 2.0), abs=1e-15)
    assert rep.mean == pytest.approx(-0.20787957635076193, abs=1e-15)
    assert rep.variance_o == pytest.approx(1.0 - rep.mean ** 2, abs=1e-15)


def test_signal_starts_at_one():
    spec = CatSpec(delta_e=3.0, delta_l=1.0, omega=1.0)
    rep = observable_expectation(spec, NoiseSchedule.constant(0.5), 0.0)
    assert rep.mean == 1.0
    assert rep.variance_o == 0.0


@pytest.mark.parametrize("parameter", ["time", "omega"])
def test_signal_derivative_matches_finite_difference(parameter):
    spec = CatSpec(delta_e=2.0, delta_l=2.0, omega=1.0)
    sch = NoiseSchedule.constant(0.3, t0=0.1)
    t, h = 0.9, 1e-6
    rep = estimator_variance(spec, sch, t, parameter)
    if parameter == "time":
        fd = (observable_expectation(spec, sch, t + h).mean
              - observable_expectation(spec, sch, t - h).mean) / (2.0 * h)
    else:
        # vary omega at fixed relative gap: delta_e scales with omega
        def mean_at(w):
            s = CatSpec(delta_e=spec.delta_eps * w,
                        delta_l=spec.delta_eps * w, omega=w)
            return observable_expectation(s, sch, t).mean
        fd = (mean_at(1.0 + h) - mean_at(1.0 - h)) / (2.0 * h)
    assert rep.d_mean == pytest.approx(fd, abs=2e-9)


def test_estimator_variance_is_error_propagation():
    spec = CatSpec(delta_e=2.0, delta_l=1.0, omega=1.0)
    sch = NoiseSchedule.linear_ramp(1.5)
    rep = estimator_variance(spec, sch, 0.8, "time")
    assert rep.variance_estimator == pytest.approx(
        rep.variance_o / rep.d_mean ** 2, rel=1e-15)
    assert rep.parameter == "time"
    assert rep.to_dict()["variance_O"] == rep.variance_o


def test_stationary_signal_diverges_cleanly():
    # at t = 0 under a quiet schedule the signal derivative vanishes
    # identically: the propagated variance must be an explicit infinity,
    # not an exception
    spec = CatSpec(delta_e=2.0, delta_l=2.0, omega=1.0)
    quiet = NoiseSchedule.constant(0.0)
    rep = estimator_variance(spec, quiet, 0.0, "time")
    assert rep.d_mean == 0.0
    assert math.isinf(rep.variance_estimator)
    assert rep.diverged
    assert math.isinf(saturation_ratio(spec, quiet, 0.0, "time"))
    # at a noise-free extremum both var(O) and the derivative go to
    # zero together; the quotient stays finite instead of blowing up.
    # The float phase fl(pi) is not a node: var(O) = sin(fl(pi))^2 and
    # var(O) / (d<O>/dt)^2 = 1 / dE^2, with nothing cancelled
    near = estimator_variance(spec, quiet, math.pi / 2.0, "time")
    assert near.variance_o == pytest.approx(math.sin(math.pi) ** 2,
                                            rel=1e-15)
    assert near.variance_estimator == pytest.approx(0.25, rel=1e-15)
    assert not near.diverged


@pytest.mark.parametrize("t", [5e-324, 1e-200, 1e-170])
def test_estimator_variance_survives_an_underflowing_slope(t):
    # d<O>/dt = -dE^2 t is nonzero but its square leaves the normal
    # range, and var(O) = sin(dE t)^2 underflows to 0: the quotient is
    # (sin(dE t) / N)^2 = 1 / dE^2, formed without the square, not 0/0
    # (a NaN) or 0/subnormal
    spec = CatSpec(delta_e=3.0, delta_l=3.0, omega=1.0)
    rep = estimator_variance(spec, NoiseSchedule.constant(0.0), t, "time")
    assert rep.d_mean != 0.0 and rep.d_mean ** 2 < 2.3e-308
    assert rep.variance_o == 0.0
    assert rep.variance_estimator == pytest.approx(1.0 / 9.0, rel=1e-15)
    assert not rep.diverged


def test_frequency_estimation_requires_energy_dephasing():
    spec = CatSpec(delta_e=2.0, delta_l=1.0, omega=1.0)
    with pytest.raises(ValidationError, match="energy dephasing"):
        estimator_variance(spec, NoiseSchedule.constant(0.1), 1.0, "omega")


def test_unknown_parameter_rejected():
    spec = CatSpec(delta_e=2.0, delta_l=2.0, omega=1.0)
    with pytest.raises(ValidationError, match="parameter"):
        estimator_variance(spec, NoiseSchedule.constant(0.1), 1.0, "phase")


# ------------------------------------------------------- ramp-window values

def test_window_phase_matching_gives_exact_inverse_variance():
    # ramp with onset tuned so the half-decay window lands on a signal
    # extremum: var(t-hat) = 1 / (ln2 * gdot * dL^2) exactly
    spec = CatSpec(delta_e=2.0, delta_l=2.0, omega=1.0)
    sch, t = kpi_window_schedule(spec, gamma_dot=4.0)
    assert sch.t0 == pytest.approx(1.362657674005472, abs=1e-15)
    rep = estimator_variance(spec, sch, t, "time")
    expect = 1.0 / (LN2 * 4.0 * 4.0)
    assert rep.variance_estimator == pytest.approx(expect, rel=1e-12)
    assert rep.variance_estimator == pytest.approx(0.09016844005556027,
                                                   rel=1e-12)


def test_doubling_ramp_slope_halves_variance():
    spec = CatSpec(delta_e=2.0, delta_l=2.0, omega=1.0)
    sch1, t1 = kpi_window_schedule(spec, gamma_dot=4.0)
    sch2, t2 = kpi_window_schedule(spec, gamma_dot=8.0)
    v1 = estimator_variance(spec, sch1, t1, "time").variance_estimator
    v2 = estimator_variance(spec, sch2, t2, "time").variance_estimator
    assert v1 / v2 == pytest.approx(2.0, rel=1e-12)
    assert v2 == pytest.approx(0.04508422002778009, rel=1e-12)


def test_unit_variance_construction():
    # gdot = 1/ln2 with unit gaps makes the window variance exactly 1
    spec = CatSpec(delta_e=1.0, delta_l=1.0, omega=1.0)
    sch, t = kpi_window_schedule(spec, gamma_dot=1.0 / LN2)
    rep = estimator_variance(spec, sch, t, "time")
    assert rep.variance_estimator == pytest.approx(1.0, rel=1e-12)


# --------------------------------------------------------------- saturation

def test_saturation_ratio_identity_at_window():
    # at a phase-matched window the ratio var * F depends only on
    # r = gdot dL^2 / dE^2:  1 + 1/(2 ln2 r)
    for gdot, de in ((4.0, 2.0), (10.0, 1.0), (2.5, 2.0)):
        spec = CatSpec(delta_e=de, delta_l=de, omega=1.0)
        sch, t = kpi_window_schedule(spec, gamma_dot=gdot, k=2)
        r = gdot * de ** 2 / de ** 2  # dL = dE here
        ratio = saturation_ratio(spec, sch, t, "time")
        assert ratio == pytest.approx(1.0 + 1.0 / (2.0 * LN2 * r),
                                      rel=1e-10)


def test_saturation_ratio_r10_frozen():
    spec = CatSpec(delta_e=1.0, delta_l=1.0, omega=1.0)
    sch, t = kpi_window_schedule(spec, gamma_dot=10.0, k=1)
    ratio = saturation_ratio(spec, sch, t, "time")
    assert ratio == pytest.approx(1.0721347520444482, rel=1e-10)


def test_saturation_never_beats_the_bound():
    # var * F >= 1 wherever both sides are finite
    spec = CatSpec(delta_e=2.0, delta_l=2.0, omega=1.0)
    for sch in (NoiseSchedule.constant(0.2), NoiseSchedule.linear_ramp(3.0),
                NoiseSchedule.piecewise_linear([(0.0, 0.0), (0.4, 1.2)])):
        for t in np.linspace(0.05, 2.4, 31):
            ratio = saturation_ratio(spec, sch, float(t), "time")
            assert ratio >= 1.0 - 1e-10


# ------------------------------------------------------- frequency estimate

def test_omega_estimate_at_half_decay_extremum():
    # constant gamma = ln2/(4 pi), t = pi/2, dE = 2: the phase sits at
    # pi and the envelope at 2^{-1/2}, giving var = 1/ln2^2 exactly
    gamma = LN2 / (4.0 * math.pi)
    spec = CatSpec(delta_e=2.0, delta_l=2.0, omega=1.0)
    sch = NoiseSchedule.constant(gamma)
    t = math.pi / 2.0
    rep = estimator_variance(spec, sch, t, "omega")
    assert rep.mean == pytest.approx(-1.0 / math.sqrt(2.0), rel=1e-14)
    assert rep.variance_estimator == pytest.approx(1.0 / LN2 ** 2,
                                                   rel=1e-12)
    assert rep.variance_estimator == pytest.approx(2.081368981005609,
                                                   rel=1e-12)
    # against the noise-free benchmark 1/(dE^2 t^2 / w^2) the dephased
    # readout is worse by exactly (pi/ln2)^2
    classical = 1.0 / (spec.delta_e ** 2 * t * t)
    penalty = rep.variance_estimator / classical
    assert penalty == pytest.approx((math.pi / LN2) ** 2, rel=1e-12)
    assert penalty == pytest.approx(20.54228845522383, rel=1e-12)


def test_omega_saturation_composes_variance_and_qfi():
    spec = CatSpec(delta_e=2.0, delta_l=2.0, omega=1.0)
    sch = NoiseSchedule.constant(0.15)
    t = 0.7
    ratio = saturation_ratio(spec, sch, t, "omega")
    rep = estimator_variance(spec, sch, t, "omega")
    f = qfi_cat(spec, sch, t, "omega").value
    assert ratio == pytest.approx(rep.variance_estimator * f, rel=1e-14)
    assert ratio >= 1.0


# ----------------------------------------------------- observables on models

def test_parity_observable_reproduces_cat_signal():
    # full 4-dimensional network run, measured with the product-sigma_x
    # parity: must match the two-branch closed form
    model = build_sensor_model("qubit_network", 2, omega=1.0)
    obs = optimal_observable(model)
    assert obs.kind == "parity"
    sch = NoiseSchedule.constant(0.2)
    t = 0.9
    run = EvolutionSpec(model=model, schedule=sch, t_final=t, dt=5e-4)
    rho = evolve_lindblad_numeric(run, cat_initial_state(model))
    mean, var = operator_expectation(obs.operator, rho)
    spec = CatSpec(delta_e=2.0, delta_l=2.0, omega=1.0)
    closed = observable_expectation(spec, sch, t)
    assert mean == pytest.approx(closed.mean, abs=1e-10)
    assert var == pytest.approx(closed.variance_o, abs=1e-10)


def rotated_two_level_model():
    # h = U diag(-1, 1) U^dag in a fixed complex frame: the branches are
    # eigenvectors of h, not computational states
    c, s = math.cos(0.7), math.sin(0.7) * np.exp(0.4j)
    u = np.array([[c, -np.conj(s)], [s, c]])
    h = Operator((u * [-1.0, 1.0]) @ u.conj().T, hermitian=True)
    return build_sensor_model("custom", 2, omega=1.0, h=h)


@pytest.mark.parametrize("make", [
    lambda: build_sensor_model("photonic_two_mode", 2, omega=1.0),
    rotated_two_level_model], ids=["photonic", "rotated_custom"])
def test_branch_swap_observable_on_photonic_model(make):
    model = make()
    obs = optimal_observable(model)
    assert obs.kind == "branch_swap"
    sch = NoiseSchedule.constant(0.2)
    t = 0.9
    run = EvolutionSpec(model=model, schedule=sch, t_final=t, dt=5e-4)
    rho = evolve_lindblad_numeric(run, cat_initial_state(model))
    mean, _ = operator_expectation(obs.operator, rho)
    spec = CatSpec(delta_e=2.0, delta_l=2.0, omega=1.0)
    assert mean == pytest.approx(observable_expectation(spec, sch, t).mean,
                                 abs=1e-10)


def test_parity_is_the_bit_complement_exchange():
    model = build_sensor_model("qubit_network", 3, omega=1.0)
    want = np.zeros((8, 8), dtype=complex)
    for b in range(8):
        want[b, 7 - b] = 1.0
    assert np.array_equal(optimal_observable(model).operator.matrix, want)


def test_optimal_observable_rejects_big_custom_models():
    from dephasor import Operator
    h = Operator(np.diag([-1.0, 0.0, 1.0]).astype(complex), hermitian=True)
    model = build_sensor_model("custom", 3, omega=1.0, h=h)
    with pytest.raises(ValidationError):
        optimal_observable(model)
