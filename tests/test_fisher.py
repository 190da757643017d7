"""Fisher information: eigenbasis route, closed forms, bounds."""

import math

import numpy as np
import pytest

from dephasor import (CatSpec, NoiseSchedule, Operator, ValidationError,
                      branch_model, build_sensor_model, cat_initial_state)
from dephasor.fisher import (drho_domega, drho_dt, qfi_closed, qfi_freq_cat,
                             qfi_freq_lower_bound, qfi_quadratic_bound,
                             qfi_time_cat, qfi_time_lower_bound, sld_and_qfi)

from conftest import (evolved_branch_state, exact_cat_state, fd_qfi_time,
                      numeric_qfi, rel)

SCHEDULES = [
    NoiseSchedule.constant(0.1),
    NoiseSchedule.constant(0.4, t0=0.2),
    NoiseSchedule.linear_ramp(1.0, t0=0.1),
    NoiseSchedule.piecewise_linear([(0.0, 0.0), (0.3, 0.6), (0.7, 0.2)]),
]


# ------------------------------------------------------------ SLD machinery

def test_sld_defining_equation():
    spec = CatSpec(delta_e=2.0, delta_l=1.0, omega=1.0)
    sch = NoiseSchedule.constant(0.3)
    t = 0.9
    model, rho = evolved_branch_state(spec, sch, t)
    drho = drho_dt(model, sch, rho, t)
    sld, report = sld_and_qfi(rho, drho, parameter="time")
    lam = sld.sld.matrix
    resid = 0.5 * (lam @ rho.matrix + rho.matrix @ lam) - drho
    assert np.max(np.abs(resid)) < 1e-12
    assert report.value >= 0.0
    assert report.method == "numeric_sld"


def test_sld_rejects_bad_drho():
    spec = CatSpec(delta_e=2.0, delta_l=1.0, omega=1.0)
    model = branch_model(spec)
    rho = cat_initial_state(model)
    with pytest.raises(ValidationError, match="Hermitian"):
        sld_and_qfi(rho, np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValidationError, match="traceless"):
        sld_and_qfi(rho, np.eye(2, dtype=complex))
    with pytest.raises(ValidationError, match="dimension"):
        sld_and_qfi(rho, np.zeros((3, 3), dtype=complex))
    with pytest.raises(ValidationError, match="parameter"):
        sld_and_qfi(rho, np.zeros((2, 2), dtype=complex), parameter="phase")


def test_sld_truncation_counts_dark_levels():
    # pure cat state embedded in a 3-level model is rank 1: the two
    # dark eigenvalues of rho must be dropped, not divided by
    h = Operator(np.diag([-1.0, 0.3, 1.0]).astype(complex), hermitian=True)
    model = build_sensor_model("custom", 3, omega=1.0, h=h,
                               branches=(0, 2))
    sch = NoiseSchedule.constant(0.0)
    rho = exact_cat_state(model, sch, 0.4)
    drho = drho_dt(model, sch, rho, 0.4)
    sld, report = sld_and_qfi(rho, drho, parameter="time")
    assert report.diagnostics["truncated_rank"] == 2
    # pure-state unitary QFI is 4 var(H) = (e_hi - e_lo)^2
    assert report.value == pytest.approx(4.0, rel=1e-11)


# -------------------------------------------------- closed forms vs numeric

@pytest.mark.parametrize("sch", SCHEDULES)
@pytest.mark.parametrize("t", [0.35, 1.0])
def test_time_qfi_closed_form_matches_sld_route(sch, t):
    spec = CatSpec(delta_e=2.0, delta_l=1.0, omega=1.0)
    model, rho = evolved_branch_state(spec, sch, t)
    exact = qfi_time_cat(spec, sch, t).value
    report = numeric_qfi(model, sch, rho, t, "time")
    assert rel(exact, report.value) < 5e-11


@pytest.mark.parametrize("sch", SCHEDULES)
@pytest.mark.parametrize("t", [0.35, 1.0])
def test_freq_qfi_closed_form_matches_sld_route(sch, t):
    spec = CatSpec(delta_e=2.0, delta_l=2.0, omega=1.0)
    model, rho = evolved_branch_state(spec, sch, t)
    exact = qfi_freq_cat(spec, sch, t).value
    report = numeric_qfi(model, sch, rho, t, "omega")
    assert rel(exact, report.value) < 5e-11


def test_time_qfi_against_finite_difference_states():
    # fully independent: four extra integrations, no analytic derivative
    spec = CatSpec(delta_e=2.0, delta_l=2.0, omega=1.0)
    sch = NoiseSchedule.constant(0.1)
    fd = fd_qfi_time(spec, sch, 1.0)
    exact = qfi_time_cat(spec, sch, 1.0).value
    assert rel(fd, exact) < 1e-7


def test_time_qfi_frozen_spot():
    # delta_e = delta_l = 2, constant gamma = 0.1, t = 1
    spec = CatSpec(delta_e=2.0, delta_l=2.0, omega=1.0)
    sch = NoiseSchedule.constant(0.1)
    value = qfi_time_cat(spec, sch, 1.0).value
    x = 2.0 * 4.0 * 0.1
    by_hand = math.exp(-x) * (4.0 + 0.01 * 16.0 / (-math.expm1(-x)))
    assert value == pytest.approx(by_hand, abs=1e-15)
    assert value == pytest.approx(1.9278704518154612, abs=1e-14)


def test_freq_qfi_frozen_spot():
    spec = CatSpec(delta_e=2.0, delta_l=2.0, omega=1.0)
    sch = NoiseSchedule.constant(0.1)
    value = qfi_freq_cat(spec, sch, 1.0).value
    x = 2.0 * 4.0 * 0.1
    by_hand = 4.0 * math.exp(-x) * (4.0 * 4.0 * 0.01 / (-math.expm1(-x))
                                    + 1.0)
    assert value == pytest.approx(by_hand, abs=1e-15)
    assert value == pytest.approx(2.3195342378551866, abs=1e-14)


def test_time_qfi_noise_free_reduces_to_baseline():
    spec = CatSpec(delta_e=3.0, delta_l=1.0, omega=1.0)
    quiet = NoiseSchedule.constant(0.0)
    assert qfi_time_cat(spec, quiet, 2.0).value == pytest.approx(9.0)
    assert qfi_closed(spec).value == pytest.approx(9.0)


def test_freq_qfi_noise_free_reduces_to_baseline():
    spec = CatSpec(delta_e=3.0, delta_l=3.0, omega=1.5)
    quiet = NoiseSchedule.constant(0.0)
    t = 0.8
    expect = 9.0 * t * t / 1.5 ** 2
    assert qfi_freq_cat(spec, quiet, t).value == pytest.approx(expect)
    assert qfi_closed(spec, t=t, parameter="omega").value == pytest.approx(
        expect)


def test_time_qfi_divergence_at_hard_onset():
    # a constant rate switching on exactly at the evaluation time makes
    # the noise term 0/0; the report flags infinity instead of raising
    spec = CatSpec(delta_e=2.0, delta_l=2.0, omega=1.0)
    report = qfi_time_cat(spec, NoiseSchedule.constant(0.5, t0=1.0), 1.0)
    assert math.isinf(report.value)
    assert report.diverged
    # a ramp starts at rate zero, no divergence
    ramp = qfi_time_cat(spec, NoiseSchedule.linear_ramp(0.5, t0=1.0), 1.0)
    assert ramp.value == pytest.approx(4.0)
    assert not ramp.diverged


def test_freq_qfi_requires_energy_dephasing():
    spec = CatSpec(delta_e=2.0, delta_l=1.0, omega=1.0)
    with pytest.raises(ValidationError, match="energy dephasing"):
        qfi_freq_cat(spec, NoiseSchedule.constant(0.1), 1.0)
    model = branch_model(spec)
    rho = cat_initial_state(model)
    with pytest.raises(ValidationError, match="energy dephasing"):
        drho_domega(model, NoiseSchedule.constant(0.1), rho, 1.0)


# ------------------------------------------------------------------- bounds

def test_quadratic_bound_doubles_into_pure_equality():
    spec = CatSpec(delta_e=2.0, delta_l=1.0, omega=1.0)
    model = branch_model(spec)
    sch = NoiseSchedule.constant(0.0)
    rho = exact_cat_state(model, sch, 0.5)
    drho = drho_dt(model, sch, rho, 0.5)
    bound = qfi_quadratic_bound(rho, drho)
    assert bound.diagnostics["pure_state_equality"]
    _, exact = sld_and_qfi(rho, drho, parameter="time")
    assert bound.value == pytest.approx(exact.value, rel=1e-12)


def test_quadratic_bound_stays_below_qfi_when_mixed():
    spec = CatSpec(delta_e=2.0, delta_l=1.0, omega=1.0)
    sch = NoiseSchedule.constant(0.3)
    for t in (0.4, 1.0, 2.0):
        model, rho = evolved_branch_state(spec, sch, t)
        drho = drho_dt(model, sch, rho, t)
        bound = qfi_quadratic_bound(rho, drho)
        assert not bound.diagnostics["pure_state_equality"]
        _, exact = sld_and_qfi(rho, drho, parameter="time")
        assert bound.value <= exact.value * (1.0 + 1e-12)


@pytest.mark.parametrize("sch", SCHEDULES)
@pytest.mark.parametrize("t", [0.3, 0.9, 1.8])
def test_commutator_bounds_never_exceed_qfi(sch, t):
    spec = CatSpec(delta_e=2.0, delta_l=2.0, omega=1.0)
    model, rho = evolved_branch_state(spec, sch, t, dt=1e-3)
    tb = qfi_time_lower_bound(model, sch, rho, t).value
    fb = qfi_freq_lower_bound(model, sch, rho, t).value
    assert tb <= qfi_time_cat(spec, sch, t).value * (1.0 + 1e-9)
    assert fb <= qfi_freq_cat(spec, sch, t).value * (1.0 + 1e-9)


def test_bounds_frozen_spot():
    # delta_e = delta_l = 2, constant gamma = 0.1, t = 1; exact values
    # via |rho01| = e^{-0.4}/2
    spec = CatSpec(delta_e=2.0, delta_l=2.0, omega=1.0)
    sch = NoiseSchedule.constant(0.1)
    model, rho = evolved_branch_state(spec, sch, 1.0, dt=2e-4)
    tb = qfi_time_lower_bound(model, sch, rho, 1.0).value
    fb = qfi_freq_lower_bound(model, sch, rho, 1.0).value
    coher_sq = (0.5 * math.exp(-0.4)) ** 2
    tb_exact = 2.0 * coher_sq * (4.0 + 0.01 * 16.0)
    fb_exact = 2.0 * coher_sq * (4.0 + 4.0 * 0.01 * 16.0)
    assert tb == pytest.approx(tb_exact, rel=1e-9)
    assert fb == pytest.approx(fb_exact, rel=1e-9)
    assert tb_exact == pytest.approx(0.9346042453638188, rel=1e-12)
    assert fb_exact == pytest.approx(1.0424431967519516, rel=1e-12)


def test_freq_bound_requires_energy_dephasing():
    spec = CatSpec(delta_e=2.0, delta_l=1.0, omega=1.0)
    model = branch_model(spec)
    rho = cat_initial_state(model)
    with pytest.raises(ValidationError, match="energy dephasing"):
        qfi_freq_lower_bound(model, NoiseSchedule.constant(0.1), rho, 1.0)


# ---------------------------------------------------------------- baselines

def test_closed_baseline_on_network_state():
    model = build_sensor_model("qubit_network", 3, omega=1.0)
    rho = cat_initial_state(model)
    report = qfi_closed(model, rho, parameter="time")
    assert report.value == pytest.approx(9.0, abs=1e-12)


def test_closed_baseline_rejects_mixed_state():
    spec = CatSpec(delta_e=2.0, delta_l=2.0, omega=1.0)
    model = branch_model(spec)
    rho = exact_cat_state(model, NoiseSchedule.constant(0.5), 1.0)
    with pytest.raises(ValidationError, match="pure"):
        qfi_closed(model, rho, parameter="time")


def test_drho_dt_matches_trajectory_difference():
    # equation-of-motion derivative vs a central difference of the
    # integrated flow
    spec = CatSpec(delta_e=2.0, delta_l=1.0, omega=1.0)
    sch = NoiseSchedule.linear_ramp(0.8, t0=0.1)
    t, h = 0.7, 1e-5
    model, rho = evolved_branch_state(spec, sch, t, dt=2e-4)
    ana = drho_dt(model, sch, rho, t)
    plus = exact_cat_state(model, sch, t + h)
    minus = exact_cat_state(model, sch, t - h)
    fd = (plus.matrix - minus.matrix) / (2.0 * h)
    assert np.max(np.abs(ana - fd)) < 1e-8
