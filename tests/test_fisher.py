"""Fisher information: eigenbasis route, closed forms, bounds."""

import math

import numpy as np
import pytest

from dephasor import (CatSpec, NoiseSchedule, NumericalContractError,
                      Operator, ValidationError, branch_model,
                      build_sensor_model, cat_initial_state)
from dephasor.fisher import (law_at, qfi_cat, qfi_closed, qfi_law,
                             qfi_lower_bound, ratio_law,
                             sld_and_qfi, state_derivative)

from conftest import (evolved_branch_state, exact_cat_state, fd_qfi_time,
                      framed, haar_unitary, numeric_qfi, rel)

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
    drho = state_derivative(model, sch, rho, t, "time")
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
    drho = state_derivative(model, sch, rho, 0.4, "time")
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
    exact = qfi_cat(spec, sch, t, "time").value
    report = numeric_qfi(model, sch, rho, t, "time")
    assert rel(exact, report.value) < 5e-11


@pytest.mark.parametrize("sch", SCHEDULES)
@pytest.mark.parametrize("t", [0.35, 1.0])
def test_freq_qfi_closed_form_matches_sld_route(sch, t):
    spec = CatSpec(delta_e=2.0, delta_l=2.0, omega=1.0)
    model, rho = evolved_branch_state(spec, sch, t)
    exact = qfi_cat(spec, sch, t, "omega").value
    report = numeric_qfi(model, sch, rho, t, "omega")
    assert rel(exact, report.value) < 5e-11


def test_time_qfi_against_finite_difference_states():
    # fully independent: four extra integrations, no analytic derivative
    spec = CatSpec(delta_e=2.0, delta_l=2.0, omega=1.0)
    sch = NoiseSchedule.constant(0.1)
    fd = fd_qfi_time(spec, sch, 1.0)
    exact = qfi_cat(spec, sch, 1.0, "time").value
    assert rel(fd, exact) < 1e-7


def test_time_qfi_frozen_spot():
    # delta_e = delta_l = 2, constant gamma = 0.1, t = 1
    spec = CatSpec(delta_e=2.0, delta_l=2.0, omega=1.0)
    sch = NoiseSchedule.constant(0.1)
    value = qfi_cat(spec, sch, 1.0, "time").value
    x = 2.0 * 4.0 * 0.1
    by_hand = math.exp(-x) * (4.0 + 0.01 * 16.0 / (-math.expm1(-x)))
    assert value == pytest.approx(by_hand, abs=1e-15)
    assert value == pytest.approx(1.9278704518154612, abs=1e-14)


def test_freq_qfi_frozen_spot():
    spec = CatSpec(delta_e=2.0, delta_l=2.0, omega=1.0)
    sch = NoiseSchedule.constant(0.1)
    value = qfi_cat(spec, sch, 1.0, "omega").value
    x = 2.0 * 4.0 * 0.1
    by_hand = 4.0 * math.exp(-x) * (4.0 * 4.0 * 0.01 / (-math.expm1(-x))
                                    + 1.0)
    assert value == pytest.approx(by_hand, abs=1e-15)
    assert value == pytest.approx(2.3195342378551866, abs=1e-14)


def test_time_qfi_noise_free_reduces_to_baseline():
    spec = CatSpec(delta_e=3.0, delta_l=1.0, omega=1.0)
    quiet = NoiseSchedule.constant(0.0)
    assert qfi_cat(spec, quiet, 2.0, "time").value == pytest.approx(9.0)
    assert qfi_closed(spec).value == pytest.approx(9.0)


def test_freq_qfi_noise_free_reduces_to_baseline():
    spec = CatSpec(delta_e=3.0, delta_l=3.0, omega=1.5)
    quiet = NoiseSchedule.constant(0.0)
    t = 0.8
    expect = 9.0 * t * t / 1.5 ** 2
    assert qfi_cat(spec, quiet, t, "omega").value == pytest.approx(expect)
    assert qfi_closed(spec, t=t, parameter="omega").value == pytest.approx(
        expect)


def test_time_qfi_divergence_at_hard_onset():
    # a constant rate switching on exactly at the evaluation time makes
    # the noise term 0/0; the report flags infinity instead of raising
    spec = CatSpec(delta_e=2.0, delta_l=2.0, omega=1.0)
    report = qfi_cat(spec, NoiseSchedule.constant(0.5, t0=1.0), 1.0,
                     "time")
    assert math.isinf(report.value)
    assert report.diverged
    # a ramp starts at rate zero, no divergence
    ramp = qfi_cat(spec, NoiseSchedule.linear_ramp(0.5, t0=1.0), 1.0,
                   "time")
    assert ramp.value == pytest.approx(4.0)
    assert not ramp.diverged


@pytest.mark.parametrize("t", [1e-160, 1e-170, 1e-250, 1e-300])
def test_freq_qfi_survives_the_underflow_of_its_baseline(t):
    # F = 4 e^{-8t} (16 t^2 / (1 - e^{-8t}) + t^2), about 8t, while the
    # baseline (dE t / w)^2 it is formed on is subnormal or 0
    spec = CatSpec(delta_e=2.0, delta_l=2.0, omega=1.0)
    value = qfi_cat(spec, NoiseSchedule.constant(1.0), t, "omega").value
    assert value == pytest.approx(8.0 * t, rel=1e-12, abs=0.0)


def test_freq_qfi_requires_energy_dephasing():
    spec = CatSpec(delta_e=2.0, delta_l=1.0, omega=1.0)
    with pytest.raises(ValidationError, match="energy dephasing"):
        qfi_cat(spec, NoiseSchedule.constant(0.1), 1.0, "omega")
    model = branch_model(spec)
    rho = cat_initial_state(model)
    with pytest.raises(ValidationError, match="energy dephasing"):
        state_derivative(model, NoiseSchedule.constant(0.1), rho, 1.0,
                         "omega")


# ------------------------------------------------------------------- bounds

def test_time_bound_doubles_into_the_qfi_of_a_pure_state():
    # for a commuting model the time bound is tr[(d rho)^2], and for a
    # pure state twice that is the QFI
    spec = CatSpec(delta_e=2.0, delta_l=1.0, omega=1.0)
    model = branch_model(spec)
    sch = NoiseSchedule.constant(0.0)
    rho = exact_cat_state(model, sch, 0.5)
    drho = state_derivative(model, sch, rho, 0.5, "time")
    bound = qfi_lower_bound(model, sch, rho, 0.5, "time")
    assert bound.value == pytest.approx(
        float(np.sum(np.abs(np.asarray(drho)) ** 2)), rel=1e-12)
    _, exact = sld_and_qfi(rho, drho, parameter="time")
    assert 2.0 * bound.value == pytest.approx(exact.value, rel=1e-12)


@pytest.mark.parametrize("sch", SCHEDULES)
@pytest.mark.parametrize("t", [0.3, 0.9, 1.8])
def test_commutator_bounds_never_exceed_qfi(sch, t):
    spec = CatSpec(delta_e=2.0, delta_l=2.0, omega=1.0)
    model, rho = evolved_branch_state(spec, sch, t, dt=1e-3)
    tb = qfi_lower_bound(model, sch, rho, t, "time").value
    fb = qfi_lower_bound(model, sch, rho, t, "omega").value
    assert tb <= qfi_cat(spec, sch, t, "time").value * (1.0 + 1e-9)
    assert fb <= qfi_cat(spec, sch, t, "omega").value * (1.0 + 1e-9)


def test_bounds_frozen_spot():
    # delta_e = delta_l = 2, constant gamma = 0.1, t = 1; exact values
    # via |rho01| = e^{-0.4}/2
    spec = CatSpec(delta_e=2.0, delta_l=2.0, omega=1.0)
    sch = NoiseSchedule.constant(0.1)
    model, rho = evolved_branch_state(spec, sch, 1.0, dt=2e-4)
    tb = qfi_lower_bound(model, sch, rho, 1.0, "time").value
    fb = qfi_lower_bound(model, sch, rho, 1.0, "omega").value
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
        qfi_lower_bound(model, NoiseSchedule.constant(0.1), rho, 1.0,
                        "omega")


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


def haar_energy_model(omega):
    """A 4-level custom model, L = H, in a seeded Haar-random frame."""
    q = haar_unitary(np.random.default_rng(11), 4)
    return build_sensor_model("custom", 4, omega, h=Operator(
        framed(q, np.array([-1.0, 0.3, 0.5, 1.0])), hermitian=True))


@pytest.mark.parametrize("build", [
    lambda w: build_sensor_model("qubit_network", 2, w), haar_energy_model,
], ids=["qubit-network", "haar-custom"])
@pytest.mark.parametrize("parameter", ["time", "omega"])
def test_state_derivative_matches_exact_flow_difference(build, parameter):
    # -i a [H, rho] - b [L, [L, rho]] against a central difference of the
    # exact flow: in t, or in omega by rebuilding the model at w +- h,
    # which moves H = w h and L = w h together
    sch = NoiseSchedule.linear_ramp(0.8, t0=0.1)
    t, w, h = 0.7, 1.3, 1e-5
    model = build(w)
    if parameter == "time":
        plus, minus = (exact_cat_state(model, sch, t + s) for s in (h, -h))
    else:
        plus, minus = (exact_cat_state(build(w + s), sch, t)
                       for s in (h, -h))
    fd = (plus.matrix - minus.matrix) / (2.0 * h)
    got = np.asarray(state_derivative(
        model, sch, exact_cat_state(model, sch, t), t, parameter))
    assert np.max(np.abs(fd)) > 0.1
    assert np.max(np.abs(got - fd)) < 1e-8


def test_time_derivative_matches_trajectory_difference():
    # equation-of-motion derivative vs a central difference of the
    # integrated flow
    spec = CatSpec(delta_e=2.0, delta_l=1.0, omega=1.0)
    sch = NoiseSchedule.linear_ramp(0.8, t0=0.1)
    t, h = 0.7, 1e-5
    model, rho = evolved_branch_state(spec, sch, t, dt=2e-4)
    ana = state_derivative(model, sch, rho, t, "time")
    plus = exact_cat_state(model, sch, t + h)
    minus = exact_cat_state(model, sch, t - h)
    fd = (plus.matrix - minus.matrix) / (2.0 * h)
    assert np.max(np.abs(ana - fd)) < 1e-8


@pytest.mark.parametrize("law", [qfi_law, ratio_law])
@pytest.mark.parametrize("parameter", ["time", "omega"])
def test_laws_take_an_empty_time_array(law, parameter):
    spec = CatSpec(delta_e=2.0, delta_l=2.0, omega=1.5)
    got = law_at(law, spec, NoiseSchedule.constant(0.3), np.array([]),
                 parameter)
    assert got.shape == (0,)


RANGE_CASES = [  # (rate, dose, t, dE = dL)
    (1e200, 1e200, 1.0, 2.0),    # e^{-x} underflows, rate^2 overflows
    (1.0, 1.0, 1e-200, 2.0),     # (dose / t)^2 overflows, t^2 underflows
    (1e160, 100.0, 1.0, 2.0),    # e^{-x} underflows, rate^2 does not
    (1e100, 1e100, 1.0, 2.0),    # e^{-x} underflows, the true value is 0
    (4e152, 1e-3, 1.0, 2.0),     # the time QFI overflows, its ratio not
    (1e-9, 1e-318, 1e-155, 0.3),  # a subnormal dose, and x
    (1e-5, 5e-324, 1e-162, 0.25),  # x underflows to 0 while Gamma > 0
]


@pytest.mark.parametrize("rate, dose, t, gap", RANGE_CASES, ids=[
    "-".join(map(str, case[:3])) for case in RANGE_CASES])
@pytest.mark.parametrize("parameter", ["time", "omega"])
def test_closed_forms_past_the_float_range_match_high_precision(
        rate, dose, t, gap, parameter):
    # the plain laws in 50-digit arithmetic: where e^{-x} or a rate term
    # leaves the float range, the product is still the rounded value; a
    # value past the float range is NumericalContractError
    mp = pytest.importorskip("mpmath").mp
    mp.dps = 50
    spec = CatSpec(delta_e=gap, delta_l=gap, omega=1.5)
    de, dl, w = (mp.mpf(v) for v in (gap, gap, 1.5))
    g, dose_, t_ = (mp.mpf(v) for v in (rate, dose, t))
    x = 2 * dl ** 2 * dose_
    decay = mp.exp(-x)
    if parameter == "time":
        want = decay * (de ** 2 + g ** 2 * dl ** 4 / -mp.expm1(-x))
        base = de ** 2
    else:
        base = (de / w) ** 2 * t_ ** 2
        want = (de / w) ** 2 * decay * (4 * de ** 2 * dose_ ** 2
                                         / -mp.expm1(-x) + t_ ** 2)
    for law, value in ((qfi_law, want), (ratio_law, want / base)):
        if value > np.finfo(float).max:  # past the float range
            with pytest.raises(NumericalContractError, match="non-finite"):
                law(spec, parameter, rate, dose, t)
        else:
            got = law(spec, parameter, rate, dose, t)
            assert math.isfinite(got)
            assert got == pytest.approx(float(value), rel=1e-12, abs=1e-300)


def test_package_exports_resolve_once():
    import dephasor
    import dephasor.fisher as fisher
    names = dephasor.__all__
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(dephasor, n)] == []
    # one derivative and one bound serve both parameters
    stale = [n for n in dir(fisher) if n.startswith("drho_") or (
        n.endswith("_lower_bound") and n != "qfi_lower_bound")]
    assert stale == []
    assert {"state_derivative", "qfi_lower_bound",
            "derivative_coefficients"} <= set(names)
    # one cat-state QFI report serves both parameters
    assert "qfi_cat" in names
    assert [n for n in dir(fisher) + dir(dephasor)
            if n in ("qfi_time_cat", "qfi_freq_cat")] == []
