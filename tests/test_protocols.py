"""Advantage ratios, operating points, heatmap scans, optimization."""

import math
import warnings

import numpy as np
import pytest

from dephasor import (CatSpec, NoiseSchedule, NumericalContractError,
                      ValidationError, advantage_ratio, constant_rate_gain,
                      default_fig_grid, heatmap_scan, maximize_ratio,
                      optimal_time_constant, optimal_window_ramp,
                      ramp_window_gain)
from dephasor.fisher import qfi_cat, qfi_closed
from dephasor.protocols import COARSE_POINTS, MAX_ROUNDS, GridSpec

LN2 = math.log(2.0)


# ------------------------------------------------------------ ratio basics

@pytest.mark.parametrize("parameter", ["time", "omega"])
def test_ratio_is_qfi_quotient(parameter):
    spec = CatSpec(delta_e=2.0, delta_l=2.0, omega=1.0)
    sch = NoiseSchedule.constant(0.3)
    t = 0.8
    ratio = advantage_ratio(spec, sch, t, parameter)
    if parameter == "time":
        open_f = qfi_cat(spec, sch, t, "time").value
        base = qfi_closed(spec, parameter="time").value
    else:
        open_f = qfi_cat(spec, sch, t, "omega").value
        base = qfi_closed(spec, t=t, parameter="omega").value
    assert ratio == pytest.approx(open_f / base, rel=1e-14)


def test_ratio_is_one_without_noise():
    spec = CatSpec(delta_e=2.0, delta_l=2.0, omega=1.0)
    quiet = NoiseSchedule.constant(0.0)
    assert advantage_ratio(spec, quiet, 1.0, "time") == 1.0
    assert advantage_ratio(spec, quiet, 1.0, "omega") == 1.0


def test_ratio_tends_to_one_as_rate_vanishes():
    spec = CatSpec(delta_e=2.0, delta_l=2.0, omega=1.0)
    prev_gap = math.inf
    for g in (1e-2, 1e-4, 1e-6, 1e-8):
        r = advantage_ratio(spec, NoiseSchedule.constant(g), 1.0, "time")
        gap = abs(r - 1.0)
        assert gap < prev_gap
        prev_gap = gap
    assert prev_gap < 1e-7


def test_ratio_divergence_at_hard_onset():
    spec = CatSpec(delta_e=2.0, delta_l=2.0, omega=1.0)
    sch = NoiseSchedule.constant(0.5, t0=1.0)
    assert math.isinf(advantage_ratio(spec, sch, 1.0, "time"))


def test_underflowed_dose_is_not_the_onset_divergence():
    # a subnormal ramp slope: the dose 1/2 gdot t^2 rounds to 0 after the
    # onset, where the rate has no jump, so the ratio takes its zero-dose
    # limit 1, not the onset's inf
    spec = CatSpec(delta_e=1.0, delta_l=1.0, omega=1.0)
    ramp = NoiseSchedule.linear_ramp(5e-324)
    assert advantage_ratio(spec, ramp, 1.5, "time") == 1.0
    assert advantage_ratio(spec, ramp, np.array([1.0, 1.5]),
                           "time").tolist() == [1.0, 1.0]
    report = maximize_ratio(spec, "time",
                            {"t": (1.0, 2.0), "gamma_dot": 5e-324},
                            schedule_kind="linear_ramp")
    assert report.best_ratio == 1.0


def test_ratio_overflow_raises_not_nan():
    spec = CatSpec(delta_e=2.0, delta_l=2.0, omega=1.0)
    # x = 8, and e^{-x} g^2 ~ 1e396 (time) or e^{-x} (dose / t)^2 (omega)
    # lies past the float range
    with pytest.raises(NumericalContractError, match="non-finite"):
        advantage_ratio(spec, NoiseSchedule.constant(1e200), 1e-200, "time")
    with pytest.raises(NumericalContractError):
        advantage_ratio(spec, NoiseSchedule.constant(1e200), 1e-200,
                        "omega")
    # e^{-x} underflows where g^2 or (dose / t)^2 overflows: the product
    # is an exact 0, taken from logs, not 0 x inf = NaN
    for rate, parameter in ((1e308, "time"), (1e200, "omega")):
        assert advantage_ratio(spec, NoiseSchedule.constant(rate), 1.0,
                               parameter) == 0.0
    # e^{-8e300} * 17 underflows to an exact 0; no t^2 overflows on the way
    assert advantage_ratio(spec, NoiseSchedule.constant(1.0), 1e300,
                           "omega") == 0.0
    grid = GridSpec(x_name="t", x_min=1e-300, x_max=1e-299, x_steps=3,
                    y_name="gamma", y_min=1e299, y_max=1e300, y_steps=3,
                    scale="log", spec=spec)
    with pytest.raises(NumericalContractError):
        heatmap_scan(grid, "time")


@pytest.mark.parametrize("t", [1e-100, 1e-200, 1e-300])
def test_omega_ratio_at_tiny_time_does_not_underflow(t):
    # Gamma = t, x = 8t: the ratio is e^{-x} (1 + 16 / (1 - e^{-x})),
    # 2/t to leading order; t^2 and Gamma^2 would underflow to 0/0
    spec = CatSpec(delta_e=2.0, delta_l=2.0, omega=1.0)
    ratio = advantage_ratio(spec, NoiseSchedule.constant(1.0), t, "omega")
    assert ratio == pytest.approx(2.0 / t, rel=1e-14)


def test_ratio_validation():
    spec = CatSpec(delta_e=2.0, delta_l=1.0, omega=1.0)
    sch = NoiseSchedule.constant(0.1)
    with pytest.raises(ValidationError, match="parameter"):
        advantage_ratio(spec, sch, 1.0, "phase")
    with pytest.raises(ValidationError, match="energy dephasing"):
        advantage_ratio(spec, sch, 1.0, "omega")
    zero_gap = CatSpec(delta_e=0.0, delta_l=1.0, omega=1.0)
    with pytest.raises(ValidationError, match="energy gap"):
        advantage_ratio(zero_gap, sch, 1.0, "time")


# -------------------------------------------------------- operating points

def test_ramp_window_value_and_threshold():
    spec = CatSpec(delta_e=2.0, delta_l=2.0, omega=1.0)
    res = optimal_window_ramp(spec, gamma_dot=2.0)
    assert res.window == pytest.approx(math.sqrt(LN2 / 8.0), abs=1e-16)
    assert res.window == pytest.approx(0.29435250562886867, abs=1e-16)
    # exact crossing r = 1/(2 ln2): the limit is sqrt(2) ln2 / dE
    assert res.limit == pytest.approx(math.sqrt(2.0) * LN2 / 2.0, abs=1e-16)
    assert res.limit == pytest.approx(0.4901290717342736, abs=1e-16)
    assert res.advantage_possible  # r = 2 > 1/(2 ln2)
    # r below the 1/(2 ln2) threshold flips the flag
    small = optimal_window_ramp(CatSpec(delta_e=2.0, delta_l=1.0,
                                        omega=1.0), gamma_dot=1.0)
    assert not small.advantage_possible  # r = 1/4
    assert small.advantage_possible == (small.window < small.limit)


@pytest.mark.xfail(strict=True,
                   reason="the quoted limit sqrt(2 ln2)/dE encodes the "
                          "crossing r = 1/2; the exact window gain "
                          "1/2 + ln2*r crosses 1 at r = 1/(2 ln2)")
def test_ramp_window_quoted_limit():
    res = optimal_window_ramp(CatSpec(delta_e=2.0, delta_l=2.0, omega=1.0),
                              gamma_dot=2.0)
    assert res.limit == pytest.approx(0.5887050112577373, abs=1e-15)


@pytest.mark.parametrize("gamma_dot", [0.3, 0.6, 0.7, 0.75, 1.0, 2.0, 8.0])
def test_ramp_window_flag_matches_exact_ratio(gamma_dot):
    # r = gamma_dot for dE = dL; r = 0.6 sat between the quoted 1/2 and
    # the exact 0.7213 and was flagged although the ratio there is 0.916
    spec = CatSpec(delta_e=2.0, delta_l=2.0, omega=1.0)
    res = optimal_window_ramp(spec, gamma_dot)
    ratio = advantage_ratio(spec, NoiseSchedule.linear_ramp(gamma_dot),
                            res.window, "time")
    assert ratio == pytest.approx(0.5 + LN2 * gamma_dot, rel=1e-12)
    assert res.advantage_possible == (ratio > 1.0)


def test_matched_time_value_and_threshold():
    spec = CatSpec(delta_e=1.0, delta_l=1.0, omega=1.0)
    res = optimal_time_constant(spec, gamma=1.0)
    assert res.time == pytest.approx(LN2 / 2.0, abs=1e-16)
    assert res.advantage_possible  # 4 > 1/2
    spec2 = CatSpec(delta_e=2.0, delta_l=2.0, omega=1.0)
    res2 = optimal_time_constant(spec2, gamma=0.9)
    assert res2.time == pytest.approx(0.09627044174443684, abs=1e-16)
    assert res2.limit == pytest.approx(math.sqrt(2.0) * LN2 / 2.0, abs=1e-16)
    weak = optimal_time_constant(CatSpec(delta_e=1.0, delta_l=1.0,
                                         omega=1.0), gamma=0.1)
    assert not weak.advantage_possible  # 0.04 < 1/2


def test_operating_point_validation():
    spec = CatSpec(delta_e=2.0, delta_l=2.0, omega=1.0)
    for fn in (optimal_window_ramp, optimal_time_constant,
               ramp_window_gain, constant_rate_gain):
        with pytest.raises(ValidationError):
            fn(spec, 0.0)


def test_constant_rate_gain_is_exact_at_matched_time():
    # the omega-ratio at t = ln2/(2 g dE^2) collapses to 1/2 + 4 g^2 dE^2
    for g, de in ((1.0, 1.0), (0.5, 2.0), (0.9, 2.0), (3.0, 0.7)):
        spec = CatSpec(delta_e=de, delta_l=de, omega=1.0)
        t_star = optimal_time_constant(spec, g).time
        ratio = advantage_ratio(spec, NoiseSchedule.constant(g), t_star,
                                "omega")
        assert ratio == pytest.approx(constant_rate_gain(spec, g),
                                      rel=1e-15)


def test_ramp_window_gain_quotes_linear_form():
    spec = CatSpec(delta_e=2.0, delta_l=2.0, omega=1.0)
    assert ramp_window_gain(spec, 2.0) == pytest.approx(2.5, abs=1e-15)


def test_ramp_window_exact_ratio_carries_ln2():
    # evaluating the decay law at the half-coherence window gives
    # 1/2 + ln2 * r, not the quoted 1/2 + r; both facts are pinned here
    for gdot, de, dl in ((2.0, 2.0, 2.0), (1.0, 1.0, 1.0), (5.0, 2.0, 1.0)):
        spec = CatSpec(delta_e=de, delta_l=dl, omega=1.0)
        win = optimal_window_ramp(spec, gdot)
        sch = NoiseSchedule.linear_ramp(gdot)
        r = gdot * dl * dl / (de * de)
        exact = advantage_ratio(spec, sch, win.window, "time")
        assert exact == pytest.approx(0.5 + LN2 * r, rel=1e-12)
        assert ramp_window_gain(spec, gdot) == pytest.approx(0.5 + r,
                                                             abs=1e-15)
    # r = 2 spot value for the exact ratio
    spec = CatSpec(delta_e=2.0, delta_l=2.0, omega=1.0)
    win = optimal_window_ramp(spec, 2.0)
    exact = advantage_ratio(spec, NoiseSchedule.linear_ramp(2.0),
                            win.window, "time")
    assert exact == pytest.approx(1.8862943611198906, rel=1e-13)


def test_window_gain_onset_invariance():
    # shifting the ramp onset moves the window but not the gain
    spec = CatSpec(delta_e=2.0, delta_l=2.0, omega=1.0)
    gdot = 3.0
    win = optimal_window_ramp(spec, gdot).window
    base = advantage_ratio(spec, NoiseSchedule.linear_ramp(gdot), win,
                           "time")
    shifted = advantage_ratio(spec, NoiseSchedule.linear_ramp(gdot, t0=0.7),
                              0.7 + win, "time")
    assert shifted == pytest.approx(base, rel=1e-13)


# ------------------------------------------------------------------- grids

def test_grid_spec_validation():
    spec = CatSpec(delta_e=2.0, delta_l=2.0, omega=1.0)
    ok = dict(x_name="t", x_min=0.1, x_max=1.0, x_steps=5, y_name="gamma",
              y_min=0.1, y_max=1.0, y_steps=4, scale="log", spec=spec)
    GridSpec(**ok)
    for key, val in (("x_name", "tau"), ("y_name", "kappa"),
                     ("scale", "sqrt"), ("x_steps", 1), ("y_min", 2.0),
                     ("t0", -1.0)):
        bad = dict(ok)
        bad[key] = val
        with pytest.raises(ValidationError):
            GridSpec(**bad)
    with pytest.raises(ValidationError, match="log"):
        GridSpec(**dict(ok, x_min=0.0))


def test_default_grid_shape():
    grid = default_fig_grid()
    assert grid.x_name == "omega_t" and grid.y_name == "gamma"
    assert len(grid.x_values()) == 81
    assert len(grid.y_values()) == 61
    assert grid.scale == "log"
    assert grid.spec.delta_e == 2.0 * grid.spec.omega


def test_heatmap_rows_are_y_major_and_classified():
    spec = CatSpec(delta_e=2.0, delta_l=2.0, omega=1.0)
    grid = GridSpec(x_name="t", x_min=0.05, x_max=2.0, x_steps=4,
                    y_name="gamma", y_min=0.05, y_max=5.0, y_steps=3,
                    scale="log", spec=spec)
    table = heatmap_scan(grid, "time")
    assert len(table.rows) == 12
    xs, ys = grid.x_values(), grid.y_values()
    for i, (x, y, ratio, region) in enumerate(table.rows):
        assert x == pytest.approx(xs[i % 4])
        assert y == pytest.approx(ys[i // 4])
        expect = advantage_ratio(spec, NoiseSchedule.constant(y), x, "time")
        assert ratio == pytest.approx(expect, rel=1e-14)
        assert region == ("enhanced" if ratio >= 1.0 else "hindered")
    assert table.ratios.shape == (3, 4)
    assert table.ratios[2, 3] == table.rows[-1][2]


def test_heatmap_ramp_axis_uses_ramp_schedules():
    spec = CatSpec(delta_e=2.0, delta_l=2.0, omega=1.0)
    grid = GridSpec(x_name="t", x_min=0.1, x_max=1.0, x_steps=3,
                    y_name="gamma_dot", y_min=0.5, y_max=2.0, y_steps=2,
                    scale="linear", spec=spec)
    table = heatmap_scan(grid, "time")
    x, y, ratio, _ = table.rows[0]
    expect = advantage_ratio(spec, NoiseSchedule.linear_ramp(y), x, "time")
    assert ratio == pytest.approx(expect, rel=1e-14)


def test_heatmap_default_grid_has_both_regions():
    table = heatmap_scan(default_fig_grid(), "omega")
    regions = {region for *_, region in table.rows}
    assert regions == {"enhanced", "hindered"}
    assert len(table.rows) == 81 * 61


def test_heatmap_csv_format_and_round_trip():
    spec = CatSpec(delta_e=2.0, delta_l=2.0, omega=1.0)
    grid = GridSpec(x_name="t", x_min=0.1, x_max=1.0, x_steps=3,
                    y_name="gamma", y_min=0.2, y_max=0.8, y_steps=2,
                    scale="linear", spec=spec)
    table = heatmap_scan(grid, "time")
    text = table.to_csv()
    lines = text.splitlines()
    assert lines[0].startswith("# parameter=time")
    assert lines[1] == "x,y,ratio,region"
    assert len(lines) == 2 + 6
    # repr round trip: parsing the text recovers the values bit-exactly
    for line, (x, y, ratio, region) in zip(lines[2:], table.rows):
        fx, fy, fr, reg = line.split(",")
        assert float(fx) == x and float(fy) == y and float(fr) == ratio
        assert reg == region


def test_heatmap_spot_value_three_orders():
    # strong-noise short-time cell: the omega ratio reaches ~3e3;
    # checked against an inline evaluation of the decay law
    spec = CatSpec(delta_e=2.0, delta_l=2.0, omega=1.0)
    ratio = advantage_ratio(spec, NoiseSchedule.constant(100.0), 0.005,
                            "omega")
    gam = 0.5
    x = 2.0 * 4.0 * gam
    by_hand = math.exp(-x) * (1.0 + 4.0 * 4.0 * gam * gam
                              / (0.005 ** 2 * (-math.expm1(-x))))
    assert ratio == pytest.approx(by_hand, rel=1e-12)
    assert ratio == pytest.approx(2985.1959738427363, rel=1e-12)
    assert ratio > 1e3
    # and a hindered point far into the decay
    assert advantage_ratio(spec, NoiseSchedule.constant(5.0), 5.0,
                           "time") < 1.0


# ------------------------------------------------------------ optimization

def test_maximize_matches_dense_grid():
    spec = CatSpec(delta_e=2.0, delta_l=2.0, omega=1.0)
    box = {"t": 0.005, "gamma": (1.0, 200.0)}
    report = maximize_ratio(spec, "omega", box)
    gammas = np.geomspace(1.0, 200.0, 10_000)
    dense = max(advantage_ratio(spec, NoiseSchedule.constant(float(g)),
                                0.005, "omega") for g in gammas)
    assert report.best_ratio >= dense - 1e-9
    assert report.best_ratio == pytest.approx(dense, rel=1e-6)
    assert report.best_ratio == pytest.approx(6476.305573607762, rel=1e-9)
    assert report.best_params["gamma"] == pytest.approx(39.84, rel=5e-3)
    assert report.best_params["t"] == 0.005
    assert report.advantage
    assert report.method == "grid_refine"


def test_maximize_is_stationary():
    spec = CatSpec(delta_e=2.0, delta_l=2.0, omega=1.0)
    report = maximize_ratio(spec, "omega", {"t": 0.005,
                                            "gamma": (1.0, 200.0)})
    g = report.best_params["gamma"]
    for shift in (-1e-4, 1e-4):
        nearby = advantage_ratio(spec, NoiseSchedule.constant(g * (1 + shift)),
                                 0.005, "omega")
        assert nearby <= report.best_ratio * (1.0 + 1e-6)


def test_maximize_two_ranged_axes():
    spec = CatSpec(delta_e=2.0, delta_l=2.0, omega=1.0)
    report = maximize_ratio(spec, "time",
                            {"t": (0.01, 1.0), "gamma_dot": (0.5, 50.0)},
                            schedule_kind="linear_ramp")
    # exact optimum on this box must beat any single coarse cell
    assert report.best_ratio > 1.0
    assert {"t", "gamma_dot"} <= set(report.best_params)
    assert report.iterations >= 64 * 64


def test_maximize_hindered_box_reports_no_advantage():
    spec = CatSpec(delta_e=2.0, delta_l=2.0, omega=1.0)
    report = maximize_ratio(spec, "time", {"t": 5.0, "gamma": (1.0, 10.0)})
    assert report.best_ratio < 1.0
    assert not report.advantage
    assert report.to_dict()["advantage"] is False


def test_maximize_box_validation():
    spec = CatSpec(delta_e=2.0, delta_l=2.0, omega=1.0)
    with pytest.raises(ValidationError, match="box"):
        maximize_ratio(spec, "time", {"t": 0.1, "gamma_dot": (1.0, 2.0)})
    with pytest.raises(ValidationError, match="range"):
        maximize_ratio(spec, "time", {"t": 0.1, "gamma": 1.0})
    with pytest.raises(ValidationError, match="bad range"):
        maximize_ratio(spec, "time", {"t": 0.1, "gamma": (2.0, 1.0)})
    with pytest.raises(ValidationError, match="schedule kind"):
        maximize_ratio(spec, "time", {"t": 0.1, "gamma": (1.0, 2.0)},
                       schedule_kind="quench")


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
def test_maximize_rejects_bad_fixed_values(bad):
    spec = CatSpec(delta_e=2.0, delta_l=2.0, omega=1.0)
    with pytest.raises(ValidationError, match="nonnegative and finite"):
        maximize_ratio(spec, "time", {"t": bad, "gamma": (1.0, 2.0)})
    with pytest.raises(ValidationError, match="nonnegative and finite"):
        maximize_ratio(spec, "time", {"t": (0.1, 1.0), "gamma": bad})
    with pytest.raises(ValidationError, match="nonnegative and finite"):
        maximize_ratio(spec, "time", {"t": (0.1, 1.0), "gamma": 1.0},
                       t0=bad)


def test_maximize_stops_a_bracket_pinned_at_zero_after_the_round_cap():
    # gamma = 0: the ratio is 1 everywhere, the first cell t = 0 wins
    # every round, and [0, t1] never gets within REL_TOL
    spec = CatSpec(delta_e=2.0, delta_l=2.0, omega=1.0)
    report = maximize_ratio(spec, "time", {"t": (0.0, 5.0), "gamma": 0.0})
    assert report.best_ratio == 1.0
    assert report.best_params == {"gamma": 0.0, "t": 0.0}
    assert report.iterations == MAX_ROUNDS * COARSE_POINTS


def test_maximize_rejects_an_all_onset_grid():
    spec = CatSpec(delta_e=2.0, delta_l=2.0, omega=1.0)
    with pytest.raises(ValidationError, match="onset divergence"):
        maximize_ratio(spec, "time", {"t": 0.5, "gamma": (1.0, 10.0)},
                       t0=0.5)


def test_scan_rejects_a_negative_rate_row():
    spec = CatSpec(delta_e=2.0, delta_l=2.0, omega=1.0)
    for y_name in ("gamma", "gamma_dot"):
        grid = GridSpec(x_name="t", x_min=0.1, x_max=1.0, x_steps=3,
                        y_name=y_name, y_min=-1.0, y_max=1.0, y_steps=3,
                        scale="linear", spec=spec)
        with pytest.raises(ValidationError, match="nonnegative and finite"):
            heatmap_scan(grid, "time")


@pytest.mark.parametrize("parameter", ["time", "omega"])
def test_a_zero_rate_row_is_the_noiseless_schedule(parameter):
    # past t ~ 1.9e154 the unit ramp's dose overflows to inf, which a zero
    # row scaled to 0 x inf = NaN, a contract error on finite cells
    spec = CatSpec(delta_e=2.0, delta_l=2.0, omega=1.0)

    def scan(y_min, y_steps):
        grid = GridSpec(x_name="t", x_min=0.0, x_max=1e300, x_steps=3,
                        y_name="gamma_dot", y_min=y_min, y_max=2.0,
                        y_steps=y_steps, scale="linear", spec=spec, t0=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return grid.x_values(), heatmap_scan(grid, parameter).ratios

    ts, table = scan(0.0, 3)
    quiet = advantage_ratio(spec, NoiseSchedule.linear_ramp(0.0, t0=1.0), ts,
                            parameter)
    assert table[0].tolist() == quiet.tolist()
    assert table[0, -1] == 1.0
    # the other rows keep every bit
    assert table[1:].tobytes() == scan(1.0, 2)[1].tobytes()
