"""Acceptance gate: one checked claim per numbered criterion.

Each test prints a PASS or FAIL line for its clause; the final summary
test reprints one line per criterion.  Three clauses are pinned with
strict xfail because the quoted reference numbers disagree with the
exact decay law they cite; the surrounding tests pin the exact values
so the discrepancy stays visible instead of silently absorbed:

  * the ramp-window gain: the half-coherence window puts a factor ln2
    into the decay exponent, so the exact gain is 1/2 + ln2 * r with
    r = gdot dL^2/dE^2, not the quoted 1/2 + r, and the gain crosses 1
    at r = 1/(2 ln2), not at r = 1/2;
  * the steep-ramp saturation limit: var * F at the matched window is
    1 + 1/(2 ln2 r), which tends to 1, not to 1/ln2 = 1.4427; the
    quoted limit follows from the same omitted ln2;
  * one quoted frequency-QFI reference value (2.3195596) disagrees in
    the sixth digit with both the closed form and an independent
    finite-difference SLD route (2.3195342).

Run with:  pytest tests/test_acceptance.py -v -s -rxX
"""

import functools
import math

import numpy as np
import pytest

from dephasor import (CatSpec, EvolutionSpec, NoiseSchedule, advantage_ratio,
                      build_sensor_model, cat_initial_state,
                      default_fig_grid, evolve_lindblad_numeric,
                      heatmap_scan, load_model, operator_expectation,
                      optimal_time_constant, optimal_window_ramp,
                      trajectory)
from dephasor.estimators import (estimator_variance, optimal_observable,
                                 saturation_ratio)
from dephasor.fisher import (drho_dt, qfi_closed, qfi_freq_cat,
                             qfi_freq_lower_bound, qfi_time_cat,
                             qfi_time_lower_bound, sld_and_qfi)

from conftest import (evolved_branch_state, exact_cat_state,
                      kpi_window_schedule, numeric_qfi)

import pathlib

LN2 = math.log(2.0)
MODELS = pathlib.Path(__file__).resolve().parents[1] / "models"

RESULTS: list[tuple[str, str, str]] = []


def note(criterion: str, status: str, detail: str):
    RESULTS.append((criterion, status, detail))
    print(f"{status} {criterion}: {detail}")


# ---------------------------------------------------------------------------
# criterion 1: closed-form QFI vs the numeric SLD pipeline on a grid
# ---------------------------------------------------------------------------

GRID_T = (0.1, 0.5, 1.1, 2.0)
GRID_DE = (1.0, 2.0, 4.0)


def grid_schedules():
    return (NoiseSchedule.constant(0.3), NoiseSchedule.linear_ramp(1.0))


@functools.lru_cache(maxsize=1)
def qfi_grid():
    """(label, exact, numeric, bound) per config, computed once."""
    records = {"time": [], "omega": []}
    for de in GRID_DE:
        for dl in (de, de / 2.0):
            spec = CatSpec(delta_e=de, delta_l=dl, omega=1.0)
            for sch in grid_schedules():
                for t in GRID_T:
                    model, rho = evolved_branch_state(spec, sch, t, dt=1e-3)
                    label = f"dE={de} dL={dl} {sch.variant} t={t}"
                    exact = qfi_time_cat(spec, sch, t).value
                    num = numeric_qfi(model, sch, rho, t, "time").value
                    bound = qfi_time_lower_bound(model, sch, rho, t).value
                    records["time"].append((label, exact, num, bound))
                    if dl == de:
                        exact = qfi_freq_cat(spec, sch, t).value
                        num = numeric_qfi(model, sch, rho, t, "omega").value
                        bound = qfi_freq_lower_bound(model, sch, rho,
                                                     t).value
                        records["omega"].append((label, exact, num, bound))
    return records


def test_criterion_1_closed_forms_match_numeric_pipeline():
    records = qfi_grid()
    worst = 0.0
    count = 0
    for parameter in ("time", "omega"):
        for label, exact, num, _ in records[parameter]:
            err = abs(exact - num) / abs(num)
            worst = max(worst, err)
            count += 1
            assert err < 1e-6, (parameter, label, exact, num)
    assert count == 48 + 24
    note("criterion 1", "PASS",
         f"{count} configurations, worst relative gap {worst:.2e}")


# ---------------------------------------------------------------------------
# criterion 2: noise-free baselines
# ---------------------------------------------------------------------------

def test_criterion_2_closed_baselines():
    quiet = NoiseSchedule.constant(0.0)
    # network cats: exactly N^2 w^2
    for n in range(2, 7):
        model = build_sensor_model("qubit_network", n, omega=1.0)
        rho = cat_initial_state(model)
        value = qfi_closed(model, rho, parameter="time").value
        assert value == float(n * n), (n, value)
    model2 = build_sensor_model("qubit_network", 2, omega=2.0)
    assert qfi_closed(model2, cat_initial_state(model2),
                      parameter="time").value == 16.0

    # 4 var(H) through the full pipeline at gamma = 0
    worst = 0.0
    for n in (2, 3):
        model = build_sensor_model("qubit_network", n, omega=1.0)
        rho = exact_cat_state(model, quiet, 0.6)
        drho = drho_dt(model, quiet, rho, 0.6)
        _, report = sld_and_qfi(rho, drho, parameter="time")
        worst = max(worst, abs(report.value - n * n) / (n * n))
        assert abs(report.value - n * n) <= 1e-10 * n * n

    # frequency baseline dE^2 t^2 / w^2
    for de, w, t in ((2.0, 1.0, 0.7), (3.0, 1.5, 1.3)):
        spec = CatSpec(delta_e=de, delta_l=de, omega=w)
        expect = de * de * t * t / (w * w)
        got = qfi_closed(spec, t=t, parameter="omega").value
        assert abs(got - expect) <= 1e-10 * expect
        got = qfi_freq_cat(spec, quiet, t).value
        assert abs(got - expect) <= 1e-10 * expect
    note("criterion 2", "PASS",
         f"N=2..6 exactly N^2 w^2; pipeline gap {worst:.2e}; "
         f"frequency baseline exact")


# ---------------------------------------------------------------------------
# criterion 3: ramp-window gain (quoted form fails; exact law pinned)
# ---------------------------------------------------------------------------

def window_ratio(spec: CatSpec, gdot: float) -> float:
    win = optimal_window_ramp(spec, gdot).window
    return advantage_ratio(spec, NoiseSchedule.linear_ramp(gdot), win,
                           "time")


def test_criterion_3_exact_window_law_companion():
    # what the decay law actually gives at the half-coherence window
    worst = 0.0
    for de, dl, gdot in ((2.0, 2.0, 2.0), (1.0, 1.0, 4.0), (2.0, 1.0, 8.0),
                         (4.0, 2.0, 1.0)):
        spec = CatSpec(delta_e=de, delta_l=dl, omega=1.0)
        r = gdot * dl * dl / (de * de)
        got = window_ratio(spec, gdot)
        worst = max(worst, abs(got - (0.5 + LN2 * r)) / got)
        assert got == pytest.approx(0.5 + LN2 * r, rel=1e-12)
    note("criterion 3 (exact law)", "PASS",
         f"window gain = 1/2 + ln2*r at rel {worst:.2e}; "
         f"crossing at r = 1/(2 ln2) = {1.0 / (2.0 * LN2):.6f}")


@pytest.mark.xfail(strict=True,
                   reason="the half-coherence window makes the decay "
                          "exponent ln2, so the exact gain is "
                          "1/2 + ln2*r, about 31% below the quoted "
                          "1/2 + r at large r")
def test_criterion_3a_quoted_window_gain():
    spec = CatSpec(delta_e=2.0, delta_l=2.0, omega=1.0)
    got = window_ratio(spec, 2.0)  # r = 2
    note("criterion 3a", "FAIL",
         f"quoted 1/2 + r = 2.5; exact window gain is {got:.10f} "
         f"= 1/2 + 2 ln2")
    assert got == pytest.approx(2.5, rel=1e-12)


@pytest.mark.xfail(strict=True,
                   reason="the exact window gain crosses 1 at "
                          "r = 1/(2 ln2) = 0.7213, not at r = 1/2")
def test_criterion_3b_quoted_crossing_point():
    spec = CatSpec(delta_e=1.0, delta_l=1.0, omega=1.0)
    # bisect the actual crossing of the window gain
    lo, hi = 0.3, 1.2
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if window_ratio(spec, mid) < 1.0:
            lo = mid
        else:
            hi = mid
    crossing = 0.5 * (lo + hi)
    note("criterion 3b", "FAIL",
         f"gain crosses 1 at r = {crossing:.9f} = 1/(2 ln2), "
         f"not at the quoted r = 1/2")
    assert crossing == pytest.approx(0.5, abs=1e-9)


# ---------------------------------------------------------------------------
# criterion 4: matched-time frequency gain
# ---------------------------------------------------------------------------

def test_criterion_4_matched_time_gain():
    worst = 0.0
    for g, de in ((1.0, 1.0), (0.5, 2.0), (0.9, 2.0), (0.2, 4.0)):
        spec = CatSpec(delta_e=de, delta_l=de, omega=1.0)
        t_star = optimal_time_constant(spec, g).time
        got = advantage_ratio(spec, NoiseSchedule.constant(g), t_star,
                              "omega")
        expect = 0.5 + 4.0 * g * g * de * de
        worst = max(worst, abs(got - expect) / expect)
        assert got == pytest.approx(expect, rel=1e-12)

    # the quoted operating point: gamma = 1, dE = 1, ratio 4.5, and the
    # open-system QFI against the numeric pipeline
    spec = CatSpec(delta_e=1.0, delta_l=1.0, omega=1.0)
    sch = NoiseSchedule.constant(1.0)
    t_star = optimal_time_constant(spec, 1.0).time
    ratio = advantage_ratio(spec, sch, t_star, "omega")
    assert ratio == pytest.approx(4.5, rel=1e-12)
    model, rho = evolved_branch_state(spec, sch, t_star, dt=2e-4)
    f_num = numeric_qfi(model, sch, rho, t_star, "omega").value
    assert f_num == pytest.approx(0.5405097, rel=1e-6)
    assert qfi_freq_cat(spec, sch, t_star).value == pytest.approx(
        0.5405096406579766, rel=1e-12)
    note("criterion 4", "PASS",
         f"matched-time gain exact at rel {worst:.2e}; spot ratio 4.5, "
         f"open QFI {f_num:.9f} vs quoted 0.5405097")


# ---------------------------------------------------------------------------
# criterion 5: lower bounds below the QFI everywhere, plus spot values
# ---------------------------------------------------------------------------

def test_criterion_5_bounds_stay_below_qfi():
    records = qfi_grid()
    count = 0
    for parameter in ("time", "omega"):
        for label, _, num, bound in records[parameter]:
            assert bound <= num * (1.0 + 1e-6), (parameter, label)
            count += 1

    spec = CatSpec(delta_e=2.0, delta_l=2.0, omega=1.0)
    sch = NoiseSchedule.constant(0.1)
    model, rho = evolved_branch_state(spec, sch, 1.0, dt=2e-4)
    tb = qfi_time_lower_bound(model, sch, rho, 1.0).value
    fb = qfi_freq_lower_bound(model, sch, rho, 1.0).value
    # quoted 7-digit reference values
    assert tb == pytest.approx(0.9346041, rel=5e-7)
    assert fb == pytest.approx(1.0424430, rel=5e-7)
    assert qfi_time_cat(spec, sch, 1.0).value == pytest.approx(1.92787,
                                                               rel=5e-6)
    note("criterion 5", "PASS",
         f"bounds below QFI on all {count} grid configs; spot bounds "
         f"{tb:.7f} / {fb:.7f} vs quoted 0.9346041 / 1.0424430")


@pytest.mark.xfail(strict=True,
                   reason="quoted frequency-QFI reference 2.3195596 "
                          "disagrees in the 6th digit with the closed "
                          "form and with an independent "
                          "finite-difference SLD route, both of which "
                          "give 2.3195342")
def test_criterion_5_quoted_freq_qfi_reference():
    spec = CatSpec(delta_e=2.0, delta_l=2.0, omega=1.0)
    sch = NoiseSchedule.constant(0.1)
    value = qfi_freq_cat(spec, sch, 1.0).value
    note("criterion 5 (frequency QFI quote)", "FAIL",
         f"closed form gives {value:.10f}; quoted 2.3195596 is off by "
         f"1.1e-5 relative")
    assert value == pytest.approx(2.3195596, rel=1e-6)


# ---------------------------------------------------------------------------
# criterion 6: survey heatmap regions and spot value
# ---------------------------------------------------------------------------

def test_criterion_6_heatmap_regions_and_spot():
    table = heatmap_scan(default_fig_grid(), "omega")
    ratios = [ratio for *_, ratio, _ in table.rows]
    regions = {region for *_, region in table.rows}
    assert regions == {"enhanced", "hindered"}
    assert max(ratios) > 1e3

    spec = CatSpec(delta_e=2.0, delta_l=2.0, omega=1.0)
    spot = advantage_ratio(spec, NoiseSchedule.constant(100.0), 0.005,
                           "omega")
    # independent evaluation of the decay law at the spot
    gam = 100.0 * 0.005
    x = 2.0 * 4.0 * gam
    by_hand = math.exp(-x) * (
        1.0 + 4.0 * 4.0 * gam * gam / (0.005 ** 2 * (-math.expm1(-x))))
    assert spot == pytest.approx(by_hand, rel=1e-12)
    # the quoted value carries four significant figures
    rounded = float(f"{spot:.3e}")
    assert rounded == 2.985e3
    assert spot == pytest.approx(2985.1959738427363, rel=1e-12)
    note("criterion 6", "PASS",
         f"default scan: both regions, max ratio {max(ratios):.4g} > 1e3; "
         f"spot {spot:.10f} rounds to 2.985e3")


# ---------------------------------------------------------------------------
# criterion 7: estimator variance at the window, scaling, saturation
# ---------------------------------------------------------------------------

def test_criterion_7a_window_variance():
    worst = 0.0
    for gdot, de, k in ((4.0, 2.0, 1), (4.0, 2.0, 2), (2.0, 1.0, 1)):
        spec = CatSpec(delta_e=de, delta_l=de, omega=1.0)
        sch, t = kpi_window_schedule(spec, gamma_dot=gdot, k=k)
        var = estimator_variance(spec, sch, t, "time").variance_estimator
        expect = 1.0 / (LN2 * gdot * de * de)
        worst = max(worst, abs(var - expect) / expect)
        assert var == pytest.approx(expect, rel=1e-9)
    spec = CatSpec(delta_e=2.0, delta_l=2.0, omega=1.0)
    sch, t = kpi_window_schedule(spec, gamma_dot=4.0)
    var = estimator_variance(spec, sch, t, "time").variance_estimator
    assert var == pytest.approx(0.09016844005556027, rel=1e-12)
    note("criterion 7a", "PASS",
         f"window variance = 1/(ln2 gdot dE^2) at rel {worst:.2e}")


def test_criterion_7b_doubling_slope_halves_variance():
    spec = CatSpec(delta_e=2.0, delta_l=2.0, omega=1.0)
    sch1, t1 = kpi_window_schedule(spec, gamma_dot=4.0)
    sch2, t2 = kpi_window_schedule(spec, gamma_dot=8.0)
    v1 = estimator_variance(spec, sch1, t1, "time").variance_estimator
    v2 = estimator_variance(spec, sch2, t2, "time").variance_estimator
    assert v1 / v2 == pytest.approx(2.0, rel=1e-12)
    note("criterion 7b", "PASS",
         f"var({4.0}) / var({8.0}) = {v1 / v2:.12f}")


@pytest.mark.xfail(strict=True,
                   reason="var * F at the matched window is "
                          "1 + 1/(2 ln2 r), which tends to 1 for steep "
                          "ramps; the quoted limit 1/ln2 = 1.4427 "
                          "follows from the same omitted ln2 as the "
                          "window-gain quote")
def test_criterion_7c_quoted_saturation_limit():
    spec = CatSpec(delta_e=1.0, delta_l=1.0, omega=1.0)
    sch, t = kpi_window_schedule(spec, gamma_dot=1e3)
    ratio = saturation_ratio(spec, sch, t, "time")
    note("criterion 7c", "FAIL",
         f"var*F at r=1e3 is {ratio:.10f} = 1 + 1/(2000 ln2); quoted "
         f"1/ln2 = 1.4427")
    assert ratio == pytest.approx(1.0 / LN2, rel=1e-3)


def test_criterion_7d_cramer_rao_floor():
    worst = math.inf
    specs = (CatSpec(delta_e=2.0, delta_l=2.0, omega=1.0),
             CatSpec(delta_e=1.0, delta_l=1.0, omega=1.0))
    schedules = (NoiseSchedule.constant(0.2),
                 NoiseSchedule.linear_ramp(3.0),
                 NoiseSchedule.piecewise_linear([(0.0, 0.0), (0.4, 1.2)]))
    checked = 0
    for spec in specs:
        for sch in schedules:
            for t in np.linspace(0.02, 3.0, 40):
                for parameter in ("time", "omega"):
                    ratio = saturation_ratio(spec, sch, float(t), parameter)
                    if math.isinf(ratio):
                        continue
                    assert ratio >= 1.0 - 1e-10, (spec, sch.variant, t,
                                                  parameter)
                    worst = min(worst, ratio)
                    checked += 1
    note("criterion 7d", "PASS",
         f"var*F >= 1 on {checked} points (minimum {worst:.6f})")


# ---------------------------------------------------------------------------
# criterion 8: network parity vs two-mode branch swap
# ---------------------------------------------------------------------------

def test_criterion_8_parity_and_branch_swap_agree():
    ghz = load_model(str(MODELS / "ghz2.json"))
    noon = load_model(str(MODELS / "noon2.json"))
    sch = NoiseSchedule.linear_ramp(1.0, t0=0.1)
    worst = 0.0
    means = {}
    for name, model in (("ghz", ghz), ("noon", noon)):
        obs = optimal_observable(model)
        run = EvolutionSpec(model=model, schedule=sch, t_final=1.5, dt=5e-4)
        states = trajectory(run, cat_initial_state(model), samples=9)
        means[name] = [operator_expectation(obs.operator, rho)[0]
                       for _, rho in states]
    for a, b in zip(means["ghz"], means["noon"]):
        worst = max(worst, abs(a - b))
    assert worst <= 1e-12
    note("criterion 8", "PASS",
         f"parity vs branch swap: max trajectory gap {worst:.2e} "
         f"over 9 sample times")


# ---------------------------------------------------------------------------
# criterion 9: integration contracts on the shipped models
# ---------------------------------------------------------------------------

def test_criterion_9_numerical_contracts():
    schedules = (NoiseSchedule.constant(0.2),
                 NoiseSchedule.linear_ramp(1.0, t0=0.1))
    worst_trace = 0.0
    worst_eig = math.inf
    worst_step = 0.0
    for name in ("ghz2", "ghz3", "noon2"):
        model = load_model(str(MODELS / f"{name}.json"))
        rho0 = cat_initial_state(model)
        for sch in schedules:
            run = EvolutionSpec(model=model, schedule=sch, t_final=1.0,
                                dt=1e-3)
            # the built-in contract must hold (it integrates at dt and
            # dt/2 internally and returns the fine result)
            rho = evolve_lindblad_numeric(run, rho0,
                                          verify_convergence=True)
            drift = abs(complex(np.trace(rho.matrix)) - 1.0)
            worst_trace = max(worst_trace, drift)
            worst_eig = min(worst_eig, rho.min_eigenvalue())
            assert drift <= 1e-9
            assert rho.min_eigenvalue() >= -1e-7
            # independent halving comparison with two plain runs
            rho_coarse = evolve_lindblad_numeric(run, rho0)
            half = EvolutionSpec(model=model, schedule=sch, t_final=1.0,
                                 dt=5e-4)
            rho_half = evolve_lindblad_numeric(half, rho0)
            gap = float(np.max(np.abs(rho_coarse.matrix
                                      - rho_half.matrix)))
            worst_step = max(worst_step, gap)
            assert 0.0 < gap <= 1e-8
    note("criterion 9", "PASS",
         f"trace drift <= {worst_trace:.2e}, min eigenvalue >= "
         f"{worst_eig:.2e}, halving dt moves entries <= {worst_step:.2e}")


# ---------------------------------------------------------------------------
# summary
# ---------------------------------------------------------------------------

CRITERIA = {
    "criterion 1": "closed-form QFI vs numeric SLD pipeline (72 configs)",
    "criterion 2": "noise-free baselines (4 var(H), N^2 w^2, dE^2 t^2/w^2)",
    "criterion 3": "ramp-window gain formula",
    "criterion 4": "matched-time frequency gain",
    "criterion 5": "commutator lower bounds and spot values",
    "criterion 6": "survey heatmap regions and spot value",
    "criterion 7": "estimator variance, scaling, saturation",
    "criterion 8": "parity vs branch-swap equivalence",
    "criterion 9": "integration contracts on shipped models",
}


def test_criteria_summary():
    by_number: dict[str, list[tuple[str, str, str]]] = {
        key: [] for key in CRITERIA}
    for label, status, detail in RESULTS:
        for key in by_number:
            if label.startswith(key):
                by_number[key].append((label, status, detail))
                break
    print()
    print("acceptance summary")
    print("-" * 72)
    for key, description in CRITERIA.items():
        entries = by_number[key]
        statuses = {status for _, status, _ in entries}
        if not entries:
            overall = "NOT RUN"
        elif statuses == {"PASS"}:
            overall = "PASS"
        elif "PASS" in statuses:
            overall = "PARTIAL (quoted reference values fail, exact law "\
                      "passes)"
        else:
            overall = "FAIL (quoted reference values disagree with the "\
                      "exact law)"
        print(f"{key}: {overall} - {description}")
    print("-" * 72)
    # every criterion must have produced at least one line
    missing = [key for key, entries in by_number.items() if not entries]
    assert not missing, missing
