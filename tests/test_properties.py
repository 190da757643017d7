"""Property tests of the cat-state closed forms over random inputs.

Random gaps, schedules and time grids check that the array kernel and
the scalar wrappers agree bit for bit, that the advantage ratio is the
QFI over its noiseless baseline, that the ratio tends to 1 with the
dose, and that the time QFI sits above its commutator lower bound.
Log-uniform gaps, rates, doses and times, from subnormals to 1e300,
check ``qfi_law``, ``ratio_law`` and the parity readout ``readout_law``
(with the saturation ratio) against the plain laws in 60-digit mpmath,
past the float range and at the onset too, and the saturation ratio
never drops below 1.
Random boxes check that the optimizer's result lies in the box,
reproduces the scalar ratio, beats the coarse grid and is stationary,
and random scan grids check the table rows against per-row ratios.

Random commuting models (H and L both diagonal in one Haar-random frame)
check the RK4 integrator: it matches a dense-matmul RK4 reference, keeps
trace and positivity along trajectories, its state fed through
``state_derivative`` and the SLD reproduces the closed-form
time or frequency QFI (also deep in the tail, where the branch coherence
is far below the populations' round-off), and that numeric QFI sits
above its commutator bound.  The derivatives and bounds, formed in the
model's eigenbasis, match dense commutators of H and L along
trajectories, for states written in that basis and states built dense.
Models whose (w, d) pairs repeat many times (energy-dephased qubit
networks, custom models with a degenerate L) check the distinct-pair
RK4 against the same reference, at every trajectory sample too, and
that a two-sample trajectory ends on the evolved state bit for bit.
The same models check the exact propagator: RK4 at its default step
matches ``evolve_exact`` to 1e-12, and a central difference of
``evolve_exact`` over t matches the dense right-hand side of the
equation of motion.  Random (w, d) pairs, schedules and runs check
that the RK4 gain, which takes a segment of equal step rates as one
step gain raised to its step count, matches a plain per-step loop.
Random level sets with many ties check that the sorted pair table
equals the ``np.unique`` columns and inverse bit for bit.
Random supports of random models, in a Haar frame or the computational
basis, check that a state on its support block evolves, differentiates
and gives the SLD QFI as the same state built dense.
Inputs that broke a property once are pinned as explicit examples.

Random log-ratios and region grids check the array scan renderer: every
cell color follows the scalar color law, and the ratio = 1 boundary is
the one a double loop over neighbouring cells finds.  Random tables and
float columns (subnormals, 1 and its predecessor, the largest doubles,
inf, every bit pattern) check that the scan CSV, the SVG cell grid and
the sweep/evolve CSV writer give the text of a plain row and cell loop.

Random argv of every subcommand, with numbers from extreme and ordinary
values in every option and inline grammar, check the CLI contract: exit
0 with empty stderr, or exit 1 or 2 with one ``error:`` line, and never
a warning, nor a NaN on stdout or in an output file.
"""

import contextlib
import io
import math
import pathlib
import re
import tempfile
import types
import warnings

import numpy as np
import pytest

from dephasor import (CatSpec, DensityMatrix, EvolutionSpec, GridSpec,
                      NoiseSchedule, NumericalContractError, Operator,
                      ValidationError, advantage_ratio, branch_model,
                      build_sensor_model, cat_initial_state, cat_spec_for,
                      estimator_variance, evolve_exact,
                      evolve_lindblad_numeric, heatmap_scan,
                      maximize_ratio, observable_expectation,
                      saturation_ratio, schedule_eval, sld_and_qfi,
                      trajectory)
from dephasor.cli import _csv, parse_and_run
from dephasor.dynamics import _pair_table, _rk4_gains
from dephasor.estimators import readout_law, signal_statistics
from dephasor.fisher import (decay_exponent, law_at, qfi_cat, qfi_closed,
                             qfi_law, qfi_lower_bound, ratio_law,
                             state_derivative)
from dephasor.protocols import (COARSE_POINTS, MAX_ROUNDS, X_AXES,
                                HeatmapTable, _rate_schedule, _ratio_table)
from dephasor.svgmap import (LOG_CEIL, LOG_FLOOR, _NEG_HI, _NEG_LO, _POS_HI,
                             _POS_LO, HEIGHT, MARGIN_BOTTOM, MARGIN_LEFT,
                             MARGIN_RIGHT, MARGIN_TOP, WIDTH, _color,
                             _color_codes, render_heatmap_svg)

from conftest import exact_cat_state, framed, haar_unitary

pytest.importorskip("hypothesis")
from hypothesis import (assume, example, given, settings,  # noqa: E402
                        strategies as st)

PARAMS = ("time", "omega")
FLOAT_MAX = np.finfo(float).max
TINY = np.finfo(float).tiny


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

    def each(fn):
        return lambda: [fn(float(t)) for t in ts]

    pairs = [
        (lambda: advantage_ratio(spec, sch, ts, parameter),
         each(lambda t: advantage_ratio(spec, sch, t, parameter))),
        (lambda: law_at(qfi_law, spec, sch, ts, parameter),
         each(lambda t: qfi_cat(spec, sch, t, parameter).value)),
        (lambda: saturation_ratio(spec, sch, ts, parameter),
         each(lambda t: saturation_ratio(spec, sch, t, parameter))),
        (lambda: readout_law(spec, None, 0.0, sch.integral(ts), ts)[0],
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
@example(CatSpec(1.0, 1.0, 1.0), NoiseSchedule.constant(1.0),
         2.225073858507203e-309)
def test_time_qfi_above_commutator_bound(spec, sch, t):
    model = branch_model(spec)
    rho = exact_cat_state(model, sch, t)
    bound = qfi_lower_bound(model, sch, rho, t, "time").value
    try:
        value = qfi_cat(spec, sch, t, "time").value
    except NumericalContractError:
        # only past the float range: the noise term gamma^2 dL^4 /
        # (e^x - 1) alone exceeds it (just after a constant-rate onset)
        rate, dose = schedule_eval(sch, t)
        assert 2.0 * math.log(rate) + 4.0 * math.log(spec.delta_l) \
            - math.log(math.expm1(decay_exponent(spec, dose))) \
            > math.log(FLOAT_MAX)
        return
    assert value >= bound


# ------------------------------------ closed forms against mpmath

def log_uniform(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


WIDE = log_uniform(-320.0, 300.0)  # subnormals up to far past 1


@settings(max_examples=1000)
@given(st.sampled_from(PARAMS), st.sampled_from((qfi_law, ratio_law)),
       log_uniform(-3.0, 3.0), log_uniform(-3.0, 3.0),
       log_uniform(-3.0, 3.0), WIDE, st.one_of(st.just(0.0), WIDE), WIDE,
       st.sampled_from((0.0, 1.0)))
def test_closed_forms_match_mpmath(parameter, law, de, dl, omega, rate,
                                   dose, t, jump):
    # the plain laws at 60 digits, F = e^{-x} (F0 + b^2 dL^4 / (1 - e^{-x}))
    # with x = 2 dL^2 Gamma; omega needs L = H.  A representable value
    # within 1e-12 (a subnormal one within the smallest normal), a value
    # past the float range NumericalContractError, and at zero dose the
    # limit F0 (1 for the ratio), or inf at the onset of a time rate
    mp = pytest.importorskip("mpmath").mp
    mp.dps = 60
    if parameter == "omega":
        dl = de
    spec = CatSpec(delta_e=de, delta_l=dl, omega=omega)
    e, l, w, g, big_g, tt = (mp.mpf(v) for v in (de, dl, omega, rate, dose,
                                                   t))
    a, b = (1, g) if parameter == "time" else (tt / w, 2 * big_g / w)
    f0 = (a * e) ** 2
    if dose == 0.0:
        want = mp.inf if parameter == "time" and jump else f0
    else:
        x = 2 * l ** 2 * big_g
        want = mp.exp(-x) * (f0 + b ** 2 * l ** 4 / -mp.expm1(-x))
    if law is ratio_law:
        want = want / f0 if want != mp.inf else want
    assume(abs(want / FLOAT_MAX - 1) > 1e-12)  # not on the edge of range
    if want > FLOAT_MAX and want != mp.inf:
        with pytest.raises(NumericalContractError, match="non-finite"):
            law(spec, parameter, rate, dose, t, jump)
        return
    got = law(spec, parameter, rate, dose, t, jump)
    if want == mp.inf:
        assert got == math.inf
    elif want < TINY:
        assert abs(got - want) <= TINY
    else:
        assert abs(got - want) <= 1e-12 * want


@settings(max_examples=1000)
@given(st.sampled_from(PARAMS), log_uniform(-3.0, 3.0),
       log_uniform(-3.0, 3.0), log_uniform(-3.0, 3.0), WIDE,
       st.one_of(st.just(0.0), WIDE), log_uniform(-323.3, 300.0))
# b = 2 Gamma / omega subnormal: b dL^2 lost 6e-12 relative
@example("omega", 710.919846372015, 710.919846372015, 0.06968927696306627,
         1.0, 4.362139717e-315, 1.039202286834209e-308)
def test_signal_laws_match_mpmath(parameter, de, dl, omega, rate, dose, t):
    # the readout at 60 digits, at the float phase p = fl(dE t) the laws
    # form, on the inputs of the closed-form property with t down to
    # 5e-324: <O> = cos(p) e^{-x/2} and d<O>/d lambda = -e^{-x/2} N,
    # N = a dE sin(p) + b dL^2 cos(p), within 1e-12 of the sum of the
    # terms' magnitudes; var(O) = -expm1(-x) + e^{-x} sin(p)^2 and
    # var(O) / (d<O>/d lambda)^2 within 1e-12 relative, the latter times
    # the condition of N (1 where its terms share a sign), inf where N
    # is 0; the saturation ratio F var(O) / (d<O>/d lambda)^2, with F
    # from ``qfi_law``, likewise where both factors are in range.  Within
    # the smallest normal where a value is subnormal; past the float
    # range NumericalContractError
    mp = pytest.importorskip("mpmath").mp
    mp.dps = 60
    if parameter == "omega":
        dl = de
    spec = CatSpec(delta_e=de, delta_l=dl, omega=omega)
    e, l, w, g, big_g, tt = (mp.mpf(v) for v in (de, dl, omega, rate, dose,
                                                   t))
    a, b = (1, g) if parameter == "time" else (tt / w, 2 * big_g / w)
    p, x = mp.mpf(de * t), 2 * l ** 2 * big_g
    decay, sin2 = mp.exp(-x / 2), mp.sin(p) ** 2
    wave = (a * e * mp.sin(p), b * l ** 2 * mp.cos(p))
    slope = sum(wave)
    cond = sum(abs(v) for v in wave) / abs(slope) if slope else 1
    var_est = (mp.expm1(x) + sin2) / slope ** 2 if slope else mp.inf
    qfi = (a * e) ** 2 + (b ** 2 * l ** 4 / -mp.expm1(-x) if dose else 0)
    qfi *= mp.exp(-x)
    wants = ((mp.cos(p) * decay, abs(mp.cos(p)) * decay),
             (-mp.expm1(-x) + mp.exp(-x) * sin2, None),
             (-decay * slope, decay * sum(abs(v) for v in wave)),
             (var_est, None))
    for want, scale in wants:
        scale = abs(want) if scale is None else scale
        assume(abs(scale / FLOAT_MAX - 1) > 1e-12)  # not on the edge
    if any(abs(want) > FLOAT_MAX and want != mp.inf for want, _ in wants):
        with pytest.raises(NumericalContractError, match="non-finite"):
            readout_law(spec, parameter, rate, dose, t)
        return

    def close(got, want, scale=None, rtol=1e-12):
        scale = abs(want) if scale is None else scale
        assert abs(got - want) <= (TINY if scale < TINY else rtol * scale)

    got = readout_law(spec, parameter, rate, dose, t)
    for value, (want, scale) in zip(got[:3], wants):
        close(value, want, scale)
    if var_est == mp.inf:
        assert got[3] == math.inf
        return
    close(got[3], var_est, rtol=1e-12 * cond)
    saturation = qfi * var_est
    if TINY <= qfi <= FLOAT_MAX and TINY <= var_est and \
            saturation < FLOAT_MAX * (1 - 1e-12):
        close(qfi_law(spec, parameter, rate, dose, t) * got[3], saturation,
              rtol=1e-12 * cond)


@given(st.data(), st.sampled_from(PARAMS))
def test_saturation_ratio_is_at_least_one(data, parameter):
    # the Cramer-Rao bound: var(estimate) F >= 1 wherever it is finite
    spec = data.draw(specs(energy=True if parameter == "omega" else None))
    sch = data.draw(schedules())
    for t in data.draw(time_grids(sch)):
        try:
            ratio = saturation_ratio(spec, sch, float(t), parameter)
        except NumericalContractError:  # past the float range
            continue
        assert ratio >= 1.0 - 1e-12


# ------------------------------------ ratio tables: scan and optimizer

KINDS = {"constant": "gamma", "linear_ramp": "gamma_dot"}
GHZ3 = cat_spec_for(build_sensor_model("qubit_network", 3, 1.0, "energy"))


@st.composite
def optimize_problems(draw):
    """(spec, parameter, schedule kind, t0, box), one or both axes ranged;
    a fixed t may sit on the onset."""
    parameter = draw(st.sampled_from(PARAMS))
    spec = draw(specs(energy=True if parameter == "omega" else None))
    kind = draw(st.sampled_from(sorted(KINDS)))
    t0 = draw(st.floats(0.0, 1.0))
    t_lo = draw(st.floats(0.0, 2.0))
    rate_lo = draw(st.floats(0.01, 10.0))
    ranges = {"t": (t_lo, t_lo + draw(st.floats(0.01, 3.0))),
              KINDS[kind]: (rate_lo, rate_lo * draw(st.floats(1.01, 100.0)))}
    fixed = {"t": draw(st.one_of(st.just(t0), st.floats(0.0, 3.0))),
             KINDS[kind]: draw(st.floats(0.0, 20.0))}
    pin = draw(st.sampled_from((None, "t", KINDS[kind])))
    box = {key: fixed[key] if key == pin else val
           for key, val in ranges.items()}
    return spec, parameter, kind, t0, box


def ramp_rtol(spec, schedule, t, base):
    """Relative tolerance between a ramp ratio of the scan or optimizer
    table, whose dose is g (dt^2/2), and the scalar one, (g dt/2) dt: the
    doses differ in their last bits, which e^{-x} amplifies x-fold.
    Below the smallest normal dose both keep only the bits that survive
    underflow, and any tolerance is inf."""
    dose = schedule.integral(t)
    return np.where(dose < np.finfo(float).tiny, np.inf,
                    base + 1e-15 * decay_exponent(spec, dose))


def coarse_axis(val):
    """The optimizer's first grid along one box axis, as the benchmark
    oracle builds it."""
    if not isinstance(val, tuple):
        return np.array([val])
    lo, hi = val
    return np.geomspace(lo, hi, 64) if lo > 0.0 else np.linspace(lo, hi, 64)


@settings(max_examples=60)
@given(optimize_problems())
@example((CatSpec(2.0, 2.0, 1.0), "time", "constant", 0.0,
          {"t": (0.0, 5.0), "gamma": 0.0}))
@example((GHZ3, "time", "linear_ramp", 0.02,
          {"t": (0.05, 2.0), "gamma_dot": (0.1, 20.0)}))
@example((CatSpec(1.0, 1.0, 1.0), "time", "linear_ramp", 0.0,
          {"t": (1.0, 2.0), "gamma_dot": 5e-324}))
def test_maximize_ratio_is_a_reproducible_stationary_optimum(problem):
    spec, parameter, kind, t0, box = problem
    rate_key = KINDS[kind]
    make = getattr(NoiseSchedule, kind)

    def ratio(rate, t):
        return advantage_ratio(spec, make(rate, t0=t0), t, parameter)

    def close(value, rate, t):
        """``value`` is the scalar ratio at (rate, t): exactly for a
        constant rate, to ``ramp_rtol`` for a ramp."""
        want = ratio(rate, t)
        if kind == "constant":
            return value == want
        return math.isclose(value, want, abs_tol=1e-300, rel_tol=ramp_rtol(
            spec, make(rate, t0=t0), t, 1e-14))

    # the coarse grid row by row; the onset divergence counts as -inf
    ts, rates = coarse_axis(box["t"]), coarse_axis(box[rate_key])
    try:
        rows = np.array([ratio(float(g), ts) for g in rates])
    except NumericalContractError:
        with pytest.raises(NumericalContractError):
            maximize_ratio(spec, parameter, box, schedule_kind=kind, t0=t0)
        return
    rows = np.where(np.isinf(rows), -np.inf, rows)
    j, i = np.unravel_index(np.argmax(rows), rows.shape)
    if rows[j, i] == -np.inf:
        # only the onset itself diverges, not a dose that underflowed
        assert box["t"] == t0
        with pytest.raises(ValidationError, match="onset divergence"):
            maximize_ratio(spec, parameter, box, schedule_kind=kind, t0=t0)
        return
    try:
        report = maximize_ratio(spec, parameter, box, schedule_kind=kind,
                                t0=t0)
    except NumericalContractError:
        # the ratio leaves the float range only within about 1e-300 of
        # the onset or of t = 0, which the refinement reaches from a
        # start that close
        assert 0.0 < t0 < 1e-290 or 0.0 < ts[0] < 1e-290
        return
    best = report.best_params
    ranged = sorted(k for k, val in box.items() if isinstance(val, tuple))
    assert list(best) == [k for k in box if k not in ranged] + ranged
    for key, val in box.items():
        if key in ranged:
            assert val[0] <= best[key] <= val[1]
        else:
            assert best[key] == val
    assert close(report.best_ratio, best[rate_key], best["t"])
    assert report.best_ratio >= rows[j, i] or close(
        report.best_ratio, float(rates[j]), float(ts[i]))
    if report.iterations == MAX_ROUNDS * COARSE_POINTS ** len(ranged) \
            and "t" in ranged and box["t"][0] == 0.0:
        # the round cap ended the refinement, as it must for a t bracket
        # pinned at t = 0 (it never meets REL_TOL), and the ratio may
        # still rise toward t = 0+
        return
    if kind == "constant" and "t" in ranged and (
            box["t"][0] <= t0 < box["t"][1]) and (
            parameter == "time" or t0 == 0.0):
        # a constant rate switched on inside the t range: the ratio rises
        # without bound as t -> t0+ (for omega only from t0 = 0), so it
        # has no maximum and no stationary point
        return
    for key in ranged:
        for shift in (-1e-4, 1e-4):
            moved = dict(best, **{key: best[key] * (1.0 + shift)})
            if box[key][0] <= moved[key] <= box[key][1]:
                assert ratio(moved[rate_key], moved["t"]) <= \
                    report.best_ratio * (1.0 + 1e-6)


@given(st.data(), st.sampled_from(PARAMS), st.sampled_from(sorted(KINDS)))
def test_scan_rows_match_per_row_ratios(data, parameter, kind):
    spec = data.draw(specs(energy=True if parameter == "omega" else None))
    scale = data.draw(st.sampled_from(("linear", "log")))
    floor = 0.0 if scale == "linear" else 0.01
    x_min, y_min = data.draw(st.floats(floor, 2.0)), data.draw(
        st.floats(floor, 10.0))
    grid = GridSpec(
        x_name=data.draw(st.sampled_from(X_AXES)), x_min=x_min,
        x_max=x_min + data.draw(st.floats(0.01, 3.0)),
        x_steps=data.draw(st.integers(2, 9)), y_name=KINDS[kind],
        y_min=y_min, y_max=y_min + data.draw(st.floats(0.01, 10.0)),
        y_steps=data.draw(st.integers(2, 9)), scale=scale, spec=spec,
        t0=data.draw(st.floats(0.0, 1.0)))
    ts = grid.x_values()
    if grid.x_name == "omega_t":
        ts = ts / spec.omega
    make = getattr(NoiseSchedule, kind)
    try:
        rows = [advantage_ratio(spec, make(y, t0=grid.t0), ts, parameter)
                for y in grid.y_values().tolist()]
    except NumericalContractError:
        with pytest.raises(NumericalContractError):
            heatmap_scan(grid, parameter)
        return
    table = heatmap_scan(grid, parameter)
    for y, row, want in zip(grid.y_values().tolist(), table.ratios, rows):
        if kind == "constant":
            assert bits(row) == bits(want)
        else:
            rtol = ramp_rtol(spec, make(y, t0=grid.t0), ts, 1e-13)
            kept = np.isfinite(rtol)
            assert np.isclose(row[kept], want[kept], rtol=rtol[kept],
                              atol=1e-300).all()


# g and t log-uniform from the least subnormal to past 1e154, where a
# square overflows
FAR = log_uniform(-324.0, 308.0).map(lambda v: max(v, 5e-324))


@settings(max_examples=500)
@given(st.sampled_from(sorted(KINDS)), FAR, FAR, FAR)
@example("constant", 2.0, 0.5, 0.5)  # the onset, where the rate jumps
@example("linear_ramp", 2.0, 0.5, 0.5)
def test_one_knot_schedules_are_the_closed_forms_bit_for_bit(kind, g, t0,
                                                             t):
    # a constant rate and a ramp are one knot and a tail slope: their
    # rates and doses are g and g dt, and g dt and (g dt / 2) dt, with
    # dt = t - t0, out of the float range too, and never a warning
    sch = getattr(NoiseSchedule, kind)(g, t0=t0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [sch.rate(t), sch.rate_right(t), sch.integral(t)]
    dt = t - t0
    want = [g, g, g * dt] if kind == "constant" else \
        [g * dt, g * dt, 0.5 * g * dt * dt]
    if t <= t0:
        want = [0.0, want[1] if t == t0 else 0.0, 0.0]
    assert bits(got) == bits(want)


@settings(max_examples=300)
@given(st.sampled_from(PARAMS), st.sampled_from(sorted(KINDS)),
       st.lists(FAR, min_size=1, max_size=3),
       st.lists(FAR, min_size=1, max_size=3), log_uniform(-3.0, 3.0),
       log_uniform(-3.0, 3.0), st.sampled_from((0.0, 0.5)))
# a unit ramp dose past the float range used to read as a full decay
@example("time", "linear_ramp", [5e-324, 1e-323], [2e154, 3e154], 1e-150,
         1.0, 0.0)
def test_ratio_table_rows_are_their_own_schedules_ratios(
        parameter, kind, rates, taus, de, dl, t0):
    # one table call scales the unit schedule by each row's rate; each
    # row is the ratio on its own schedule within 1e-12, or both raise
    spec = CatSpec(delta_e=de, delta_l=de if parameter == "omega" else dl,
                   omega=1.0)
    ts = t0 + np.array(taus)
    try:
        rows = [advantage_ratio(spec, _rate_schedule(KINDS[kind], g, t0),
                                ts, parameter) for g in rates]
    except NumericalContractError:
        with pytest.raises(NumericalContractError):
            _ratio_table(spec, parameter, KINDS[kind], t0, ts, rates)
        return
    table = _ratio_table(spec, parameter, KINDS[kind], t0, ts, rates)
    assert np.allclose(table, rows, rtol=1e-12, atol=0.0)


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


@settings(max_examples=40)
@given(commuting_models(), st.integers(0, 2 ** 16))
def test_state_in_a_basis_equals_the_state_built_dense(model, seed):
    # the same state written in the model's Haar basis and built dense:
    # the matrix, the invariants and the eigenbasis form agree
    v = model.basis
    a = random_state(model, seed).array
    rho = DensityMatrix(a, basis=v)
    dense = DensityMatrix(v @ a @ v.conj().T)
    assert np.max(np.abs(rho.matrix - dense.matrix)) <= 1e-14
    assert abs(np.trace(rho.array) - np.trace(dense.matrix)) <= 1e-12
    assert abs(rho.purity() - dense.purity()) <= 1e-12
    assert abs(rho.min_eigenvalue() - dense.min_eigenvalue()) <= 1e-12
    assert model.eigenbasis_block(rho)[0] is rho.array
    copy = DensityMatrix(a, basis=v.copy())
    assert np.max(np.abs(model.eigenbasis_block(copy)[0] - a)) <= 1e-14
    # the array is checked in its basis, not only for its shape
    n = model.dim
    with pytest.raises(ValidationError, match="trace"):
        DensityMatrix(a - np.eye(n) / n, basis=v)
    skew = a.copy()
    skew[0, 1] += 1e-6
    with pytest.raises(ValidationError, match="Hermiticity"):
        DensityMatrix(skew, basis=v)


@st.composite
def block_states(draw):
    """(model, block, support): a commuting model of dim 2..8, in a
    Haar-random frame or already diagonal (the computational basis), and
    a random state block on a random support of its eigenbasis; a sorted
    support of all levels is the full one."""
    dim = draw(st.integers(2, 8))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    q = np.eye(dim) if draw(st.booleans()) else haar_unitary(
        np.random.default_rng(seed), dim)
    level = st.floats(-1.0, 1.0) | st.sampled_from((-1.0, 0.0, 1.0))
    levels = st.lists(level, min_size=dim, max_size=dim)
    eps = np.array(draw(levels))
    assume(np.ptp(eps) > 0.1)
    lindblad = "energy" if draw(st.booleans()) else Operator(
        framed(q, np.array(draw(levels))), hermitian=True)
    model = build_sensor_model("custom", dim, draw(st.floats(0.5, 2.0)),
                               lindblad, h=Operator(framed(q, eps),
                                                    hermitian=True))
    support = draw(st.permutations(range(dim)))[:draw(st.integers(1, dim))]
    if draw(st.booleans()):
        support = sorted(support)
    k = len(support)
    rng = np.random.default_rng(seed + 1)
    a = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    block = a @ a.conj().T
    return model, block / np.trace(block).real, tuple(support)


def rel_gap(got, want):
    """Largest entry of |got - want| over the largest of |want| (or 1)."""
    got, want = np.asarray(got), np.asarray(want)
    return float(np.max(np.abs(got - want))) / max(
        1.0, float(np.max(np.abs(want))))


@settings(max_examples=40)
@given(block_states(), schedules(rate=st.floats(0.0, 2.0)),
       st.floats(0.1, 1.5))
def test_block_route_equals_the_dense_route(case, sch, t):
    # a state on its support block against the same state built dense:
    # the evolved state, its derivatives, the SLD QFI and min_eig agree,
    # and so does the truncated rank
    model, block, support = case
    rho0 = DensityMatrix(block, basis=model.basis, support=support,
                         dim=model.dim)
    dense0 = DensityMatrix(np.array(rho0.matrix))
    full = support == tuple(range(model.dim))
    assert (rho0.support is None) == full
    run = EvolutionSpec(model=model, schedule=sch, t_final=t, dt=t / 300)
    rho = evolve_lindblad_numeric(run, rho0)
    dense = evolve_lindblad_numeric(run, dense0)
    assert rho.support == rho0.support and dense.support is None
    assert rel_gap(rho.matrix, dense.matrix) <= 1e-12
    assert abs(rho.min_eigenvalue() - dense.min_eigenvalue()) <= 1e-12
    parameters = ["time", "omega"] if model.energy_lindblad else ["time"]
    for parameter in parameters:
        d_block = state_derivative(model, sch, rho, t, parameter)
        d_dense = np.asarray(state_derivative(model, sch, dense, t,
                                              parameter))
        assert d_block.support == rho.support
        assert rel_gap(d_block, d_dense) <= 1e-12
        _, got = sld_and_qfi(rho, d_block, parameter)
        _, want = sld_and_qfi(dense, d_dense, parameter)  # dense route
        assert math.isclose(got.value, want.value, rel_tol=1e-12,
                            abs_tol=1e-12)
        assert got.diagnostics["truncated_rank"] == \
            want.diagnostics["truncated_rank"]
        assert abs(got.diagnostics["min_eigenvalue"]
                   - want.diagnostics["min_eigenvalue"]) <= 1e-12


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
    assert want.basis is got.basis is model.basis
    assert np.max(np.abs(got.array - want.array)) <= 1e-12
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


def stepwise_rk4_gain(w, d, schedule, t_start, t_end, dt_target):
    """Reference RK4 gain of one segment per pair: a plain loop, one
    step at a time, each with its own width and rates (start, midpoint
    and end; the left limit at the segment end), with the integrator's
    step rule."""
    span = t_end - t_start
    n = max(1, int(math.ceil(span / dt_target - 1e-12)))
    edges = t_start + np.arange(n + 1) * (span / n)
    edges[n] = t_end
    total = np.ones(len(w), dtype=complex)
    for i in range(n):
        ta, tb = float(edges[i]), float(edges[i + 1])
        step = tb - ta
        end = schedule.rate(tb) if i == n - 1 else schedule.rate_right(tb)
        m1, mid, m2 = (-1j * w - g * d for g in (
            schedule.rate_right(ta), schedule.rate_right(0.5 * (ta + tb)),
            end))
        k1 = m1
        k2 = mid * (1.0 + 0.5 * step * k1)
        k3 = mid * (1.0 + 0.5 * step * k2)
        k4 = m2 * (1.0 + step * k3)
        total = total * (1.0 + (step / 6.0) * (k1 + 2.0 * (k2 + k3) + k4))
    return total


ONSET = NoiseSchedule.constant(2.0, t0=0.3)
EQUAL_KNOTS = NoiseSchedule.piecewise_linear(
    [(0.0, 0.0), (0.2, 1.5), (0.7, 1.5), (1.0, 0.5)])


@settings(max_examples=60)
@given(st.lists(st.tuples(st.floats(0.0, 20.0), st.floats(0.0, 16.0)),
                min_size=1, max_size=6),
       schedules(rate=st.floats(0.0, 5.0)), st.floats(0.0, 2.0),
       st.floats(0.01, 1.5), st.floats(1e-3, 0.5))
@example([(3.0, 4.0), (1.0, 0.0)], ONSET, 0.3, 0.7, 1e-3)
@example([(3.0, 4.0), (0.0, 1.0)], ONSET, 0.0, 0.3, 1e-3)
@example([(2.0, 1.0), (5.0, 9.0)], EQUAL_KNOTS, 0.2, 0.5, 1e-3)
@example([(2.0, 1.0), (5.0, 9.0)], EQUAL_KNOTS, 1.0, 0.6, 1e-3)
@example([(4.0, 16.0), (8.0, 16.0)], NoiseSchedule.constant(10.0), 0.0,
         1.0, 1e-4)
def test_rk4_segment_equals_a_per_step_loop(pairs, sch, t_start, span, dt):
    # the examples: a constant rate from its onset, the zero-rate stretch
    # before an onset, a stretch between equal knots, the stretch after
    # the last knot, and a decay exponent of d Gamma = 160.  The run is
    # cut at the breakpoints inside it, each piece a smooth segment.
    w, d = np.array(pairs).T
    t_end = t_start + span
    got, = _rk4_gains(w, d, sch, np.array([t_start, t_end]), dt)
    want, lo = 1.0, t_start
    for cut in [p for p in sch.breakpoints(t_end) if p > t_start] + [t_end]:
        want = want * stepwise_rk4_gain(w, d, sch, lo, cut, dt)
        lo = cut
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


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
    states = list(trajectory(
        EvolutionSpec(model=model, schedule=sch, t_final=t, dt=dt), rho0,
        samples))
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
    end = list(trajectory(spec, rho0, 2))[-1]
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


@settings(max_examples=60)
@given(st.integers(2, 64), st.integers(1, 5), st.floats(0.1, 3.0),
       st.integers(0, 2 ** 32 - 1))
def test_pair_table_matches_the_unique_columns(dim, values, omega, seed):
    # levels drawn from a few values, so (|w|, d) columns tie often (and
    # w and -w give one |w|): the sorted table equals np.unique's, with
    # the same inverse, bit for bit
    rng = np.random.default_rng(seed)
    eps, lam = rng.choice(rng.normal(size=(2, values)).ravel(), (2, dim))
    model = types.SimpleNamespace(spectrum=eps, lindblad_spectrum=lam,
                                  omega=omega)
    w_abs, d, (j, k), inverse, negative = _pair_table(model)
    w = omega * (eps[j] - eps[k])
    (want_w, want_d), want_inverse = np.unique(
        np.stack([np.abs(w), (lam[j] - lam[k]) ** 2]), axis=1,
        return_inverse=True)
    assert bits(w_abs) == bits(want_w) and bits(d) == bits(want_d)
    np.testing.assert_array_equal(inverse, want_inverse.ravel())
    assert inverse.dtype == want_inverse.dtype
    np.testing.assert_array_equal(negative, w < 0.0)


@settings(max_examples=40)
@given(commuting_models(), schedules(rate=st.floats(0.0, 5.0)),
       st.floats(0.1, 1.5), st.integers(2, 6))
@example(DEEP_TAIL, NoiseSchedule.constant(5.0, t0=0.5), 1.0, 3)
@example(NEAR_DEGENERATE, KNOTS_INSIDE, 1.0, 5)
def test_trajectory_keeps_trace_and_positivity(model, sch, t, samples):
    states = list(trajectory(
        EvolutionSpec(model=model, schedule=sch, t_final=t),
        cat_initial_state(model), samples))
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
    drho = state_derivative(model, sch, rho_t, t, "time")
    _, report = sld_and_qfi(rho_t, drho, "time")
    want = qfi_cat(cat_spec_for(model), sch, t, "time").value
    assert math.isclose(report.value, want, rel_tol=1e-6)


@pytest.mark.parametrize("rate", [2.0, 5.0, 10.0])
def test_numeric_time_qfi_in_the_deep_tail(rate):
    # x = 64, 160 and 320: the coherence e^{-x/2} sits far below the
    # round-off of the O(1) populations in the model's Haar frame.  The
    # state is written in the model's eigenbasis, so the derivative
    # keeps it.
    model, sch, t = DEEP_TAIL, NoiseSchedule.constant(rate), 1.0
    rho_t = evolve_lindblad_numeric(
        EvolutionSpec(model=model, schedule=sch, t_final=t),
        cat_initial_state(model))
    drho = state_derivative(model, sch, rho_t, t, "time")
    _, report = sld_and_qfi(rho_t, drho, "time")
    want = qfi_cat(cat_spec_for(model), sch, t, "time").value
    assert math.isclose(report.value, want, rel_tol=1e-6)


def commutator_norms(a, b, m):
    """(||[A, m]||_2^2, ||[B, [B, m]]||_2^2) of dense matrices."""
    c = a @ m - m @ a
    k = b @ m - m @ b
    return np.sum(np.abs(c) ** 2), np.sum(np.abs(b @ k - k @ b) ** 2)


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
    # trajectory state is written in the model's basis and rotates out
    # to its matrix; the same state built dense is rotated in.
    run = EvolutionSpec(model=model, schedule=sch, t_final=t)
    h, l, v = model.hamiltonian(), model.lindblad.matrix, model.basis
    tol = 1e-12 + 1e3 * frame_residual(model)
    rate, dose = sch.rate(t), sch.integral(t)
    for _, rho in list(trajectory(run, cat_initial_state(model),
                                  samples))[1:]:
        assert rho.basis is v
        form, support = model.eigenbasis_block(rho)
        vs = v if support is None else v[:, list(support)]
        assert np.max(np.abs(vs @ form @ vs.conj().T - rho.matrix)) <= 1e-14
        m = rho.matrix
        n_h, n_ll = commutator_norms(h, l, m)
        for state in (rho, DensityMatrix(m, positivity_tol=1e-7)):
            np.testing.assert_allclose(
                state_derivative(model, sch, state, t, "time"),
                _dense_rhs(h, l, rate, m), rtol=0.0, atol=tol)
            assert math.isclose(
                qfi_lower_bound(model, sch, state, t, "time").value,
                n_h + rate * rate * n_ll, rel_tol=1e-9, abs_tol=tol)
            if not model.energy_lindblad:
                continue
            w = model.omega
            k = h @ m - m @ h
            np.testing.assert_allclose(
                state_derivative(model, sch, state, t, "omega"),
                -1j * (t / w) * k - (2.0 * dose / w) * (h @ k - k @ h),
                rtol=0.0, atol=tol)
            _, n_hh = commutator_norms(h, h, m)  # L = H
            assert math.isclose(
                qfi_lower_bound(model, sch, state, t, "omega").value,
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
    drho = state_derivative(model, sch, rho_t, t, "omega")
    _, report = sld_and_qfi(rho_t, drho, "omega")
    want = qfi_cat(cat_spec_for(model), sch, t, "omega").value
    assert math.isclose(report.value, want, rel_tol=1e-6)


@settings(max_examples=40)
@given(commuting_models(), schedules(rate=st.floats(0.0, 2.0)),
       st.floats(0.1, 1.5))
@example(DEEP_TAIL, NoiseSchedule.constant(5.0), 1.0)
@example(NEAR_DEGENERATE, KNOTS_INSIDE, 1.0)
@example(COMPLEX_LIFT, NoiseSchedule.constant(1.0, t0=0.5), 1.0)
def test_bound_is_the_squared_norm_of_the_state_derivative(model, sch, t):
    # the bound and d rho / d lambda share (a, b); the cross term of
    # ||-i a [H, rho] - b [L, [L, rho]]||_2^2 vanishes, since both
    # commutators scale a coherence by a real factor
    rho = evolve_exact(EvolutionSpec(model=model, schedule=sch, t_final=t),
                       cat_initial_state(model))
    for parameter in ["time", "omega"] if model.energy_lindblad else \
            ["time"]:
        drho = np.asarray(state_derivative(model, sch, rho, t, parameter))
        assert math.isclose(
            qfi_lower_bound(model, sch, rho, t, parameter).value,
            float(np.sum(np.abs(drho) ** 2)), rel_tol=1e-12, abs_tol=1e-300)


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
    drho = state_derivative(model, sch, rho_t, t, parameter)
    bound = qfi_lower_bound(model, sch, rho_t, t, parameter).value
    _, report = sld_and_qfi(rho_t, drho, parameter)
    assert report.value >= bound * (1.0 - 1e-9)


# ------------------------------------------ diagonal models and their twins

@st.composite
def diagonal_twins(draw):
    """(model, twin): a custom model of dim 2..64 given diagonal, with
    distinct h levels in a drawn order and energy dephasing or an
    explicit L on a grid of levels (ties included), so it is held as its
    spectra; and its dense twin, the same levels in a Haar-random frame."""
    dim = draw(st.integers(2, 64))
    gaps = draw(st.lists(st.floats(0.01, 1.0), min_size=dim - 1,
                         max_size=dim - 1))
    order = list(draw(st.permutations(range(dim))))
    eps = (np.cumsum([0.0, *gaps]) - draw(st.floats(0.0, 5.0)))[order]
    lam = None if draw(st.booleans()) else np.array(draw(st.lists(
        st.integers(-4, 4), min_size=dim, max_size=dim))) / 4.0
    omega = draw(st.floats(0.5, 2.0))
    q = haar_unitary(np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))),
                     dim)

    def build(frame):
        lind = "energy" if lam is None else Operator(frame(lam))
        return build_sensor_model("custom", dim, omega, lind,
                                  h=Operator(frame(eps)))

    model = build(lambda d: np.diag(d).astype(complex))
    return model, build(lambda d: framed(q, d))


@settings(max_examples=30)
@given(diagonal_twins(), st.floats(0.2, 2.0), st.floats(0.3, 1.5))
def test_a_diagonal_model_agrees_with_its_dense_twin(twins, rate, t):
    # the spectra alone against eigh of the same levels in a Haar frame:
    # the cat spec, the exact and RK4 branch blocks, the numeric SLD QFI
    # and the commutator bounds agree within 1e-12 relative
    model, twin = twins
    assert model.basis is None and twin.basis is not None
    want, got = cat_spec_for(twin), cat_spec_for(model)
    for name in ("delta_e", "delta_l", "omega"):
        assert rel_gap(getattr(got, name), getattr(want, name)) <= 1e-12
    sch = NoiseSchedule.constant(rate)
    states = []
    for m in (model, twin):
        run = EvolutionSpec(model=m, schedule=sch, t_final=t)
        rho0 = cat_initial_state(m)
        assert rho0.array.shape == (2, 2)
        states.append((evolve_exact(run, rho0),
                       [rho for _, rho in trajectory(run, rho0, 5)]))
    (exact, path), (twin_exact, twin_path) = states
    assert rel_gap(exact.array, twin_exact.array) <= 1e-12
    for rho, twin_rho in zip(path, twin_path):
        assert rel_gap(rho.array, twin_rho.array) <= 1e-12
    parameters = ["time", "omega"] if model.energy_lindblad else ["time"]
    for parameter in parameters:
        got, want = ([sld_and_qfi(rho, state_derivative(m, sch, rho, t,
                                                        parameter),
                                  parameter)[1].value,
                      qfi_lower_bound(m, sch, rho, t, parameter).value]
                     for m, rho in ((model, path[-1]),
                                    (twin, twin_path[-1])))
        assert rel_gap(got, want) <= 1e-12


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


# ------------------------------------------------ scan, sweep, evolve text

# both sides of ratio 1 down to the subnormals, 1 itself, the largest
# finite magnitudes and the onset divergence
TEXT_VALUES = (0.0, 5e-324, 1e-310, math.nextafter(1.0, 0.0), 1.0, 1.7e308,
               math.inf)
text_ratios = st.sampled_from(TEXT_VALUES) | st.floats(0.0, math.inf)
table_shapes = st.tuples(st.integers(1, 12), st.integers(1, 12))


def reference_table_csv(table):
    """``HeatmapTable.to_csv`` as a loop over rows and cells."""
    lines = [f"# parameter={table.parameter} x={table.x_name} "
             f"y={table.y_name}", "x,y,ratio,region"]
    xs = [f"{x!r}," for x in table.x_values.tolist()]
    for y, row in zip(table.y_values.tolist(), table.ratios):
        y_col = f"{y!r},"
        lines.extend(f"{x}{y_col}{ratio!r},"
                     f"{'enhanced' if ratio >= 1.0 else 'hindered'}"
                     for x, ratio in zip(xs, row.tolist()))
    return "\n".join(lines) + "\n"


def reference_svg_cells(ratios):
    """The heatmap's cell rects as a loop over rows and cells."""
    ny, nx = ratios.shape
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
    cell_w, cell_h = plot_w / nx, plot_h / ny
    rects = []
    for j in range(ny):
        for i in range(nx):
            r = ratios[j, i]
            log = float(np.log10(r)) if r > 0.0 else LOG_FLOOR
            rects.append(
                f'<rect x="{MARGIN_LEFT + i * cell_w:.2f}" '
                f'y="{MARGIN_TOP + plot_h - (j + 1) * cell_h:.2f}" '
                f'width="{cell_w + 0.5:.2f}" height="{cell_h + 0.5:.2f}" '
                f'fill="{reference_color(log)}"/>')
    return rects


@st.composite
def text_tables(draw):
    ny, nx = draw(table_shapes)
    axis = st.floats(allow_nan=False, allow_infinity=False)
    cells = draw(st.lists(text_ratios, min_size=ny * nx, max_size=ny * nx))
    return HeatmapTable(
        parameter=draw(st.sampled_from(PARAMS)), x_name="t", y_name="gamma",
        x_values=np.array(draw(st.lists(axis, min_size=nx, max_size=nx))),
        y_values=np.array(draw(st.lists(axis, min_size=ny, max_size=ny))),
        ratios=np.array(cells).reshape(ny, nx))


@given(text_tables())
@example(HeatmapTable(parameter="time", x_name="t", y_name="gamma",
                      x_values=np.array([0.5]), y_values=np.array([0.0]),
                      ratios=np.array([[1.0]])))
def test_table_csv_equals_the_row_loop(table):
    assert table.to_csv() == reference_table_csv(table)


@given(text_tables(), st.sampled_from(("", "advantage ratio (time)")))
def test_svg_cells_equal_the_cell_loop(table, title):
    ny, nx = table.ratios.shape
    lines = render_heatmap_svg(table, title=title).split("\n")
    head = 3 if title else 2
    assert lines[head:head + ny * nx] == reference_svg_cells(table.ratios)
    assert lines[head + ny * nx].startswith(("<line ", "<rect x=\"80\""))
    assert lines[-2:] == ["</svg>", ""]


@given(st.integers(1, 500), st.integers(1, 7), st.integers(0, 2 ** 32 - 1))
@example(1, 1, 0)
def test_cli_csv_equals_the_row_loop(rows, width, seed):
    # random doubles of every bit pattern (NaN, subnormals, both signs,
    # inf) and the special values, as lists and as arrays
    rng = np.random.default_rng(seed)
    columns = []
    for c in range(width):
        bits = rng.integers(0, 2 ** 64, rows, dtype=np.uint64, endpoint=False)
        col = np.where(rng.random(rows) < 0.5,
                       rng.choice(TEXT_VALUES, rows), bits.view(np.float64))
        columns.append(col.tolist() if c % 2 else col)
    header = ",".join(f"c{c}" for c in range(width))
    want = [header] + [",".join(map(repr, row)) for row in
                       zip(*(np.asarray(c).tolist() for c in columns))]
    assert _csv(header, columns) == "\n".join(want) + "\n"


# ------------------------------------------------ the CLI contract over argv

# extreme values, then ordinary ones, so that draws also reach exit 0
ARGV_FLOATS = ("0", "-0.0", "5e-324", "1e-310", "1e-200", "1e-150", "0.5",
               "1", "2", "3.7", "1e20", "1e300", "1.7e308", "inf", "-inf",
               "nan", "-1", "0.01", "0.1", "0.2", "0.25", "0.75", "1.5",
               "2.5", "3", "4", "5", "8", "10", "20", "50", "100")
MODEL_FILES = [str(pathlib.Path(__file__).resolve().parents[1] / "models"
                   / name) for name in ("ghz2.json", "ghz3.json",
                                        "noon2.json")]


@st.composite
def schedule_texts(draw, num):
    """Every ``--schedule`` variant, with numbers drawn from ``num``."""
    kind = draw(st.sampled_from(("const", "ramp", "pw")))
    if kind == "pw":
        return "pw:" + ";".join(f"{draw(num)}:{draw(num)}"
                                for _ in range(draw(st.integers(2, 3))))
    schedule = f"{kind}:{draw(num)}"
    if draw(st.booleans()):
        schedule += f",t0={draw(num)}"
    return schedule


def out_flag(draw):
    return ["--out", "{tmp}/o.out"] if draw(st.booleans()) else []


@st.composite
def rk4_argv(draw):
    """argv of ``evolve``, ``qfi`` and ``bound``: a shipped model, every
    schedule variant and every float from ``ARGV_FLOATS``; ``--t=<v>``
    keeps a value like -inf from reading as an option."""
    num = st.sampled_from(ARGV_FLOATS)
    schedule = draw(schedule_texts(num))
    command = draw(st.sampled_from(("evolve", "qfi", "bound")))
    argv = [command, "--model", draw(st.sampled_from(MODEL_FILES)),
            "--schedule", schedule, f"--t={draw(num)}", *out_flag(draw)]
    if draw(st.booleans()):
        argv.append(f"--dt={draw(num)}")
    if command == "evolve":
        samples = draw(st.sampled_from((-1, 0, 1, 2, 3, 17, 2 ** 20 + 1)))
        return argv + ["--samples", str(samples)]
    argv += ["--param", draw(st.sampled_from(PARAMS))]
    if command == "qfi":
        argv += ["--method", draw(st.sampled_from(("numeric", "bound",
                                                   "analytic")))]
    return argv


@st.composite
def closed_form_argv(draw):
    """argv of ``validate``, ``estimate``, ``scan`` and ``optimize``, with
    every inline grammar; counts beyond the row cap, or not integers, are
    drawn too, and ``estimate`` sometimes gets both --t and --sweep."""
    num = st.sampled_from(ARGV_FLOATS)
    count = st.sampled_from(("2", "3", "4", "5", "0", "1", "3.0", "2097152"))

    def span():  # two numbers, mostly in order, as lo:hi
        return ":".join(sorted((draw(num), draw(num)), key=float))

    command = draw(st.sampled_from(("validate", "estimate", "scan",
                                    "optimize")))
    model = ["--model", draw(st.sampled_from(MODEL_FILES))]
    if command == "validate":
        return ["validate", *model, *out_flag(draw)]
    param = ["--param", draw(st.sampled_from(PARAMS))]
    if command == "estimate":
        argv = ["estimate", *model, "--schedule", draw(schedule_texts(num)),
                *param, *out_flag(draw)]
        times = draw(st.sampled_from(("t", "sweep", "both")))
        if times != "sweep":
            argv.append(f"--t={draw(num)}")
        if times != "t":
            argv += ["--sweep", f"{span()}:{draw(count)}"]
        return argv
    if command == "scan":
        fields = [f"{axis}={draw(st.sampled_from(names))}:{span()}:"
                  f"{draw(count)}"
                  for axis, names in (("x", X_AXES),
                                      ("y", ("gamma", "gamma_dot")))]
        fields += [f"{key}={draw(num)}" for key in ("deltaE", "deltaL",
                                                    "omega", "t0")
                   if draw(st.booleans())]
        fields.append(f"scale={draw(st.sampled_from(('log', 'linear')))}")
        argv = ["scan", *param, "--grid", ";".join(fields), "--out",
                "{tmp}/o.csv"]
        return argv + (["--svg", "{tmp}/o.svg"] if draw(st.booleans())
                       else [])
    kind = draw(st.sampled_from(sorted(KINDS)))
    box = ";".join(f"{key}={span() if draw(st.booleans()) else draw(num)}"
                   for key in ("t", KINDS[kind]))
    argv = ["optimize", *model, *param, "--box", box, "--schedule-kind",
            kind, *out_flag(draw)]
    return argv + ([f"--t0={draw(num)}"] if draw(st.booleans()) else [])


def check_cli_contract(argv):
    """Exit 0 with empty stderr, or exit 1 or 2 with one "error: " line;
    never a warning, or a NaN on stdout or in an output file."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        with warnings.catch_warnings(record=True) as seen, \
                contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = parse_and_run([a.format(tmp=tmp) for a in argv])
        files = [p.read_bytes() for p in pathlib.Path(tmp).iterdir()]
    assert code in (0, 1, 2)
    assert [str(w.message) for w in seen] == []
    assert "NaN" not in out.getvalue()
    assert not [text for text in files if b"NaN" in text]
    if code:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
    else:
        assert err.getvalue() == ""


@settings(max_examples=300)
@given(rk4_argv())
@example(["evolve", "--model", MODEL_FILES[0], "--schedule", "const:1",
          "--t=5e-324", "--dt=1", "--samples", "5"])
# a knot segment of width 5e-324: its line overflowed past the last knot
@example(["bound", "--model", MODEL_FILES[0], "--schedule", "pw:0:0;5e-324:0",
          "--t=0.5", "--param", "time"])
@example(["evolve", "--model", MODEL_FILES[2], "--schedule", "const:80",
          "--t=4", "--dt=0.5", "--samples", "3"])
@example(["qfi", "--model", MODEL_FILES[0], "--schedule", "const:0.5",
          "--t=2", "--dt=0.5", "--param", "time", "--method", "numeric"])
# --dt under the closed form used to be dropped, even --dt=nan
@example(["qfi", "--model", MODEL_FILES[0], "--schedule", "const:1",
          "--t=0.5", "--dt=1e-3", "--param", "time", "--method", "analytic"])
@example(["qfi", "--model", MODEL_FILES[0], "--schedule", "const:1",
          "--t=0.5", "--dt=nan", "--param", "time", "--method", "analytic"])
# an SLD QFI past the float range: overflow warnings, then exit 1 or an
# Infinity on exit 0
@example(["qfi", "--model", MODEL_FILES[0], "--schedule", "const:1e300",
          "--t=1e-310", "--param", "time", "--method", "numeric"])
def test_rk4_commands_end_in_the_cli_contract(argv):
    check_cli_contract(argv)


@settings(max_examples=300)
@given(closed_form_argv())
# a zero-rate row where the unit ramp's dose is inf used to be 0 x inf
@example(["scan", "--param", "time", "--grid",
          "x=t:0:1e300:2;y=gamma_dot:0:1:2;scale=linear", "--out",
          "{tmp}/z.csv"])
@example(["optimize", "--model", MODEL_FILES[2], "--param", "time", "--box",
          "t=1e20:1e300;gamma_dot=0", "--schedule-kind", "linear_ramp",
          "--t0=1"])
@example(["optimize", "--model", MODEL_FILES[2], "--param", "omega", "--box",
          "t=1e20:1e300;gamma_dot=0", "--schedule-kind", "linear_ramp",
          "--t0=1"])
# --t used to be dropped when --sweep was given
@example(["estimate", "--model", MODEL_FILES[0], "--schedule", "const:1",
          "--param", "time", "--t=0.5", "--sweep", "0:1:3"])
# earlier repros: a non-finite box bound, a subnormal QFI's inverse, a
# ramp dose past the float range, an axis division before the checks
@example(["optimize", "--model", MODEL_FILES[1], "--param", "time", "--box",
          "t=2:inf;gamma=0.5:1", "--schedule-kind", "constant", "--t0=0.5"])
@example(["estimate", "--model", MODEL_FILES[0], "--schedule", "ramp:1e300",
          "--param", "omega", "--t=1e-310"])
@example(["optimize", "--model", MODEL_FILES[2], "--param", "omega", "--box",
          "t=0:1.7e308;gamma_dot=3.7:1e300", "--schedule-kind",
          "linear_ramp"])
@example(["scan", "--param", "omega", "--grid", "x=omega_t:-1:1e20:2;"
          "y=gamma_dot:5e-324:1:2;scale=linear;deltaE=3.7;deltaL=1.7e308;"
          "omega=1e-310;t0=0", "--out", "{tmp}/o.csv"])
@example(["scan", "--param", "omega", "--grid", "x=omega_t:-1:1e20:2;"
          "y=gamma_dot:5e-324:1:2;scale=linear;deltaE=3.7;deltaL=1e150;"
          "omega=1e-310;t0=0", "--out", "{tmp}/o.csv"])
# a noise gap whose square overflows: an OverflowError, exit 3
@example(["scan", "--param", "time", "--grid", "x=t:0:5e-324:2;"
          "y=gamma:0:5e-324:2;deltaL=1e300;scale=linear", "--out",
          "{tmp}/o.csv"])
@example(["scan", "--param", "omega", "--grid", "x=omega_t:2.5:50:4;"
          "y=gamma:4:50:4;deltaE=1e300;scale=linear", "--out", "{tmp}/o.csv"])
def test_closed_form_commands_end_in_the_cli_contract(argv):
    check_cli_contract(argv)
