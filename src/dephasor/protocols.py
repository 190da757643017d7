"""Noise-advantage analysis: where dephasing beats the noiseless sensor.

The advantage ratio is F_open / F_cl evaluated from the exact closed
forms.  Two published operating points come with quoted gains:

  linear ramp, read out at the half-coherence window
      Delta t = sqrt(ln 2 / (gdot dL^2)):   gain 1/2 + gdot dL^2 / dE^2
  constant rate, read out at t = ln 2 / (2 g dE^2):
      gain 1/2 + 4 g^2 dE^2

The constant-rate gain is exact.  The quoted ramp-window gain is not:
direct evaluation of the decay law at that window gives
1/2 + ln(2) gdot dL^2 / dE^2.  ``advantage_ratio`` always reports the
exact value; ``ramp_window_gain`` reproduces the quoted formula and
documents the discrepancy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dynamics import NoiseSchedule, scalar_or_array, times
from .fisher import check_parameter, law_at, ratio_law
from .hilbert import CatSpec, ValidationError

LN2 = math.log(2.0)
GOLDEN_INV = (math.sqrt(5.0) - 1.0) / 2.0

X_AXES = ("t", "omega_t")
Y_AXES = ("gamma", "gamma_dot")


def advantage_ratio(spec: CatSpec, schedule: NoiseSchedule, t,
                    parameter: str):
    """F_open / F_cl for the cat sensor, from the exact closed forms.

    Values above 1 mean the noise helps; ``fisher.ratio_law`` gives the
    limits.  Takes a time or an array of times (``fisher.law_at``)."""
    if spec.delta_e <= 0.0:
        raise ValidationError("the ratio needs a positive energy gap")
    return law_at(ratio_law, spec, schedule, t, parameter)


def ramp_window_gain(spec: CatSpec, gamma_dot: float) -> float:
    """Quoted time-QFI gain for a ramp read at the half-coherence window.

    Returns 1/2 + gdot dL^2 / dE^2.  Note that evaluating the exact
    decay law at the window yields 1/2 + ln(2) gdot dL^2 / dE^2 instead;
    the quoted form overstates the noise term by 1/ln(2) ~ 1.44.  See
    ``advantage_ratio`` for the exact value.
    """
    if gamma_dot <= 0.0:
        raise ValidationError("ramp slope must be positive")
    if spec.delta_e <= 0.0:
        raise ValidationError("the gain needs a positive energy gap")
    return 0.5 + gamma_dot * spec.delta_l ** 2 / spec.delta_e ** 2


def constant_rate_gain(spec: CatSpec, gamma: float) -> float:
    """Frequency-QFI gain at the matched time t = ln2/(2 g dE^2), exact."""
    if gamma <= 0.0:
        raise ValidationError("rate must be positive")
    return 0.5 + 4.0 * gamma * gamma * spec.delta_e ** 2


class RampWindow(NamedTuple):
    window: float
    advantage_possible: bool
    limit: float


class SensingTime(NamedTuple):
    time: float
    advantage_possible: bool
    limit: float


def optimal_window_ramp(spec: CatSpec, gamma_dot: float) -> RampWindow:
    """Half-coherence window sqrt(ln2 / (gdot dL^2)) after the onset.

    ``advantage_possible`` records whether the window falls below the
    threshold sqrt(2) ln2 / dE, the condition gdot dL^2 / dE^2 >
    1/(2 ln2) under which the exact gain 1/2 + ln2 gdot dL^2 / dE^2 at
    the window exceeds 1.  The window fixes the decayed coherence at
    1/2; it is an operating point, not a global maximum.
    """
    if gamma_dot <= 0.0:
        raise ValidationError("ramp slope must be positive")
    if spec.delta_l <= 0.0:
        raise ValidationError("the window needs a positive noise gap")
    window = math.sqrt(LN2 / (gamma_dot * spec.delta_l ** 2))
    if spec.delta_e <= 0.0:
        return RampWindow(window, True, math.inf)
    limit = math.sqrt(2.0) * LN2 / spec.delta_e
    return RampWindow(window, window < limit, limit)


def optimal_time_constant(spec: CatSpec, gamma: float) -> SensingTime:
    """Matched sensing time ln2 / (2 g dE^2) for a constant rate.

    ``advantage_possible`` is the condition 4 g^2 dE^2 > 1/2, which is
    the same statement as the time falling below sqrt(2) ln2 / dE.
    """
    if gamma <= 0.0:
        raise ValidationError("rate must be positive")
    if spec.delta_e <= 0.0:
        raise ValidationError("the matched time needs a positive energy gap")
    time = LN2 / (2.0 * gamma * spec.delta_e ** 2)
    limit = math.sqrt(2.0) * LN2 / spec.delta_e
    return SensingTime(time, 4.0 * gamma * gamma * spec.delta_e ** 2 > 0.5,
                       limit)


@dataclass(frozen=True)
class GridSpec:
    """Rectangular scan specification.

    x is sensing time (raw or in units of 1/omega), y is the rate (or
    ramp slope); both axes share one scale.  ``spec`` holds everything
    kept constant across the grid.
    """

    x_name: str
    x_min: float
    x_max: float
    x_steps: int
    y_name: str
    y_min: float
    y_max: float
    y_steps: int
    scale: str
    spec: CatSpec
    t0: float = 0.0

    def __post_init__(self):
        if self.x_name not in X_AXES:
            raise ValidationError(f"unknown x axis {self.x_name!r}")
        if self.y_name not in Y_AXES:
            raise ValidationError(f"unknown y axis {self.y_name!r}")
        if self.scale not in ("linear", "log"):
            raise ValidationError(f"unknown scale {self.scale!r}")
        for name, lo, hi, steps in (("x", self.x_min, self.x_max,
                                     self.x_steps),
                                    ("y", self.y_min, self.y_max,
                                     self.y_steps)):
            if steps < 2:
                raise ValidationError(f"{name} axis needs at least 2 steps")
            if not (lo < hi):
                raise ValidationError(f"{name} axis range is empty")
            if self.scale == "log" and lo <= 0.0:
                raise ValidationError("log scale requires positive bounds")
        if self.t0 < 0.0:
            raise ValidationError("t0 must be nonnegative")

    def x_values(self) -> np.ndarray:
        return _axis(self.x_min, self.x_max, self.x_steps, self.scale)

    def y_values(self) -> np.ndarray:
        return _axis(self.y_min, self.y_max, self.y_steps, self.scale)


def _axis(lo: float, hi: float, steps: int, scale: str) -> np.ndarray:
    if scale == "log":
        return np.geomspace(lo, hi, steps)
    return np.linspace(lo, hi, steps)


def default_fig_grid() -> GridSpec:
    """The survey box: omega t over 1e-3..10, gamma over 1e-2..1e2,
    log-log, with dE = 2 omega and a constant schedule from t = 0."""
    return GridSpec(x_name="omega_t", x_min=1e-3, x_max=10.0, x_steps=81,
                    y_name="gamma", y_min=1e-2, y_max=1e2, y_steps=61,
                    scale="log",
                    spec=CatSpec(delta_e=2.0, delta_l=2.0, omega=1.0))


@dataclass(frozen=True, eq=False)
class HeatmapTable:
    """Scan output: the (ny, nx) ratio array, row j at y_values[j]."""

    parameter: str
    x_name: str
    y_name: str
    x_values: np.ndarray
    y_values: np.ndarray
    ratios: np.ndarray

    @property
    def rows(self) -> list:
        """(x, y, ratio, region) per cell, y-major order."""
        xs = self.x_values.tolist()
        return [(x, y, ratio, _region(ratio))
                for y, row in zip(self.y_values.tolist(),
                                  self.ratios.tolist())
                for x, ratio in zip(xs, row)]

    def to_csv(self) -> str:
        # Fixed header; the axis meaning travels in a comment line so the
        # four column names stay stable for downstream parsers.
        lines = [
            f"# parameter={self.parameter} x={self.x_name} y={self.y_name}",
            "x,y,ratio,region",
        ]
        xs = [f"{x!r}," for x in self.x_values.tolist()]
        for y, row in zip(self.y_values.tolist(), self.ratios):
            y_col = f"{y!r},"
            lines.extend(f"{x}{y_col}{ratio!r},{_region(ratio)}"
                         for x, ratio in zip(xs, row.tolist()))
        return "\n".join(lines) + "\n"

    def ratio_grid(self) -> np.ndarray:
        return self.ratios


def _region(ratio: float) -> str:
    return "enhanced" if ratio >= 1.0 else "hindered"


def _rate_schedule(rate_key: str, value: float, t0: float) -> NoiseSchedule:
    """A constant rate for 'gamma', a linear ramp for 'gamma_dot'."""
    if rate_key == "gamma":
        return NoiseSchedule.constant(value, t0=t0)
    return NoiseSchedule.linear_ramp(value, t0=t0)


def heatmap_scan(grid: GridSpec, parameter: str) -> HeatmapTable:
    """Evaluate the advantage ratio over the grid, one call per y row.

    Cells at or above ratio 1 are classified 'enhanced', below it
    'hindered'.
    """
    check_parameter(parameter)
    xs = grid.x_values()
    ys = grid.y_values()
    ts = xs / grid.spec.omega if grid.x_name == "omega_t" else xs
    ratios = np.empty((len(ys), len(xs)))
    for j, y in enumerate(ys.tolist()):
        ratios[j] = advantage_ratio(
            grid.spec, _rate_schedule(grid.y_name, y, grid.t0), ts, parameter)
    ratios.flags.writeable = False
    return HeatmapTable(parameter=parameter, x_name=grid.x_name,
                        y_name=grid.y_name, x_values=xs, y_values=ys,
                        ratios=ratios)


@dataclass(frozen=True)
class OptimumReport:
    """Result of a ratio maximization."""

    best_params: dict
    best_ratio: float
    iterations: int
    method: str

    @property
    def advantage(self) -> bool:
        """True when the best cell actually beats the noiseless sensor."""
        return self.best_ratio > 1.0

    def to_dict(self) -> dict:
        return {"best_params": self.best_params,
                "best_ratio": self.best_ratio,
                "advantage": self.advantage,
                "iterations": self.iterations, "method": self.method}


def golden_section_max(f, lo: float, hi: float, rel_tol: float = 1e-6,
                       max_iter: int = 200) -> tuple[float, float, int]:
    """Golden-section maximization of a unimodal function on [lo, hi]."""
    if not lo < hi:
        raise ValidationError("empty bracket")
    a, b = lo, hi
    c = b - GOLDEN_INV * (b - a)
    d = a + GOLDEN_INV * (b - a)
    fc, fd = f(c), f(d)
    it = 2
    while it < max_iter and (b - a) > rel_tol * max(abs(a), abs(b), 1e-300):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN_INV * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN_INV * (b - a)
            fd = f(d)
        it += 1
    x = c if fc >= fd else d
    return x, max(fc, fd), it


COARSE_POINTS = 64


def maximize_ratio(spec: CatSpec, parameter: str, box: dict, *,
                   schedule_kind: str = "constant", t0: float = 0.0,
                   coarse: int = COARSE_POINTS,
                   rel_tol: float = 1e-6) -> OptimumReport:
    """Maximize the advantage ratio over a box of (t, rate) values.

    ``box`` maps axis names ('t' plus 'gamma' or 'gamma_dot') to a fixed
    float or a (low, high) range.  A coarse grid of at least ``coarse``
    points per ranged axis locates the basin, then golden-section
    refinement polishes each ranged axis in turn.  The result never
    falls below any coarse grid evaluation.
    """
    check_parameter(parameter)
    if schedule_kind not in ("constant", "linear_ramp"):
        raise ValidationError(f"unknown schedule kind {schedule_kind!r}")
    rate_key = "gamma" if schedule_kind == "constant" else "gamma_dot"
    if set(box) != {"t", rate_key}:
        raise ValidationError(
            f"box must name exactly 't' and {rate_key!r}")
    if coarse < 64:
        raise ValidationError("coarse grid needs at least 64 points per axis")

    def evaluate(t, rate_value: float):
        r = advantage_ratio(spec, _rate_schedule(rate_key, rate_value, t0),
                            times(t), parameter)
        return scalar_or_array(t, np.where(np.isinf(r), -math.inf, r))

    ranged: dict[str, tuple[float, float]] = {}
    fixed: dict[str, float] = {}
    for key, val in box.items():
        if isinstance(val, (tuple, list)):
            lo, hi = float(val[0]), float(val[1])
            lo_ok = lo >= 0.0 if key == "t" else lo > 0.0
            if not lo_ok or not lo < hi:
                raise ValidationError(f"bad range for {key!r}")
            ranged[key] = (lo, hi)
        else:
            fixed[key] = float(val)
    if not ranged:
        raise ValidationError("at least one axis must be a range")

    axes = {key: np.geomspace(lo, hi, coarse) if lo > 0.0
            else np.linspace(lo, hi, coarse)
            for key, (lo, hi) in ranged.items()}

    # One ratio call per rate value; argmax keeps the first maximum.
    keys = sorted(ranged)
    t_axis = axes.get("t", np.array([fixed.get("t")]))
    rate_axis = axes.get(rate_key, [fixed.get(rate_key)])
    evaluations = len(t_axis) * len(rate_axis)
    best_val = -math.inf
    best_at: dict[str, float] = {}
    for g in rate_axis:
        vals = evaluate(t_axis, float(g))
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            cell = {"t": float(t_axis[i]), rate_key: float(g)}
            best_val = float(vals[i])
            best_at = {k: cell[k] for k in keys}
    if not best_at:  # only the onset divergence maps a cell to -inf
        raise ValidationError(
            f"every coarse cell sits on the onset divergence at t = t0 = "
            f"{t0!r}; the ratio is infinite there, so move t off the onset")
    coarse_best = best_val

    # Golden-section polish along each ranged axis, twice around.
    for _ in range(2):
        for k in keys:
            arr = axes[k]
            i = int(np.searchsorted(arr, best_at[k]))
            i = min(max(i, 1), len(arr) - 2)
            lo = min(float(arr[i - 1]), best_at[k])
            hi = max(float(arr[i + 1]), best_at[k])

            def slice_f(v: float, axis=k) -> float:
                cell = {**fixed, **best_at, axis: v}
                return evaluate(float(cell["t"]), float(cell[rate_key]))

            x, fx, used = golden_section_max(slice_f, lo, hi,
                                             rel_tol=rel_tol)
            evaluations += used
            if fx > best_val:
                best_val = fx
                best_at = dict(best_at, **{k: x})

    if best_val < coarse_best:
        raise AssertionError("refinement lost the coarse optimum")
    return OptimumReport(best_params={**fixed, **best_at},
                         best_ratio=best_val, iterations=evaluations,
                         method="golden_section")
