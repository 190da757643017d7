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

from .dynamics import NoiseSchedule, schedule_eval, times
from .fisher import _TINY, law_at, ratio_law, require_law
from .hilbert import CatSpec, ValidationError
from .svgmap import join_rows

LN2 = math.log(2.0)

X_AXES = ("t", "omega_t")
Y_AXES = ("gamma", "gamma_dot")
MAX_ROWS = 2 ** 20  # per output; an evolve at the cap peaks near 0.9 GB
_REGIONS = ("hindered", "enhanced")  # by the cell rule ratio >= 1.0


def check_rows(rows: int, what: str):
    """Reject an output of more than MAX_ROWS rows before it is built."""
    if rows > MAX_ROWS:
        raise ValidationError(f"{what} asks for {rows} rows; one output "
                              f"holds at most MAX_ROWS = {MAX_ROWS}")


def advantage_ratio(spec: CatSpec, schedule: NoiseSchedule, t,
                    parameter: str):
    """F_open / F_cl for the cat sensor, from the exact closed forms.

    Values above 1 mean the noise helps; ``fisher.ratio_law`` gives the
    limits.  Takes a time or an array of times (``fisher.law_at``)."""
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
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValidationError(f"{name} axis bounds must be finite")
            if not (lo < hi):
                raise ValidationError(f"{name} axis range is empty")
            if self.scale == "log" and lo <= 0.0:
                raise ValidationError("log scale requires positive bounds")
        check_rows(self.x_steps * self.y_steps, "the grid")
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
        return [(x, y, ratio, _REGIONS[ratio >= 1.0])
                for y, row in zip(self.y_values.tolist(),
                                  self.ratios.tolist())
                for x, ratio in zip(xs, row)]

    def to_csv(self) -> str:
        # Fixed header; the axis meaning travels in a comment line so the
        # four column names stay stable for downstream parsers.
        ny, nx = self.ratios.shape
        ys = np.array([f"{y!r}," for y in self.y_values.tolist()], object)
        regions = np.array(["," + r for r in _REGIONS], object)
        return join_rows(
            [[f"{x!r}," for x in self.x_values.tolist()] * ny,
             np.repeat(ys, nx).tolist(),
             list(map(repr, self.ratios.ravel().tolist())),
             regions.take(self.ratios.ravel() >= 1.0).tolist()],
            head=f"# parameter={self.parameter} x={self.x_name} "
                 f"y={self.y_name}\nx,y,ratio,region\n")


def _rate_schedule(rate_key: str, value: float, t0: float) -> NoiseSchedule:
    """A constant rate for 'gamma', a linear ramp for 'gamma_dot'."""
    if rate_key == "gamma":
        return NoiseSchedule.constant(value, t0=t0)
    return NoiseSchedule.linear_ramp(value, t0=t0)


def _ratio_table(spec: CatSpec, parameter: str, rate_key: str, t0: float,
                 ts, rates) -> np.ndarray:
    """(len(rates), len(ts)) advantage ratios from one ``ratio_law`` call,
    row j on ``_rate_schedule(rate_key, rates[j], t0)``.

    A constant rate and a linear ramp are linear in their rate value g:
    their rate, dose and right rate are g times those at g = 1.  So the
    unit schedule is evaluated once and scaled by each row's g.  A row
    with g = 0 is the noiseless schedule: its rate, dose and jump are 0,
    also where the unit dose is inf (not 0 x inf = NaN).  A row reads its
    own schedule's dose where its scaled dose or the unit dose is not a
    normal float: the scaling lost bits to under- or overflow."""
    unit = _rate_schedule(rate_key, 1.0, t0)
    g = np.asarray(rates, dtype=float)[:, None]
    g_lo, g_hi = (g.min(), g.max()) if g.size else (1.0, 1.0)
    if not (g_lo >= 0.0 and g_hi < math.inf):
        raise ValidationError(f"{rate_key} must be nonnegative and finite")
    ts = times(ts)
    with np.errstate(over="ignore", invalid="ignore"):  # inf, 0 x inf
        rate, unit_dose = schedule_eval(unit, ts)
        jump = unit.rate_right(ts) - rate
        dose, u = g * unit_dose, unit_dose[ts > t0]
        g_pos = g_lo or g[g > 0.0].min(initial=math.inf)  # least g > 0
        # products round monotonically, so the extremes tell whether a
        # unit or scaled dose after the onset is out of the normal range;
        # only then can a g = 0 row hold 0 x inf, and it reads 0 there
        if u.size and not (_TINY <= u.min() * min(g_pos, 1.0)
                           and u.max() * max(g_hi, 1.0) < math.inf):
            redo = (ts > t0) & ~((unit_dose >= _TINY) & (dose >= _TINY) & (
                dose < math.inf))
            for j in np.flatnonzero(redo.any(axis=1)):
                dose[j, redo[j]] = _rate_schedule(rate_key, g[j, 0],
                                                  t0).integral(ts[redo[j]])
        return ratio_law(spec, parameter, g * rate, dose, ts, g * jump)


def heatmap_scan(grid: GridSpec, parameter: str) -> HeatmapTable:
    """Evaluate the advantage ratio over the grid in one array call.

    Cells at or above ratio 1 are classified 'enhanced', below it
    'hindered'.
    """
    require_law(grid.spec, parameter, ratio=True)
    xs = grid.x_values()
    ys = grid.y_values()
    with np.errstate(over="ignore"):  # t = inf, which schedule_eval rejects
        ts = xs / grid.spec.omega if grid.x_name == "omega_t" else xs
    ratios = _ratio_table(grid.spec, parameter, grid.y_name, grid.t0, ts, ys)
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


COARSE_POINTS = 64
REL_TOL = 1e-6
# A bracket pinned at t = 0 never meets REL_TOL; each round shrinks it
# 63-fold, so the cap stops it near 63^-24 ~ 1e-43 of the box, well
# before the ratio underflows.
MAX_ROUNDS = 24


def _next_brackets(axes: dict, cell: dict, brackets: dict,
                   box: dict) -> dict:
    """The brackets for the next round, around the best cell.

    A best cell on an edge of a bracket inside the box means the ratio
    still rises past it: every bracket centres on the best cell, that one
    at twice its width (a ratio on a geometric axis), within the box.
    Else each narrows to the best cell's neighbours, until within REL_TOL.
    """
    edge = {k: (cell[k] == 0 and lo > box[k][0])
            or (cell[k] == COARSE_POINTS - 1 and hi < box[k][1])
            for k, (lo, hi) in brackets.items()}
    out = {}
    for k, (lo, hi) in brackets.items():
        i, x, (box_lo, box_hi) = cell[k], float(axes[k][cell[k]]), box[k]
        if any(edge.values()) and box_lo > 0.0:
            r = (hi / lo) ** (1.0 if edge[k] else 0.5)
            out[k] = max(x / r, box_lo), min(x * r, box_hi)
        elif any(edge.values()):
            w = (hi - lo) * (1.0 if edge[k] else 0.5)
            out[k] = max(x - w, box_lo), min(x + w, box_hi)
        elif hi - lo > REL_TOL * hi:
            out[k] = (float(axes[k][max(i - 1, 0)]),
                      float(axes[k][min(i + 1, COARSE_POINTS - 1)]))
        else:
            out[k] = lo, hi
    return out


def maximize_ratio(spec: CatSpec, parameter: str, box: dict, *,
                   schedule_kind: str = "constant",
                   t0: float = 0.0) -> OptimumReport:
    """Maximize the advantage ratio over a box of (t, rate) values.

    ``box`` maps axis names ('t' plus 'gamma' or 'gamma_dot') to a fixed
    float or a (low, high) range.  Each round is one ``_ratio_table``
    call on COARSE_POINTS per ranged axis, geometric when the range
    starts above 0, else linear; then ``_next_brackets`` narrows or
    moves each axis.  Round 0 spans the box.  The rounds stop when every
    bracket is within REL_TOL, or after MAX_ROUNDS.  The result is the
    best cell of all rounds, never below any cell of round 0.
    """
    if schedule_kind not in ("constant", "linear_ramp"):
        raise ValidationError(f"unknown schedule kind {schedule_kind!r}")
    rate_key = "gamma" if schedule_kind == "constant" else "gamma_dot"
    if set(box) != {"t", rate_key}:
        raise ValidationError(f"box must name exactly 't' and {rate_key!r}")

    ranged, fixed = {}, {}
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
    require_law(spec, parameter, ratio=True)

    brackets, best_val, best_at, evaluations = ranged, -math.inf, {}, 0
    for round_ in range(MAX_ROUNDS):
        axes = {key: np.array([val]) for key, val in fixed.items()}
        for k, (lo, hi) in brackets.items():
            axes[k] = _axis(lo, hi, COARSE_POINTS,
                            "log" if ranged[k][0] > 0.0 else "linear")
        table = _ratio_table(spec, parameter, rate_key, t0, axes["t"],
                             axes[rate_key])
        evaluations += table.size
        # only the onset divergence is infinite; argmax keeps the first
        # maximum in rate-major order
        table = np.where(np.isinf(table), -math.inf, table)
        j, i = np.unravel_index(np.argmax(table), table.shape)
        cell = {rate_key: j, "t": i}
        if table[j, i] > best_val:
            best_val = float(table[j, i])
            best_at = {k: float(axes[k][cell[k]]) for k in sorted(ranged)}
        if round_ == 0:
            if not best_at:
                raise ValidationError(
                    f"every coarse cell sits on the onset divergence at "
                    f"t = t0 = {t0!r}; the ratio is infinite there, so move "
                    f"t off the onset")
            coarse_best = best_val
        brackets = _next_brackets(axes, cell, brackets, ranged)
        if all(hi - lo <= REL_TOL * hi for lo, hi in brackets.values()):
            break

    if best_val < coarse_best:
        raise AssertionError("refinement lost the coarse optimum")
    return OptimumReport(best_params={**fixed, **best_at},
                         best_ratio=best_val, iterations=evaluations,
                         method="grid_refine")
