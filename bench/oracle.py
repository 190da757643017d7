"""Independent output checks for benchmark ops.

Every expected value is recomputed here from the closed-form decay laws
in vectorised numpy, from the parameters the workload generator chose.
Nothing in this module imports ``dephasor``, so a defect in the
package's shipping paths cannot hide itself from the check.

A check raises ``CheckFailed``; the client counts that op as failed.
"""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass

import numpy as np

# Closed forms against the package's scalar closed forms: both are exact
# formulas, so only rounding separates them.
CLOSED_RTOL = 1e-9
CLOSED_ATOL = 1e-12
# Fixed-step RK4 (>= 1e4 steps) plus SLD against the exact law.
NUMERIC_RTOL = 1e-6
COHERENCE_ATOL = 1e-8
TRACE_TOL = 1e-9
MIN_EIG_FLOOR = -1e-7


class CheckFailed(Exception):
    """An op's output disagrees with the independent oracle."""


@dataclass(frozen=True)
class Schedule:
    """Rate profile mirrored from the CLI grammar, evaluated in numpy.

    ``kind`` is 'const', 'ramp' or 'pw'; ``value`` is the rate or the
    slope; ``knots`` holds (t, gamma) pairs for 'pw'.
    """

    kind: str
    value: float = 0.0
    t0: float = 0.0
    knots: tuple = ()

    def arg(self) -> str:
        if self.kind == "pw":
            return "pw:" + ";".join(f"{t!r}:{g!r}" for t, g in self.knots)
        return f"{self.kind}:{self.value!r},t0={self.t0!r}"

    def _pw(self, t):
        kt = np.array([k[0] for k in self.knots])
        kg = np.array([k[1] for k in self.knots])
        return kt, kg, np.interp(t, kt, kg)

    def rate(self, t):
        """Left-continuous rate: zero at and before the onset."""
        t = np.asarray(t, dtype=float)
        if self.kind == "const":
            return np.where(t > self.t0, self.value, 0.0)
        if self.kind == "ramp":
            return np.where(t > self.t0, self.value * (t - self.t0), 0.0)
        kt, _, g = self._pw(t)
        return np.where(t > kt[0], g, 0.0)

    def rate_right(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "const":
            return np.where(t >= self.t0, self.value, 0.0)
        if self.kind == "ramp":
            return np.where(t >= self.t0, self.value * (t - self.t0), 0.0)
        kt, _, g = self._pw(t)
        return np.where(t >= kt[0], g, 0.0)

    def dose(self, t):
        """Integrated rate Gamma(t) from the onset."""
        t = np.asarray(t, dtype=float)
        if self.kind == "const":
            return self.value * np.maximum(0.0, t - self.t0)
        if self.kind == "ramp":
            d = np.maximum(0.0, t - self.t0)
            return 0.5 * self.value * d * d
        kt, kg, g = self._pw(t)
        cum = np.concatenate(([0.0], np.cumsum(0.5 * (kg[1:] + kg[:-1])
                                               * np.diff(kt))))
        i = np.clip(np.searchsorted(kt, t, side="right") - 1, 0, len(kt) - 1)
        out = cum[i] + 0.5 * (kg[i] + g) * (t - kt[i])
        return np.where(t <= kt[0], 0.0, out)


@dataclass(frozen=True)
class Model:
    """What the generator knows about a model it wrote.

    ``identity_frame`` is True when the model's joint eigenbasis is the
    computational basis, so evolve's branch columns are the branch
    coherence itself.
    """

    kind: str
    size: int
    dim: int
    omega: float
    delta_e: float
    delta_l: float
    energy: bool
    identity_frame: bool
    spectrum_min: float
    spectrum_max: float


# ---------------------------------------------------------------- laws

def _neg_expm1(x):
    return -np.expm1(-x)


def qfi_time(de, dl, sch: Schedule, t):
    t = np.asarray(t, dtype=float)
    g, dose = sch.rate(t), sch.dose(t)
    x = 2.0 * dl * dl * dose
    with np.errstate(divide="ignore", invalid="ignore"):
        noisy = np.exp(-x) * (de * de + g * g * dl ** 4 / _neg_expm1(x))
    onset = np.where(sch.rate_right(t) * dl * dl > 0.0, np.inf, de * de)
    return np.where(x == 0.0, onset, noisy)


def qfi_omega(de, omega, sch: Schedule, t):
    t = np.asarray(t, dtype=float)
    dose = sch.dose(t)
    x = 2.0 * de * de * dose
    with np.errstate(divide="ignore", invalid="ignore"):
        bracket = 4.0 * de * de * dose * dose / _neg_expm1(x) + t * t
    bracket = np.where(x == 0.0, t * t, bracket)
    return (de * de / (omega * omega)) * np.exp(-x) * bracket


def qfi(param, m: Model, sch: Schedule, t):
    if param == "time":
        return qfi_time(m.delta_e, m.delta_l, sch, t)
    return qfi_omega(m.delta_e, m.omega, sch, t)


def ratio(param, de, dl, sch: Schedule, t):
    """Advantage ratio F_open / F_closed."""
    t = np.asarray(t, dtype=float)
    g, dose = sch.rate(t), sch.dose(t)
    if param == "time":
        x = 2.0 * dl * dl * dose
        with np.errstate(divide="ignore", invalid="ignore"):
            noisy = np.exp(-x) * (1.0 + g * g * dl ** 4
                                  / (de * de * _neg_expm1(x)))
        onset = np.where(sch.rate_right(t) * dl * dl > 0.0, np.inf, 1.0)
        return np.where(x == 0.0, onset, noisy)
    x = 2.0 * de * de * dose
    with np.errstate(divide="ignore", invalid="ignore"):
        noisy = np.exp(-x) * (1.0 + 4.0 * de * de * dose * dose
                              / (t * t * _neg_expm1(x)))
    return np.where(x == 0.0, 1.0, noisy)


def signal(param, m: Model, sch: Schedule, t):
    """(mean, var_O, d_mean) of the branch-interference readout."""
    t = np.asarray(t, dtype=float)
    g, dose = sch.rate(t), sch.dose(t)
    de, dl = m.delta_e, m.delta_l
    c, s = np.cos(de * t), np.sin(de * t)
    mean = c * np.exp(-dl * dl * dose)
    if param == "time":
        d = -np.exp(-dl * dl * dose) * (de * s + g * dl * dl * c)
    else:
        d = -np.exp(-de * de * dose) * ((de * t / m.omega) * s
                                        + (2.0 * de * de * dose / m.omega)
                                        * c)
    return mean, 1.0 - mean * mean, d


# ------------------------------------------------------------- helpers

def close(label, got, want, rtol=CLOSED_RTOL, atol=CLOSED_ATOL):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise CheckFailed(f"{label}: shape {got.shape} != {want.shape}")
    same_inf = np.isinf(got) & np.isinf(want) & (np.sign(got) ==
                                                 np.sign(want))
    with np.errstate(invalid="ignore"):
        ok = same_inf | (np.abs(got - want) <= atol + rtol * np.abs(want))
    if not np.all(ok):
        i = int(np.argmin(ok.reshape(-1)))
        raise CheckFailed(f"{label}: got {float(got.reshape(-1)[i])!r}, "
                          f"want {float(want.reshape(-1)[i])!r} (entry {i})")


def _require(cond: bool, message: str):
    if not cond:
        raise CheckFailed(message)


def _read_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"unreadable JSON output: {exc}") from exc


def _read_csv(path: str, header: str, skip_comment: bool = False):
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise CheckFailed(f"unreadable CSV output: {exc}") from exc
    comment = lines.pop(0) if skip_comment and lines else None
    _require(bool(lines) and lines[0] == header,
             f"CSV header {lines[:1]!r} != {header!r}")
    return comment, [row.split(",") for row in lines[1:]]


def _floats(rows, cols) -> np.ndarray:
    try:
        return np.array([[float(r[c]) for c in cols] for r in rows])
    except (ValueError, IndexError) as exc:
        raise CheckFailed(f"malformed CSV row: {exc}") from exc


def axis(lo: float, hi: float, steps: int, scale: str) -> np.ndarray:
    if scale == "log":
        return np.geomspace(lo, hi, steps)
    return np.linspace(lo, hi, steps)


# -------------------------------------------------------------- checks

@dataclass(frozen=True)
class Grid:
    x_name: str
    x: tuple    # (lo, hi, steps)
    y_name: str
    y: tuple
    scale: str
    delta_e: float
    delta_l: float
    omega: float
    t0: float

    def arg(self) -> str:
        return (f"x={self.x_name}:{self.x[0]!r}:{self.x[1]!r}:{self.x[2]};"
                f"y={self.y_name}:{self.y[0]!r}:{self.y[1]!r}:{self.y[2]};"
                f"scale={self.scale};deltaE={self.delta_e!r};"
                f"deltaL={self.delta_l!r};omega={self.omega!r};"
                f"t0={self.t0!r}")


DEFAULT_FIG1 = Grid("omega_t", (1e-3, 10.0, 81), "gamma", (1e-2, 1e2, 61),
                    "log", 2.0, 2.0, 1.0, 0.0)


def scan_ratios(grid: Grid, param: str) -> np.ndarray:
    """Expected ratio grid, shape (ny, nx), y-major like the CSV."""
    xs = axis(*grid.x, grid.scale)
    ys = axis(*grid.y, grid.scale)
    t = xs / grid.omega if grid.x_name == "omega_t" else xs
    out = np.empty((len(ys), len(xs)))
    kind = "const" if grid.y_name == "gamma" else "ramp"
    for j, y in enumerate(ys):
        sch = Schedule(kind, float(y), grid.t0)
        out[j] = ratio(param, grid.delta_e, grid.delta_l, sch, t)
    return out


def check_scan(csv_path: str, svg_path, grid: Grid, param: str):
    comment, rows = _read_csv(csv_path, "x,y,ratio,region",
                              skip_comment=True)
    _require(comment == f"# parameter={param} x={grid.x_name} "
                        f"y={grid.y_name}", f"scan comment {comment!r}")
    nx, ny = grid.x[2], grid.y[2]
    _require(len(rows) == nx * ny, f"scan has {len(rows)} rows, "
                                   f"want {nx * ny}")
    vals = _floats(rows, (0, 1, 2))
    xs = axis(*grid.x, grid.scale)
    ys = axis(*grid.y, grid.scale)
    close("scan x", vals[:, 0], np.tile(xs, ny), rtol=1e-12)
    close("scan y", vals[:, 1], np.repeat(ys, nx), rtol=1e-12)
    want = scan_ratios(grid, param)
    close("scan ratio", vals[:, 2], want.reshape(-1))
    regions = np.array([r[3] for r in rows])
    enhanced = vals[:, 2] >= 1.0
    _require(np.all(regions == np.where(enhanced, "enhanced", "hindered")),
             "scan region disagrees with its ratio")
    if svg_path is not None:
        check_svg(svg_path, enhanced.reshape(ny, nx),
                  f"advantage ratio ({param})")


def check_svg(path: str, enhanced: np.ndarray, title: str):
    """Well-formed SVG with one rect per cell and one boundary segment
    per pair of adjacent cells on opposite sides of ratio 1."""
    try:
        root = ET.parse(path).getroot()
    except (OSError, ET.ParseError) as exc:
        raise CheckFailed(f"SVG does not parse: {exc}") from exc
    ns = "{http://www.w3.org/2000/svg}"
    ny, nx = enhanced.shape
    rects = root.findall(f"{ns}rect")
    _require(len(rects) == nx * ny + 2,
             f"SVG has {len(rects)} rects, want {nx * ny + 2}")
    edges = (int(np.sum(enhanced[:, 1:] != enhanced[:, :-1]))
             + int(np.sum(enhanced[1:, :] != enhanced[:-1, :])))
    lines = [e for e in root.findall(f"{ns}line")
             if e.get("stroke-width") == "1.2"]
    _require(len(lines) == edges,
             f"SVG draws {len(lines)} boundary segments, want {edges}")
    texts = [e.text for e in root.findall(f"{ns}text")]
    _require(title in texts, f"SVG title {title!r} missing")


def check_sweep(csv_path: str, m: Model, sch: Schedule, param: str,
                lo: float, hi: float, steps: int):
    _, rows = _read_csv(
        csv_path, "t,mean,var_O,d_mean,var_estimator,one_over_qfi")
    _require(len(rows) == steps, f"sweep has {len(rows)} rows")
    v = _floats(rows, range(6))
    t = np.linspace(lo, hi, steps)
    close("sweep t", v[:, 0], t, rtol=1e-12)
    mean, var_o, d = signal(param, m, sch, t)
    close("sweep mean", v[:, 1], mean)
    close("sweep var_O", v[:, 2], var_o)
    close("sweep d_mean", v[:, 3], d)
    with np.errstate(divide="ignore"):
        close("sweep var_estimator", v[:, 4], var_o / (d * d), rtol=1e-6)
        close("sweep one_over_qfi", v[:, 5], 1.0 / qfi(param, m, sch, t))


def check_estimate(json_path: str, m: Model, sch: Schedule, param: str,
                   t: float):
    doc = _read_json(json_path)
    mean, var_o, d = (float(a) for a in signal(param, m, sch, t))
    f = float(qfi(param, m, sch, t))
    var_est = var_o / (d * d)
    close("estimate mean", doc["mean"], mean)
    close("estimate variance_O", doc["variance_O"], var_o)
    close("estimate d_mean", doc["d_mean"], d)
    close("estimate variance_estimator", doc["variance_estimator"],
          var_est, rtol=1e-6)
    close("estimate one_over_qfi", doc["one_over_qfi"], 1.0 / f)
    close("estimate saturation_ratio", doc["saturation_ratio"],
          var_est * f, rtol=1e-6)
    _require(doc["parameter"] == param, "estimate parameter")


def check_qfi(json_path: str, m: Model, sch: Schedule, param: str,
              t: float, method: str):
    doc = _read_json(json_path)
    want = float(qfi(param, m, sch, t))
    got = doc.get("value")
    _require(isinstance(got, float) and math.isfinite(got),
             f"QFI value {got!r} is not a finite number")
    _require(doc.get("parameter") == param, "QFI parameter")
    if method == "analytic":
        _require(doc.get("method") == "analytic_cat", "QFI method")
        close("analytic QFI", got, want)
    elif method == "numeric":
        _require(doc.get("method") == "numeric_sld", "QFI method")
        close("numeric QFI vs closed form", got, want, rtol=NUMERIC_RTOL)
    else:
        _require(doc.get("method") == "lower_bound", "bound method")
        _require(0.0 <= got <= want * (1.0 + NUMERIC_RTOL) + CLOSED_ATOL,
                 f"bound {got!r} exceeds the QFI {want!r}")


def check_validate(json_path: str, m: Model):
    doc = _read_json(json_path)
    want = {"kind": m.kind, "N": m.size, "dim": m.dim,
            "lindblad": "energy" if m.energy else "custom", "ok": True}
    for key, val in want.items():
        _require(doc.get(key) == val, f"validate {key}: {doc.get(key)!r} "
                                      f"!= {val!r}")
    for key, val in (("omega", m.omega), ("delta_e", m.delta_e),
                     ("delta_l", m.delta_l),
                     ("spectrum_min", m.spectrum_min),
                     ("spectrum_max", m.spectrum_max)):
        close(f"validate {key}", doc.get(key), val, rtol=1e-12)


def check_optimize(json_path: str, m: Model, param: str, box: dict,
                   kind: str, t0: float, coarse: int = 64):
    """The reported optimum is the ratio at its own parameters, lies in
    the box, and is no worse than any point of the coarse grid."""
    doc = _read_json(json_path)
    rate_key = "gamma" if kind == "constant" else "gamma_dot"
    best = doc.get("best_params", {})
    _require(set(best) == {"t", rate_key}, f"optimize params {best!r}")
    for key, val in box.items():
        if isinstance(val, tuple):
            _require(val[0] <= best[key] <= val[1],
                     f"optimize {key}={best[key]!r} outside {val!r}")
        else:
            _require(best[key] == val, f"optimize moved pinned {key}")
    sk = "const" if kind == "constant" else "ramp"
    at = float(ratio(param, m.delta_e, m.delta_l,
                     Schedule(sk, best[rate_key], t0), best["t"]))
    close("optimize best_ratio", doc["best_ratio"], at)
    _require(doc["advantage"] == (doc["best_ratio"] > 1.0),
             "optimize advantage flag")

    def grid(key):
        val = box[key]
        if not isinstance(val, tuple):
            return np.array([val])
        lo, hi = val
        return np.geomspace(lo, hi, coarse) if lo > 0.0 \
            else np.linspace(lo, hi, coarse)

    ts, rates = grid("t"), grid(rate_key)
    coarse_best = -np.inf
    for r in rates:
        vals = ratio(param, m.delta_e, m.delta_l, Schedule(sk, float(r), t0),
                     ts)
        vals = np.where(np.isinf(vals), -np.inf, vals)
        coarse_best = max(coarse_best, float(np.max(vals)))
    _require(doc["best_ratio"] >= coarse_best * (1.0 - CLOSED_RTOL),
             f"optimize best {doc['best_ratio']!r} below coarse grid "
             f"{coarse_best!r}")


def check_evolve(csv_path: str, m: Model, sch: Schedule, t_final: float,
                 samples: int):
    _, rows = _read_csv(csv_path,
                        "t,pop_lo,pop_hi,coher_re,coher_im,trace,min_eig")
    _require(len(rows) == samples, f"evolve has {len(rows)} rows")
    v = _floats(rows, range(7))
    t = np.linspace(0.0, t_final, samples)
    close("evolve t", v[:, 0], t, rtol=1e-12)
    _require(np.all(np.abs(v[:, 5] - 1.0) <= TRACE_TOL),
             f"evolve trace drifts by {np.max(np.abs(v[:, 5] - 1.0)):.3e}")
    _require(np.all(v[:, 6] >= MIN_EIG_FLOOR),
             f"evolve min eigenvalue {np.min(v[:, 6]):.3e}")
    if m.identity_frame:
        close("evolve populations", v[:, 1:3], np.full((samples, 2), 0.5),
              rtol=0.0, atol=TRACE_TOL)
        coher = 0.5 * np.exp(-m.delta_l ** 2 * sch.dose(t))
        close("evolve coherence", np.hypot(v[:, 3], v[:, 4]), coher,
              rtol=0.0, atol=COHERENCE_ATOL)
