"""Seeded op lists for the three benchmark workloads.

An op is one CLI invocation of ``dephasor`` plus the oracle check of the
files it writes.  The seed draws every value (rates, times, grid ranges,
gaps, random unitary frames) but never the structure of a pass: grid
sizes, sweep lengths, sample counts and model dimensions are fixed per
slot, so one pass costs about the same for every seed and run-to-run
spread measures the program, not the draw.

Workloads:

* ``survey``: closed-form maps (scan, estimate, optimize, analytic qfi)
  on qubit and photonic models.  ``protocols``, ``estimators``,
  ``fisher`` closed forms, ``svgmap`` and CSV formatting do the work;
  ``linalg`` and RK4 never run.
* ``crosscheck``: RK4 evolve, numeric SLD qfi and commutator bounds on
  the shipped small models and on seeded custom models of dimension
  4-32, whose H and L are diagonal in one random unitary frame.
  ``dynamics``, ``linalg`` and the SLD in ``fisher`` do the work.
* ``wide``: validate, analytic qfi and estimate on 11-qubit networks
  (dimension 2048).  Model build
  and its spectrum check in ``hilbert`` carry the cost and set peak
  memory.  The 12-qubit cap is left out: one such op costs 12-17 s and
  1.7 GB, more than a run can hold at a steady op count.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

import oracle
from oracle import Grid, Model, Schedule

SHIPPED = ("ghz2", "ghz3", "noon2")
# Share of an op's time span before its rate switches on.  RK4 skips
# the dissipator while the rate is zero, so a seeded onset would make
# the cost of a pass depend on the seed.
ONSET = 0.15


@dataclass
class Op:
    """One CLI invocation and the check of its outputs."""

    label: str
    argv: list
    outputs: tuple
    check: Callable[[], None] = field(repr=False)


class Builder:
    """Collects ops and writes their input files into ``work``."""

    def __init__(self, seed: int, work: str):
        self.rng = np.random.default_rng(seed)
        self.work = work
        self.ops: list[Op] = []
        self._n = 0

    def path(self, stem: str) -> str:
        self._n += 1
        return os.path.join(self.work, f"{self._n:03d}-{stem}")

    def u(self, lo: float, hi: float) -> float:
        return float(self.rng.uniform(lo, hi))

    def add(self, label: str, argv: list, outputs: tuple, check, **kw):
        self.ops.append(Op(label, argv, outputs, partial(check, **kw)))

    # ------------------------------------------------------------ models

    def write_model(self, doc: dict) -> str:
        path = self.path(f"{doc['kind']}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    def qubit(self, n: int, omega: float | None = None):
        omega = self.u(0.5, 2.0) if omega is None else omega
        doc = {"kind": "qubit_network", "N": n, "omega": omega,
               "lindblad": "energy"}
        gap = omega * n
        return self.write_model(doc), Model(
            "qubit_network", n, 2 ** n, omega, gap, gap, True, True,
            -0.5 * n, 0.5 * n)

    def photonic(self, n: int):
        omega = self.u(0.5, 2.0)
        gap = self.u(0.5, 3.0)
        doc = {"kind": "photonic_two_mode", "N": n, "omega": omega,
               "lindblad": "energy", "branch_gap": gap}
        half = 0.5 * gap / omega
        return self.write_model(doc), Model(
            "photonic_two_mode", n, 2, omega, gap, gap, True, True,
            -half, half)

    def custom(self, dim: int, energy: bool):
        """H and L diagonal in one Haar-random frame; H nondegenerate."""
        rng = self.rng
        z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        q, r = np.linalg.qr(z)
        q = q * (np.diag(r) / np.abs(np.diag(r)))
        eps = -1.0 + 2.0 * (np.arange(dim) + rng.uniform(0.25, 0.75, dim)) \
            / dim
        rng.shuffle(eps)
        omega = self.u(0.5, 1.5)

        def dense(diag):
            mat = (q * diag) @ q.conj().T
            mat = 0.5 * (mat + mat.conj().T)
            return [[[float(z.real), float(z.imag)] for z in row]
                    for row in mat]

        lo, hi = int(np.argmin(eps)), int(np.argmax(eps))
        doc = {"kind": "custom", "N": dim, "omega": omega,
               "h": {"matrix": dense(eps)}}
        if energy:
            lam = omega * eps
            doc["lindblad"] = "energy"
        else:
            # branch noise gap in [1, 2] keeps the RK4 step at its
            # t/1e4 floor, so every seed costs the same number of steps
            lam = rng.uniform(-0.5, 0.5, dim)
            lam[lo], lam[hi] = -self.u(0.5, 1.0), self.u(0.5, 1.0)
            doc["lindblad"] = {"matrix": dense(lam)}
        de = omega * float(eps[hi] - eps[lo])
        dl = abs(float(lam[hi] - lam[lo]))
        return self.write_model(doc), Model(
            "custom", dim, dim, omega, de, dl, energy, False,
            float(eps.min()), float(eps.max()))

    def shipped(self, root: str, name: str):
        path = os.path.join(root, "models", f"{name}.json")
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        omega, n = float(doc["omega"]), int(doc["N"])
        if doc["kind"] == "qubit_network":
            gap, dim, half = omega * n, 2 ** n, 0.5 * n
        else:
            gap = float(doc.get("branch_gap", n * omega))
            dim, half = 2, 0.5 * gap / omega
        return path, Model(doc["kind"], n, dim, omega, gap, gap, True, True,
                           -half, half)

    # --------------------------------------------------------- schedules

    def schedule(self, kind: str, t: float, dl: float,
                 decay: tuple = (0.2, 1.2)) -> Schedule:
        """A schedule that switches on at ONSET * t and whose decay
        exponent dL^2 Gamma(t) lies in ``decay``, so the state is
        neither pure nor fully dephased."""
        target = self.u(*decay) / (dl * dl)
        t0 = ONSET * t
        if kind == "const":
            return Schedule("const", target / (t - t0), t0)
        if kind == "ramp":
            return Schedule("ramp", 2.0 * target / (t - t0) ** 2, t0)
        # four knots inside (0, t): breakpoints split RK4 segments and
        # the scan/sweep evaluation paths
        ts = [t0] + sorted(self.rng.uniform(0.2, 0.9, 3) * t)
        gs = self.rng.uniform(0.2, 1.0, 4)
        base = Schedule("pw", knots=tuple(zip(ts, gs.tolist())))
        scale = target / float(base.dose(t))
        return Schedule("pw", knots=tuple((float(tk), gk * scale)
                                          for tk, gk in base.knots))


# ---------------------------------------------------------------- survey

def _survey_scan(b: Builder, param: str, x_name: str, y_name: str,
                 nx: int | None, ny: int | None, svg: bool,
                 scale: str = "log"):
    """A scan; ``nx=None`` is ``default_fig1``.  Onset stays at 0, since
    cells before the onset skip the ratio and would make cost seeded."""
    if nx is None:
        grid = oracle.DEFAULT_FIG1
        spec = "default_fig1"
    else:
        de = b.u(1.0, 3.0)
        dl = b.u(0.5, 3.0) if param == "time" else de
        omega = b.u(0.5, 2.0)
        unit = omega if x_name == "omega_t" else 1.0
        y_hi = b.u(20.0, 100.0) if y_name == "gamma" else b.u(10.0, 50.0)
        grid = Grid(x_name, (b.u(0.005, 0.02) * unit, b.u(2.0, 5.0) * unit,
                             nx), y_name, (b.u(0.01, 0.05), y_hi, ny), scale,
                    de, dl, omega, 0.0)
        spec = grid.arg()
    csv = b.path("scan.csv")
    argv = ["scan", "--param", param, "--grid", spec, "--out", csv]
    svg_path = None
    if svg:
        svg_path = b.path("scan.svg")
        argv += ["--svg", svg_path]
    size = "fig1" if nx is None else f"{nx}x{ny}"
    b.add(f"scan-{param}-{y_name}-{size}{'-svg' if svg else ''}", argv,
          (csv,) + ((svg_path,) if svg else ()), oracle.check_scan,
          csv_path=csv, svg_path=svg_path, grid=grid, param=param)


def _survey_model(b: Builder, kind: str):
    if kind == "photonic":
        return b.photonic(int(b.rng.integers(1, 5)))
    return b.qubit(int(b.rng.integers(2, 6)))


def _survey_sweep(b: Builder, model: str, sched: str, param: str,
                  steps: int):
    path, m = _survey_model(b, model)
    t_hi = b.u(2.0, 4.0)
    sch = b.schedule(sched, t_hi, m.delta_l)
    lo = b.u(0.001, 0.05)
    out = b.path("sweep.csv")
    argv = ["estimate", "--model", path, "--schedule", sch.arg(), "--param",
            param, "--sweep", f"{lo!r}:{t_hi!r}:{steps}", "--out", out]
    b.add(f"sweep-{param}-{sched}-{steps}", argv, (out,), oracle.check_sweep,
          csv_path=out, m=m, sch=sch, param=param, lo=lo, hi=t_hi,
          steps=steps)


def _survey_point(b: Builder, cmd: str, model: str, sched: str, param: str):
    path, m = _survey_model(b, model)
    t = b.u(0.2, 2.0)
    sch = b.schedule(sched, t, m.delta_l)
    out = b.path(f"{cmd}.json")
    argv = [cmd, "--model", path, "--schedule", sch.arg(), "--param", param,
            "--t", repr(t), "--out", out]
    if cmd == "qfi":
        b.add(f"qfi-analytic-{param}-{sched}", argv + ["--method", "analytic"],
              (out,), oracle.check_qfi, json_path=out, m=m, sch=sch,
              param=param, t=t, method="analytic")
    else:
        b.add(f"estimate-t-{param}-{sched}", argv, (out,),
              oracle.check_estimate, json_path=out, m=m, sch=sch,
              param=param, t=t)


def _survey_optimize(b: Builder, model: str, param: str, kind: str,
                     ranged: str):
    """``ranged`` is 't', the rate key, or 'both'.  The onset sits below
    the box, so no coarse point is skipped."""
    path, m = _survey_model(b, model)
    rate_key = "gamma" if kind == "constant" else "gamma_dot"
    box = {"t": (b.u(0.005, 0.05), b.u(1.0, 3.0)) if ranged != rate_key
           else b.u(0.05, 1.0),
           rate_key: (b.u(0.05, 0.5), b.u(5.0, 50.0)) if ranged != "t"
           else b.u(0.2, 5.0)}
    t_lo = box["t"][0] if isinstance(box["t"], tuple) else box["t"]
    t0 = 0.5 * t_lo

    def fmt(v):
        return f"{v[0]!r}:{v[1]!r}" if isinstance(v, tuple) else repr(v)

    out = b.path("optimize.json")
    argv = ["optimize", "--model", path, "--param", param, "--box",
            ";".join(f"{k}={fmt(v)}" for k, v in box.items()),
            "--schedule-kind", kind, "--t0", repr(t0), "--out", out]
    b.add(f"optimize-{param}-{kind}-{ranged}", argv, (out,),
          oracle.check_optimize, json_path=out, m=m, param=param, box=box,
          kind=kind, t0=t0)


def survey(b: Builder, root: str) -> Op:
    """21 slots per pass, in three cost bands: eight point ops of a few
    ms, five two-axis optimizations, then sweeps and scans.  The median
    op lies in the middle of the five optimizations, and the ten ops
    beyond the tail percentile lie inside the slow pair, two 200x150 SVG
    scans of one shape.  Both order statistics thus fall inside a band
    of like ops rather than on the edge between two bands, where a
    shift of the host's speed would move them from one op kind to
    another."""
    _survey_scan(b, "time", "t", "gamma", 9, 7, True)   # warm-up
    _survey_optimize(b, "photonic", "omega", "linear_ramp", "both")
    _survey_point(b, "qfi", "qubit", "ramp", "time")
    _survey_sweep(b, "qubit", "const", "time", 3000)
    _survey_optimize(b, "photonic", "omega", "constant", "gamma")
    _survey_scan(b, "omega", "t", "gamma_dot", 200, 150, True)
    _survey_point(b, "estimate", "photonic", "pw", "time")
    _survey_optimize(b, "qubit", "time", "linear_ramp", "both")
    _survey_scan(b, "time", "t", "gamma", 120, 90, True, scale="linear")
    _survey_point(b, "qfi", "photonic", "const", "omega")
    _survey_sweep(b, "photonic", "ramp", "omega", 3000)
    _survey_scan(b, "omega", "t", "gamma_dot", 200, 150, True)
    _survey_optimize(b, "qubit", "omega", "constant", "both")
    _survey_point(b, "qfi", "qubit", "pw", "time")
    _survey_scan(b, "omega", "omega_t", "gamma", None, None, True)
    _survey_point(b, "estimate", "qubit", "ramp", "omega")
    _survey_optimize(b, "photonic", "time", "linear_ramp", "t")
    _survey_optimize(b, "qubit", "time", "constant", "both")
    _survey_sweep(b, "qubit", "pw", "time", 4000)
    _survey_point(b, "qfi", "photonic", "ramp", "omega")
    _survey_optimize(b, "photonic", "time", "constant", "both")
    _survey_scan(b, "omega", "t", "gamma", 150, 100, False)
    return b.ops.pop(0)


# ------------------------------------------------------------ crosscheck

def _cross_op(b: Builder, cmd: str, model, kind: str, param: str = "time",
              samples: int = 0, dt: float | None = None):
    path, m = model
    t = b.u(0.8, 1.5)
    sch = b.schedule(kind, t, m.delta_l)
    out = b.path(f"{cmd}.{'csv' if cmd == 'evolve' else 'json'}")
    argv = [cmd, "--model", path, "--schedule", sch.arg(), "--t", repr(t)]
    tag = f"{m.kind}{m.dim}-{kind}"
    if cmd == "evolve":
        argv += ["--samples", str(samples)]
        check = partial(oracle.check_evolve, csv_path=out, m=m, sch=sch,
                        t_final=t, samples=samples)
        label = f"evolve-{tag}-s{samples}"
    else:
        method = "numeric" if cmd == "qfi" else "bound"
        argv += ["--param", param]
        if cmd == "qfi":
            argv += ["--method", "numeric"]
        check = partial(oracle.check_qfi, json_path=out, m=m, sch=sch,
                        param=param, t=t, method=method)
        label = f"{cmd}-{tag}-{param}"
    if dt is not None:
        argv += ["--dt", repr(dt)]
    b.ops.append(Op(label, argv + ["--out", out], (out,), check))


def crosscheck(b: Builder, root: str) -> Op:
    """11 slots per pass, each at the default RK4 step (>= 1e4 steps).

    By cost: seven ops on the shipped models and the dimension-8 custom
    within about 25% of each other, three dimension-16 ops, then the
    dimension-32 op.  A run holds three to five passes, so the median
    op is always the sixth slot and the tail always lands among the
    three dimension-16 ops.
    """
    # warm-up: a coarse explicit step keeps it to a few hundred steps
    _cross_op(b, "qfi", b.custom(4, False), "pw", "time", dt=0.005)
    ghz2, ghz3, noon2 = (b.shipped(root, n) for n in SHIPPED)
    c8l, c16l, c16e, c32e = (b.custom(8, False), b.custom(16, False),
                             b.custom(16, True), b.custom(32, True))
    _cross_op(b, "qfi", ghz2, "ramp", "time")
    _cross_op(b, "qfi", c32e, "const", "time")
    _cross_op(b, "evolve", ghz3, "pw", samples=300)
    _cross_op(b, "bound", noon2, "const", "omega")
    _cross_op(b, "evolve", c16e, "pw", samples=2)
    _cross_op(b, "evolve", c8l, "ramp", samples=2)
    _cross_op(b, "qfi", ghz3, "pw", "omega")
    _cross_op(b, "bound", c16l, "const", "time")
    _cross_op(b, "evolve", noon2, "ramp", samples=300)
    _cross_op(b, "qfi", c16e, "ramp", "time")
    _cross_op(b, "evolve", ghz2, "const", samples=2)
    return b.ops.pop(0)


# ------------------------------------------------------------------ wide

def _wide_op(b: Builder, cmd: str, n: int, param: str = "time",
             sched: str = "const"):
    path, m = b.qubit(n)
    t = b.u(0.2, 1.5)
    sch = b.schedule(sched, t, m.delta_l)
    out = b.path(f"{cmd}.json")
    if cmd == "validate":
        b.add(f"validate-q{n}", ["validate", "--model", path, "--out", out],
              (out,), oracle.check_validate, json_path=out, m=m)
        return
    argv = [cmd, "--model", path, "--schedule", sch.arg(), "--param", param,
            "--t", repr(t), "--out", out]
    if cmd == "qfi":
        b.add(f"qfi-analytic-q{n}-{param}", argv + ["--method", "analytic"],
              (out,), oracle.check_qfi, json_path=out, m=m, sch=sch,
              param=param, t=t, method="analytic")
    else:
        b.add(f"estimate-t-q{n}-{param}", argv, (out,),
              oracle.check_estimate, json_path=out, m=m, sch=sch,
              param=param, t=t)


def wide(b: Builder, root: str) -> Op:
    """6 slots per pass, all on 11-qubit networks of seeded frequency."""
    # a small warm-up keeps set-up to imports and inputs; a large one
    # would make setup_s follow the memory speed of the host
    _wide_op(b, "validate", 6)
    for param, sched in (("time", "ramp"), ("omega", "pw")):
        _wide_op(b, "validate", 11)
        _wide_op(b, "qfi", 11, param, sched)
        _wide_op(b, "estimate", 11, param, sched)
    return b.ops.pop(0)


BUILDERS = {"survey": survey, "crosscheck": crosscheck, "wide": wide}


def build(workload: str, seed: int, work: str, root: str):
    """(ops of one pass, warm-up op) for a workload and seed."""
    b = Builder(seed, work)
    warm = BUILDERS[workload](b, root)
    return b.ops, warm
