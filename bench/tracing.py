"""Span tracing of the ``dephasor`` layers from outside the package.

``Tracer.install`` wraps every public function and public method of the
layer modules with a span recorder.  Modules bind functions by name
(``from .linalg import jacobi_eigh``), so the wrapper replaces the
function in every ``dephasor`` namespace that binds it, and
``uninstall`` puts every original back.  Methods are patched on their
class.

A span records its name, start, end and parent and is kept in memory in
flat arrays; ``summarize`` turns one pass of spans into per-layer
metrics, and ``write_spans`` dumps them when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import math
import time
from array import array

import numpy as np

LAYERS = ("cli", "hilbert", "linalg", "dynamics", "fisher", "estimators",
          "protocols", "svgmap")

# Spans whose arguments or result feed a derived counter, with what to
# keep of (args, kwargs, result).  Each pick is O(1) and keeps no large
# model alive; counting happens after the pass.
CAPTURED = {
    "cli.write_atomic": lambda a, kw, r: a[1],
    "svgmap.render_heatmap_svg": lambda a, kw, r: r,
    "hilbert.build_sensor_model": lambda a, kw, r: r.dim,
    "linalg.jacobi_eigh": lambda a, kw, r: len(a[0]),
    "dynamics.evolve_lindblad_numeric": lambda a, kw, r: (a, kw),
    "dynamics.trajectory": lambda a, kw, r: (a, kw),
}
BUILD = {"hilbert.load_model", "hilbert.model_from_json",
         "hilbert.build_sensor_model"}
SCHEDULE_EVALS = {"dynamics.NoiseSchedule.rate",
                  "dynamics.NoiseSchedule.rate_right",
                  "dynamics.NoiseSchedule.integral"}
CLOSED_FORMS = {"fisher.qfi_time_cat", "fisher.qfi_freq_cat"}


class Spans:
    """Flat in-memory span store for one traced pass."""

    def __init__(self):
        self.names: list[str] = []        # name id -> "layer.qualname"
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack = [-1]
        self.captured: list = []          # (span, picked value)

    def __len__(self):
        return len(self.name_id)

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        ids, starts, ends = self.name_id, self.start, self.end
        parents, stack, clock = self.parent, self.stack, time.perf_counter
        captured, pick = self.captured, CAPTURED.get(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(ids)
            ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if pick is not None:
                captured.append((idx, pick(args, kwargs, result)))
            return result

        return span


def _public_targets():
    """(owner, attribute, span name, original) for every public function
    and method defined in a layer module."""
    out = []
    for layer in LAYERS:
        mod = importlib.import_module(f"dephasor.{layer}")
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) \
                    != mod.__name__:
                continue
            if inspect.isfunction(obj):
                out.append((mod, attr, f"{layer}.{attr}", obj))
            elif inspect.isclass(obj):
                for name, member in vars(obj).items():
                    if name.startswith("_"):
                        continue
                    if isinstance(member, (classmethod, staticmethod)) or \
                            inspect.isfunction(member):
                        out.append((obj, name, f"{layer}.{attr}.{name}",
                                    member))
    return out


class Tracer:
    """Installs span wrappers for one pass and removes them after."""

    def __init__(self):
        self.targets = _public_targets()
        self.modules = [importlib.import_module("dephasor")] + [
            importlib.import_module(f"dephasor.{layer}") for layer in LAYERS]
        self._undo: list = []

    def install(self) -> Spans:
        spans = Spans()
        for owner, attr, name, orig in self.targets:
            if isinstance(orig, (classmethod, staticmethod)):
                wrapped = type(orig)(spans.wrap(name, orig.__func__))
                self._set(owner, attr, wrapped)
                continue
            wrapped = spans.wrap(name, orig)
            if inspect.isclass(owner):
                self._set(owner, attr, wrapped)
                continue
            for mod in self.modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._set(mod, key, wrapped)
        return spans

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part of it its children cover.

    Children of one span run one after another in a single thread, so
    the covered part is the sum of their durations clipped to the
    parent's interval.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    dur = end - start
    own = dur.copy()
    child = np.nonzero(parent >= 0)[0]
    if child.size:
        p = parent[child]
        covered = np.minimum(end[child], end[p]) - np.maximum(start[child],
                                                             start[p])
        own -= np.bincount(p, weights=np.maximum(covered, 0.0),
                           minlength=len(dur))
    return own


def _segments(breakpoints, t_start: float, t_end: float, dt: float) -> int:
    """RK4 steps over [t_start, t_end]: one fixed-step segment between
    consecutive schedule breakpoints, ceil(span / dt) steps each."""
    cuts = [p for p in breakpoints(t_end) if p > t_start]
    steps, lo = 0, t_start
    for cut in cuts + [t_end]:
        if cut > lo:
            steps += max(1, int(math.ceil((cut - lo) / dt - 1e-12)))
            lo = cut
    return steps


def rk4_steps(fn_name: str, call, default_step) -> int:
    """Steps an evolve/trajectory call takes, from the public
    ``default_step`` and ``NoiseSchedule.breakpoints``."""
    args, kwargs = call
    spec = args[0]
    if spec.t_final == 0.0:
        return 0
    dt = spec.dt if spec.dt is not None else default_step(
        spec.model, spec.schedule, spec.t_final)
    bp = spec.schedule.breakpoints
    if fn_name == "dynamics.trajectory":
        samples = args[2] if len(args) > 2 else kwargs["samples"]
        times = np.linspace(0.0, spec.t_final, samples)
        return sum(_segments(bp, float(a), float(b), dt)
                   for a, b in zip(times, times[1:]))
    steps = _segments(bp, 0.0, spec.t_final, dt)
    verify = args[2] if len(args) > 2 else kwargs.get("verify_convergence",
                                                      False)
    if verify:
        steps += _segments(bp, 0.0, spec.t_final, dt / 2.0)
    return steps


def summarize(spans: Spans, wall: float, default_step) -> dict:
    """Per-layer metrics of one traced pass whose ops took ``wall`` s.

    ``default_step`` must be the unwrapped function, so counting adds
    no spans.
    """
    ids = np.asarray(spans.name_id, dtype=np.int64)
    start = np.asarray(spans.start)
    end = np.asarray(spans.end)
    parent = np.asarray(spans.parent, dtype=np.int64)
    own = self_times(start, end, parent)
    names = spans.names
    name_layer = np.array([LAYERS.index(n.split(".")[0]) for n in names],
                          dtype=np.int64)
    layer_of = name_layer[ids]
    calls = dict(zip(names, np.bincount(ids, minlength=len(names)).tolist()))

    def count(group) -> int:
        return sum(calls.get(n, 0) for n in group)

    m: dict = {}
    total_self = 0.0
    for li, layer in enumerate(LAYERS):
        mask = layer_of == li
        self_s = float(np.sum(own[mask]))
        total_self += self_s
        m[f"{layer}.calls"] = int(np.sum(mask))
        m[f"{layer}.self_s"] = self_s
        m[f"{layer}.share"] = self_s / wall if wall > 0 else 0.0

    def captures(name):
        return [c for c in spans.captured if names[ids[c[0]]] == name]

    writes = captures("cli.write_atomic")
    m["cli.write_s"] = float(sum(end[i] - start[i] for i, _ in writes))
    m["cli.bytes_out"] = sum(len(text.encode("utf-8")) for _, text in writes)

    build_ids = {i for i, n in enumerate(names) if n in BUILD}
    build_s = 0.0
    for i in np.nonzero(np.isin(ids, list(build_ids)))[0]:
        p = parent[i]
        while p >= 0 and ids[p] not in build_ids:
            p = parent[p]
        if p < 0:
            build_s += end[i] - start[i]
    m["hilbert.build_s"] = float(build_s)
    m["hilbert.max_dim"] = max(
        (dim for _, dim in captures("hilbert.build_sensor_model")),
        default=0)
    m["hilbert.min_eig_calls"] = count(
        {"hilbert.DensityMatrix.min_eigenvalue"})

    m["linalg.eigh_n3_sum"] = sum(
        n ** 3 for _, n in captures("linalg.jacobi_eigh"))

    steps = 0
    for name in ("dynamics.evolve_lindblad_numeric", "dynamics.trajectory"):
        steps += sum(rk4_steps(name, call, default_step)
                     for _, call in captures(name))
    dyn = m["dynamics.self_s"]
    m["dynamics.rk4_steps"] = steps
    m["dynamics.rk4_steps_per_s"] = steps / dyn if dyn > 0 else 0.0
    m["dynamics.schedule_evals"] = count(SCHEDULE_EVALS)

    m["fisher.sld_calls"] = count({"fisher.sld_and_qfi"})
    m["fisher.closed_form_calls"] = count(CLOSED_FORMS)

    evals = count({"protocols.advantage_ratio"})
    prot = m["protocols.self_s"]
    m["protocols.ratio_evals"] = evals
    m["protocols.ratio_evals_per_s"] = evals / prot if prot > 0 else 0.0

    m["svgmap.bytes_out"] = sum(
        len(svg.encode("utf-8"))
        for _, svg in captures("svgmap.render_heatmap_svg"))

    m["trace.wall_s"] = wall
    m["trace.unattributed_s"] = wall - total_self
    return m


def write_spans(spans: Spans, path: str):
    """Dump one pass of spans as gzip CSV: name,start_s,end_s,parent."""
    t0 = spans.start[0] if len(spans) else 0.0
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        fh.write("name,start_s,end_s,parent\n")
        for nid, s, e, p in zip(spans.name_id, spans.start, spans.end,
                                spans.parent):
            fh.write(f"{spans.names[nid]},{s - t0:.9f},{e - t0:.9f},{p}\n")
