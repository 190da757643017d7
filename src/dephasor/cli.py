"""Command-line front end.

Exit codes: 0 success, 1 input validation failure, 2 numerical contract
violation, 3 internal error (any other exception, reported as
``error: internal: <Type>: <message>``).  Errors are a single
machine-parsable line on stderr.  All file output goes through an
atomic write (temp file in the target directory, then rename), and
identical invocations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import dataclass, field

import numpy as np

from . import dynamics, estimators, fisher, protocols
from .dynamics import EvolutionSpec, NoiseSchedule
from .hilbert import (CatSpec, NumericalContractError, SensorModel,
                      ValidationError, cat_initial_state, cat_spec_for,
                      load_model)
from .svgmap import render_heatmap_svg


@dataclass
class RunManifest:
    """What a run is about to touch, checked before any computation."""

    command: str
    model_path: str | None = None
    outputs: list = field(default_factory=list)  # (format, path)

    def validate(self):
        if self.model_path is not None and not os.path.isfile(self.model_path):
            raise ValidationError(f"model file not found: {self.model_path}")
        for _, path in self.outputs:
            parent = os.path.dirname(os.path.abspath(path))
            if not os.path.isdir(parent):
                raise ValidationError(f"output directory missing: {parent}")


def write_atomic(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-dephasor-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def parse_schedule(text: str) -> NoiseSchedule:
    """Grammar: const:<g>[,t0=<t0>] | ramp:<gdot>[,t0=<t0>]
    | pw:<t0:g0;t1:g1;...>"""
    head, sep, rest = text.partition(":")
    if not sep:
        raise ValidationError(f"malformed schedule {text!r}")
    if head in ("const", "ramp"):
        parts = rest.split(",")
        try:
            value = float(parts[0])
        except ValueError as exc:
            raise ValidationError(f"malformed schedule rate: {exc}") from exc
        t0 = 0.0
        for extra in parts[1:]:
            key, eq, raw = extra.partition("=")
            if key != "t0" or not eq:
                raise ValidationError(
                    f"unknown schedule option {extra!r}")
            try:
                t0 = float(raw)
            except ValueError as exc:
                raise ValidationError(f"malformed t0: {exc}") from exc
        if head == "const":
            return NoiseSchedule.constant(value, t0=t0)
        return NoiseSchedule.linear_ramp(value, t0=t0)
    if head == "pw":
        knots = []
        for chunk in rest.split(";"):
            tk, sep2, gk = chunk.partition(":")
            if not sep2:
                raise ValidationError(f"malformed knot {chunk!r}")
            try:
                knots.append((float(tk), float(gk)))
            except ValueError as exc:
                raise ValidationError(f"malformed knot {chunk!r}") from exc
        return NoiseSchedule.piecewise_linear(knots)
    raise ValidationError(f"unknown schedule variant {head!r}")


def _json_text(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _emit(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        write_atomic(out, text)


def _load_model(command: str, args) -> SensorModel:
    """Check what the run will touch, then load its model."""
    RunManifest(command, model_path=args.model,
                outputs=_outputs(args)).validate()
    return load_model(args.model)


def _cmd_validate(args) -> int:
    model = _load_model("validate", args)
    spec = cat_spec_for(model)
    doc = {
        "kind": model.kind,
        "N": model.size,
        "dim": model.dim,
        "omega": model.omega,
        "lindblad": "energy" if model.energy_lindblad else "custom",
        "delta_e": spec.delta_e,
        "delta_l": spec.delta_l,
        "spectrum_min": float(np.min(model.spectrum)),
        "spectrum_max": float(np.max(model.spectrum)),
        "ok": True,
    }
    _emit(_json_text(doc), args.out)
    return 0


def _cmd_evolve(args) -> int:
    model = _load_model("evolve", args)
    schedule = parse_schedule(args.schedule)
    rho0 = cat_initial_state(model)
    spec = EvolutionSpec(model=model, schedule=schedule, t_final=args.t,
                         dt=args.dt)
    states = dynamics.trajectory(spec, rho0, samples=args.samples)
    i, j = model.branch_indices
    lines = ["t,pop_lo,pop_hi,coher_re,coher_im,trace,min_eig"]
    for t, rho in states:
        m = rho.matrix
        tr = float(np.trace(m).real)
        lines.append(
            f"{t!r},{float(m[i, i].real)!r},{float(m[j, j].real)!r},"
            f"{float(m[i, j].real)!r},{float(m[i, j].imag)!r},{tr!r},"
            f"{rho.min_eigenvalue()!r}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _qfi_report(args, model: SensorModel, schedule: NoiseSchedule,
                method: str) -> fisher.QfiReport:
    by_time = args.param == "time"
    if method == "analytic":
        return (fisher.qfi_time_cat if by_time else fisher.qfi_freq_cat)(
            cat_spec_for(model), schedule, args.t)
    run = EvolutionSpec(model=model, schedule=schedule, t_final=args.t,
                        dt=args.dt)
    rho_t = dynamics.evolve_lindblad_numeric(run, cat_initial_state(model))
    if method == "numeric":
        drho = (fisher.drho_dt if by_time else fisher.drho_domega)(
            model, schedule, rho_t, args.t)
        return fisher.sld_and_qfi(rho_t, drho, parameter=args.param)[1]
    bound = fisher.qfi_time_lower_bound if by_time else \
        fisher.qfi_freq_lower_bound
    return bound(model, schedule, rho_t, args.t)


def _cmd_qfi(args, method: str | None = None) -> int:
    model = _load_model("qfi", args)
    schedule = parse_schedule(args.schedule)
    report = _qfi_report(args, model, schedule,
                         method if method else args.method)
    _emit(_json_text(report.to_dict()), args.out)
    return 0


def _cmd_bound(args) -> int:
    return _cmd_qfi(args, method="bound")


def _cmd_estimate(args) -> int:
    model = _load_model("estimate", args)
    schedule = parse_schedule(args.schedule)
    spec = cat_spec_for(model)
    if args.sweep:
        lo, hi, steps = _parse_sweep(args.sweep)
        ts = np.linspace(lo, hi, steps)
        columns = estimators.signal_statistics(spec, schedule, ts,
                                               args.param)[1:]
        columns += (_one_over_qfi(spec, schedule, ts, args.param),)
        lines = ["t,mean,var_O,d_mean,var_estimator,one_over_qfi"]
        for row in zip(ts.tolist(), *(c.tolist() for c in columns)):
            lines.append(",".join(repr(v) for v in row))
        _emit("\n".join(lines) + "\n", args.out)
        return 0
    rep = estimators.estimator_variance(spec, schedule, args.t, args.param)
    doc = rep.to_dict()
    doc["one_over_qfi"] = _one_over_qfi(spec, schedule, args.t, args.param)
    doc["saturation_ratio"] = estimators.saturation_ratio(
        spec, schedule, args.t, args.param)
    _emit(_json_text(doc), args.out)
    return 0


@np.errstate(divide="ignore")
def _one_over_qfi(spec: CatSpec, schedule: NoiseSchedule, t, param: str):
    """1/F: 0 at the onset divergence, inf where F vanishes."""
    qfi = fisher.law_at(fisher.qfi_law, spec, schedule, t, param)
    return dynamics.scalar_or_array(t, np.divide(1.0, qfi))


def _parse_sweep(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValidationError("sweep must look like t_min:t_max:steps")
    try:
        lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ValidationError(f"malformed sweep: {exc}") from exc
    if steps < 2 or not lo < hi or lo < 0.0:
        raise ValidationError("sweep needs 0 <= t_min < t_max and steps >= 2")
    return lo, hi, steps


def parse_grid(text: str) -> protocols.GridSpec:
    """Inline grid grammar:
    x=<name>:<min>:<max>:<steps>;y=<name>:<min>:<max>:<steps>
    [;scale=log|linear][;deltaE=..][;deltaL=..][;omega=..][;t0=..]"""
    if text == "default_fig1":
        return protocols.default_fig_grid()
    fields = {"scale": "log", "deltaE": "2", "deltaL": None, "omega": "1",
              "t0": "0"}
    axes = {}
    for chunk in text.split(";"):
        key, eq, raw = chunk.partition("=")
        if not eq:
            raise ValidationError(f"malformed grid field {chunk!r}")
        if key in ("x", "y"):
            bits = raw.split(":")
            if len(bits) != 4:
                raise ValidationError(
                    f"axis must look like name:min:max:steps, got {raw!r}")
            try:
                axes[key] = (bits[0], float(bits[1]), float(bits[2]),
                             int(bits[3]))
            except ValueError as exc:
                raise ValidationError(f"malformed axis {raw!r}") from exc
        elif key in fields:
            fields[key] = raw
        else:
            raise ValidationError(f"unknown grid field {key!r}")
    if "x" not in axes or "y" not in axes:
        raise ValidationError("grid needs both x= and y= axes")
    try:
        delta_e = float(fields["deltaE"])
        delta_l = float(fields["deltaL"]) if fields["deltaL"] is not None \
            else delta_e
        omega = float(fields["omega"])
        t0 = float(fields["t0"])
    except ValueError as exc:
        raise ValidationError(f"malformed grid number: {exc}") from exc
    spec = CatSpec(delta_e=delta_e, delta_l=delta_l, omega=omega)
    xn, x0, x1, xs = axes["x"]
    yn, y0, y1, ys = axes["y"]
    return protocols.GridSpec(x_name=xn, x_min=x0, x_max=x1, x_steps=xs,
                              y_name=yn, y_min=y0, y_max=y1, y_steps=ys,
                              scale=fields["scale"], spec=spec, t0=t0)


def _cmd_scan(args) -> int:
    outputs = [("csv", args.out)]
    if args.svg:
        outputs.append(("svg", args.svg))
    RunManifest("scan", outputs=outputs).validate()
    grid = parse_grid(args.grid)
    table = protocols.heatmap_scan(grid, args.param)
    write_atomic(args.out, table.to_csv())
    if args.svg:
        title = f"advantage ratio ({args.param})"
        write_atomic(args.svg, render_heatmap_svg(table, title=title))
    return 0


def _parse_box(text: str) -> dict:
    box = {}
    for chunk in text.split(";"):
        key, eq, raw = chunk.partition("=")
        if not eq:
            raise ValidationError(f"malformed box field {chunk!r}")
        bits = raw.split(":")
        try:
            if len(bits) == 1:
                box[key] = float(bits[0])
            elif len(bits) == 2:
                box[key] = (float(bits[0]), float(bits[1]))
            else:
                raise ValidationError(f"malformed box range {raw!r}")
        except ValueError as exc:
            raise ValidationError(f"malformed box value {raw!r}") from exc
    return box


def _cmd_optimize(args) -> int:
    model = _load_model("optimize", args)
    spec = cat_spec_for(model)
    box = _parse_box(args.box)
    report = protocols.maximize_ratio(
        spec, args.param, box, schedule_kind=args.schedule_kind, t0=args.t0)
    _emit(_json_text(report.to_dict()), args.out)
    return 0


def _outputs(args) -> list:
    return [("file", args.out)] if getattr(args, "out", None) else []


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dephasor",
        description="Cat-state sensing under commuting dephasing: dynamics, "
                    "Fisher information, and noise-advantage analysis.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, model=True, schedule=True, t=True, param=False):
        if model:
            p.add_argument("--model", required=True,
                           help="path to a sensor model JSON file")
        if schedule:
            p.add_argument("--schedule", required=True,
                           help="const:<g>[,t0=..] | ramp:<gdot>[,t0=..] "
                                "| pw:<t:g;t:g;...>")
        if t:
            p.add_argument("--t", type=float, required=True,
                           help="sensing time")
        if param:
            p.add_argument("--param", choices=fisher.PARAMETERS,
                           required=True, help="estimated parameter")
        p.add_argument("--out", default=None, help="output path "
                       "(stdout when omitted)")

    p = sub.add_parser("validate", help="check a model file")
    p.add_argument("--model", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("evolve", help="integrate and dump a trajectory")
    add_common(p)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--samples", type=int, default=101)
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser("qfi", help="Fisher information at a single time")
    add_common(p, param=True)
    p.add_argument("--method", choices=("analytic", "numeric", "bound"),
                   default="analytic")
    p.add_argument("--dt", type=float, default=None)
    p.set_defaults(func=_cmd_qfi)

    p = sub.add_parser("bound", help="commutator lower bound on the QFI")
    add_common(p, param=True)
    p.add_argument("--dt", type=float, default=None)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("estimate", help="signal statistics and estimator "
                                        "variance")
    add_common(p, t=False, param=True)
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--sweep", default=None,
                   help="t_min:t_max:steps for a CSV sweep")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("scan", help="advantage-ratio heatmap over a grid")
    p.add_argument("--param", choices=fisher.PARAMETERS, required=True)
    p.add_argument("--grid", default="default_fig1",
                   help="default_fig1 or x=name:min:max:steps;y=...")
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--svg", default=None, help="optional SVG output path")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("optimize", help="maximize the advantage ratio")
    p.add_argument("--model", required=True)
    p.add_argument("--param", choices=fisher.PARAMETERS, required=True)
    p.add_argument("--box", required=True,
                   help="t=<v|lo:hi>;gamma=<v|lo:hi> (or gamma_dot=...)")
    p.add_argument("--schedule-kind", choices=("constant", "linear_ramp"),
                   default="constant", dest="schedule_kind")
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_optimize)
    return parser


def parse_and_run(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "estimate" and args.t is None and args.sweep is None:
        sys.stderr.write("error: validation: estimate needs --t or --sweep\n")
        return 1
    try:
        return args.func(args)
    except ValidationError as exc:
        sys.stderr.write(f"error: validation: {exc}\n")
        return 1
    except FileNotFoundError as exc:
        sys.stderr.write(f"error: validation: {exc}\n")
        return 1
    except NumericalContractError as exc:
        sys.stderr.write(f"error: numerical-contract: {exc}\n")
        return 2
    except Exception as exc:  # last resort: one line, never a traceback
        sys.stderr.write(f"error: internal: {type(exc).__name__}: {exc}\n")
        return 3


def main():
    sys.exit(parse_and_run())


if __name__ == "__main__":
    main()
