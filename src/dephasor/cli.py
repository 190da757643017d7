"""Command-line front end.

Exit codes: 0 success, 1 input validation failure, 2 numerical contract
violation, 3 internal error (any other exception, reported as
``error: internal: <Type>: <message>``).  Errors are a single
machine-parsable line on stderr.  All file output goes through an
atomic write (temp file in the target directory, then rename), and
identical invocations produce byte-identical files.  An output file
gets mode 0o666 less the umask, as ``open`` gives a new file, whether
it is new or replaces one.

``_OPTIONS`` defines each option once; ``_COMMANDS`` lists each
subcommand's options.  Every number, in an option or an inline grammar
(schedule, grid, box, sweep), passes one rule, ``_number``: a finite
float, else a validation error naming the field; counts are ``int``
literals.  A flag a command would ignore is an error: ``estimate`` takes
one of ``--t`` and ``--sweep``, and ``--dt`` is not for ``analytic``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import dynamics, estimators, fisher, protocols
from .dynamics import EvolutionSpec, NoiseSchedule
from .hilbert import (CatSpec, NumericalContractError, SensorModel,
                      ValidationError, cat_initial_state, cat_spec_for,
                      load_model)
from .svgmap import join_rows, render_heatmap_svg


def _check_paths(model_path: str | None, outputs):
    """Check what a run will touch before any computation: the model
    file, then the directory of each output path given."""
    if model_path is not None and not os.path.isfile(model_path):
        raise ValidationError(f"model file not found: {model_path}")
    for path in filter(None, outputs):
        parent = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(parent):
            raise ValidationError(f"output directory missing: {parent}")


def write_atomic(path: str, text: str):
    """Write a new file next to ``path``, then rename it over ``path``.
    It is created 0o666, so the kernel applies the umask."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)),
                       f".tmp-dephasor-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _number(text: str, field: str, kind=float, error=ValidationError):
    """The one number rule: ``text`` as a finite float (an integer
    literal for ``kind=int``), else ``error`` naming ``field``."""
    try:
        value = kind(text)
        if math.isfinite(value):
            return value
    except ValueError:
        pass
    rule = "an integer" if kind is int else "a finite number"
    raise error(f"{field} must be {rule}, got {text!r}")


# the rule as an argparse type, whose error argparse prefixes with the option
_OPTION_NUMBER = functools.partial(_number, field="value",
                                   error=argparse.ArgumentTypeError)


def _pairs(chunks, sep: str, what: str):
    """(key, value) of each ``key<sep>value`` chunk, in order."""
    for chunk in chunks:
        key, found, raw = chunk.partition(sep)
        if not found:
            raise ValidationError(f"malformed {what} {chunk!r}")
        yield key, raw


def parse_schedule(text: str) -> NoiseSchedule:
    """Grammar: const:<g>[,t0=<t0>] | ramp:<gdot>[,t0=<t0>]
    | pw:<t0:g0;t1:g1;...>"""
    head, sep, rest = text.partition(":")
    if not sep:
        raise ValidationError(f"malformed schedule {text!r}")
    if head == "pw":
        return NoiseSchedule.piecewise_linear(
            [(_number(tk, "knot time"), _number(gk, "knot rate"))
             for tk, gk in _pairs(rest.split(";"), ":", "knot")])
    if head not in ("const", "ramp"):
        raise ValidationError(f"unknown schedule variant {head!r}")
    rate, *options = rest.split(",")
    value, t0 = _number(rate, "schedule rate"), 0.0
    for key, raw in _pairs(options, "=", "schedule option"):
        if key != "t0":
            raise ValidationError(f"unknown schedule option {key!r}")
        t0 = _number(raw, "t0")
    if head == "const":
        return NoiseSchedule.constant(value, t0=t0)
    return NoiseSchedule.linear_ramp(value, t0=t0)


def _csv(header: str, columns) -> str:
    """The header line, then a line of comma-separated ``repr`` per row
    of the float columns."""
    commas = [","] * len(columns[0])
    reprs = [list(map(repr, np.asarray(c, float).tolist())) for c in columns]
    return join_rows([s for col in reprs for s in (col, commas)][:-1],
                     head=header + "\n")


def _json_text(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _emit(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        write_atomic(out, text)


def _load_model(args) -> SensorModel:
    """Check what the run will touch, then load its model."""
    _check_paths(args.model, [args.out])
    return load_model(args.model)


def _cmd_validate(args):
    model = _load_model(args)
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


def _cmd_evolve(args):
    protocols.check_rows(args.samples, "--samples")
    model = _load_model(args)
    spec = EvolutionSpec(model=model, schedule=parse_schedule(args.schedule),
                         t_final=args.t, dt=args.dt)
    # the branch blocks: (lo, hi) in the model's eigenbasis, as arrays
    ts, m, lows = map(np.concatenate, zip(*dynamics.rk4_samples(
        spec, cat_initial_state(model), args.samples)[1]))
    _emit(_csv("t,pop_lo,pop_hi,coher_re,coher_im,trace,min_eig", [
        ts, m[:, 0, 0].real, m[:, 1, 1].real, m[:, 0, 1].real,
        m[:, 0, 1].imag, m.trace(axis1=1, axis2=2).real, lows]), args.out)


def _cmd_qfi(args):
    """``qfi``, and ``bound``, which is ``qfi --method bound``."""
    if args.method == "analytic" and args.dt is not None:
        raise ValidationError("--dt is for --method numeric and bound only")
    model, t, param = _load_model(args), args.t, args.param
    schedule = parse_schedule(args.schedule)
    if args.method == "analytic":
        report = fisher.qfi_cat(cat_spec_for(model), schedule, t, param)
    else:
        run = EvolutionSpec(model=model, schedule=schedule, t_final=t,
                            dt=args.dt)
        rho_t = dynamics.evolve_lindblad_numeric(run, cat_initial_state(model))
        if args.method == "bound":
            report = fisher.qfi_lower_bound(model, schedule, rho_t, t, param)
        else:
            drho = fisher.state_derivative(model, schedule, rho_t, t, param)
            report = fisher.sld_and_qfi(rho_t, drho, parameter=param)[1]
    _emit(_json_text(report.to_dict()), args.out)


def _cmd_estimate(args):
    sweep = None if args.sweep is None else _parse_sweep(args.sweep)
    model = _load_model(args)
    schedule = parse_schedule(args.schedule)
    spec = cat_spec_for(model)
    if sweep:
        ts = np.linspace(*sweep)
        columns = estimators.signal_statistics(spec, schedule, ts,
                                               args.param)[1:6]
        _emit(_csv("t,mean,var_O,d_mean,var_estimator,one_over_qfi",
                   (ts, *columns)), args.out)
        return
    _emit(_json_text(estimators.estimator_variance(
        spec, schedule, args.t, args.param).to_dict()), args.out)


def _parse_sweep(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValidationError("sweep must look like t_min:t_max:steps")
    lo, hi = _number(parts[0], "sweep t_min"), _number(parts[1], "sweep t_max")
    steps = _number(parts[2], "sweep steps", int)
    if steps < 2 or not 0.0 <= lo < hi:
        raise ValidationError("sweep needs 0 <= t_min < t_max and steps >= 2")
    protocols.check_rows(steps, "the sweep")
    return lo, hi, steps


def _grid_axis(raw: str) -> tuple[str, float, float, int]:
    bits = raw.split(":")
    if len(bits) != 4:
        raise ValidationError(
            f"axis must look like name:min:max:steps, got {raw!r}")
    return (bits[0], _number(bits[1], "axis min"),
            _number(bits[2], "axis max"), _number(bits[3], "axis steps", int))


def parse_grid(text: str) -> protocols.GridSpec:
    """Inline grid grammar:
    x=<name>:<min>:<max>:<steps>;y=<name>:<min>:<max>:<steps>
    [;scale=log|linear][;deltaE=..][;deltaL=..][;omega=..][;t0=..]"""
    if text == "default_fig1":
        return protocols.default_fig_grid()
    fields = {"scale": "log", "deltaE": "2", "omega": "1", "t0": "0"}
    for key, raw in _pairs(text.split(";"), "=", "grid field"):
        if key not in ("x", "y", "scale", "deltaE", "deltaL", "omega", "t0"):
            raise ValidationError(f"unknown grid field {key!r}")
        fields[key] = raw
    if "x" not in fields or "y" not in fields:
        raise ValidationError("grid needs both x= and y= axes")
    (xn, x0, x1, xs), (yn, y0, y1, ys) = map(_grid_axis,
                                             (fields["x"], fields["y"]))
    fields.setdefault("deltaL", fields["deltaE"])
    delta_e, delta_l, omega, t0 = (_number(fields[key], key) for key in
                                   ("deltaE", "deltaL", "omega", "t0"))
    spec = CatSpec(delta_e=delta_e, delta_l=delta_l, omega=omega)
    return protocols.GridSpec(x_name=xn, x_min=x0, x_max=x1, x_steps=xs,
                              y_name=yn, y_min=y0, y_max=y1, y_steps=ys,
                              scale=fields["scale"], spec=spec, t0=t0)


def _cmd_scan(args):
    _check_paths(None, [args.out, args.svg])
    grid = parse_grid(args.grid)
    table = protocols.heatmap_scan(grid, args.param)
    write_atomic(args.out, table.to_csv())
    if args.svg:
        title = f"advantage ratio ({args.param})"
        write_atomic(args.svg, render_heatmap_svg(table, title=title))


def _parse_box(text: str) -> dict:
    box = {}
    for key, raw in _pairs(text.split(";"), "=", "box field"):
        bits = raw.split(":")
        if len(bits) > 2:
            raise ValidationError(f"malformed box range {raw!r}")
        values = tuple(_number(b, f"box {key}") for b in bits)
        box[key] = values if len(values) == 2 else values[0]
    return box


def _cmd_optimize(args):
    spec = cat_spec_for(_load_model(args))
    report = protocols.maximize_ratio(
        spec, args.param, _parse_box(args.box),
        schedule_kind=args.schedule_kind, t0=args.t0)
    _emit(_json_text(report.to_dict()), args.out)


class _Parser(argparse.ArgumentParser):
    """A malformed command line is a validation error (exit 1, one line),
    not argparse's usage text and exit 2; subparsers inherit this."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


# Every option's argparse keywords, defined once.
_OPTIONS = {
    "--model": dict(help="path to a sensor model JSON file"),
    "--schedule": dict(help="const:<g>[,t0=..] | ramp:<gdot>[,t0=..] "
                            "| pw:<t:g;t:g;...>"),
    "--t": dict(type=_OPTION_NUMBER, help="sensing time"),
    "--param": dict(choices=fisher.PARAMETERS, help="estimated parameter"),
    "--out": dict(help="output path (stdout when omitted; scan: the CSV)"),
    "--dt": dict(type=_OPTION_NUMBER,
                 help="RK4 step (numeric and bound methods only)"),
    "--samples": dict(type=int, default=101, help="trajectory rows"),
    "--method": dict(choices=("analytic", "numeric", "bound"),
                     default="analytic"),
    "--sweep": dict(help="t_min:t_max:steps for a CSV sweep"),
    "--grid": dict(default="default_fig1",
                   help="default_fig1 or x=name:min:max:steps;y=..."),
    "--svg": dict(help="optional SVG output path"),
    "--box": dict(help="t=<v|lo:hi>;gamma=<v|lo:hi> (or gamma_dot=...)"),
    "--schedule-kind": dict(choices=("constant", "linear_ramp"),
                            default="constant"),
    "--t0": dict(type=_OPTION_NUMBER, default=0.0, help="noise onset"),
}

# subcommand: (help, handler, required options, other options)
_COMMANDS = {
    "validate": ("check a model file", _cmd_validate, "--model", "--out"),
    "evolve": ("integrate and dump a trajectory", _cmd_evolve,
               "--model --schedule --t", "--out --dt --samples"),
    "qfi": ("Fisher information at a single time", _cmd_qfi,
            "--model --schedule --t --param", "--out --method --dt"),
    "bound": ("commutator lower bound on the QFI", _cmd_qfi,
              "--model --schedule --t --param", "--out --dt"),
    "estimate": ("signal statistics and estimator variance", _cmd_estimate,
                 "--model --schedule --param", "--out"),
    "scan": ("advantage-ratio heatmap over a grid", _cmd_scan,
             "--param --out", "--grid --svg"),
    "optimize": ("maximize the advantage ratio", _cmd_optimize,
                 "--model --param --box", "--schedule-kind --t0 --out"),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dephasor",
        description="Cat-state sensing under commuting dephasing: dynamics, "
                    "Fisher information, and noise-advantage analysis.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(target, flags: str, **kw):
        for flag in flags.split():
            target.add_argument(flag, **_OPTIONS[flag], **kw)

    for name, (text, run, required, other) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.set_defaults(run=run)
        add(p, required, required=True)
        add(p, other)
    add(sub.choices["estimate"].add_mutually_exclusive_group(required=True),
        "--t --sweep")
    sub.choices["bound"].set_defaults(method="bound")
    return parser


def parse_and_run(argv=None) -> int:
    """Run one command; the parser is built on the first call and kept."""
    try:
        args = _build_parser().parse_args(argv)
        args.run(args)
        return 0
    except (ValidationError, FileNotFoundError) as exc:
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
