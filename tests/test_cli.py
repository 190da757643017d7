"""CLI surface: commands, exit codes, file emission, SVG rendering."""

import json
import math
import os
import pathlib
import stat
import subprocess
import sys
import tracemalloc
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from dephasor import (CatSpec, DensityMatrix, NoiseSchedule, ValidationError,
                      advantage_ratio, cat_spec_for, heatmap_scan, load_model)
from dephasor import cli
from dephasor.cli import parse_and_run, parse_grid, parse_schedule
from dephasor.fisher import qfi_cat
from dephasor.protocols import MAX_ROWS, GridSpec
from dephasor.svgmap import render_heatmap_svg

from conftest import framed, haar_unitary

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODELS = ROOT / "models"
GHZ2 = str(MODELS / "ghz2.json")
NOON2 = str(MODELS / "noon2.json")
GHZ3 = str(MODELS / "ghz3.json")
Q12 = str(MODELS / "q12.json")


def child_env():
    """This environment with the package source first on PYTHONPATH, so a
    child interpreter imports the same package as the tests."""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}


def run_cli(capsys, *argv):
    code = parse_and_run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- grammars

def test_parse_schedule_variants():
    assert parse_schedule("const:0.5") == NoiseSchedule.constant(0.5)
    sch = parse_schedule("ramp:2,t0=0.1")
    assert sch == NoiseSchedule.linear_ramp(2.0, t0=0.1) and sch.t0 == 0.1
    sch = parse_schedule("pw:0:0;0.2:1;0.5:0.5")
    assert sch == NoiseSchedule.piecewise_linear(
        [(0.0, 0.0), (0.2, 1.0), (0.5, 0.5)])
    assert sch.knots == ((0.0, 0.0), (0.2, 1.0), (0.5, 0.5))


@pytest.mark.parametrize("text", [
    "const", "const:abc", "ramp:1,tau=2", "pw:0:0", "pw:1;2",
    "step:1.0", "const:-1",
])
def test_parse_schedule_rejects(text):
    with pytest.raises(ValidationError):
        parse_schedule(text)


def test_parse_grid_named_default():
    grid = parse_grid("default_fig1")
    assert grid.x_name == "omega_t"
    assert len(grid.x_values()) == 81


def test_parse_grid_inline():
    grid = parse_grid("x=t:0.1:1:5;y=gamma:0.2:2:4;scale=linear;"
                      "deltaE=3;omega=1.5")
    assert grid.x_steps == 5 and grid.y_steps == 4
    assert grid.scale == "linear"
    assert grid.spec.delta_e == 3.0
    # deltaL defaults to deltaE
    assert grid.spec.delta_l == 3.0
    assert grid.spec.omega == 1.5


@pytest.mark.parametrize("text", [
    "x=t:0.1:1:5", "x=t:0.1:1;y=gamma:0.2:2:4",
    "x=t:0.1:1:5;y=gamma:0.2:2:4;shape=round", "scale=log",
])
def test_parse_grid_rejects(text):
    with pytest.raises(ValidationError):
        parse_grid(text)


# ---------------------------------------------------------------- validate

def test_validate_reports_model_summary(capsys):
    code, out, err = run_cli(capsys, "validate", "--model", GHZ2)
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["kind"] == "qubit_network"
    assert doc["dim"] == 4
    assert doc["delta_e"] == 2.0
    assert doc["lindblad"] == "energy"
    assert doc["spectrum_min"] == -1.0 and doc["spectrum_max"] == 1.0


def test_validate_rejects_noncommuting_model(capsys):
    bad = str(MODELS / "bad_noncommuting.json")
    code, out, err = run_cli(capsys, "validate", "--model", bad)
    assert code == 1
    assert err.startswith("error: validation:")
    assert "commute" in err


def test_validate_missing_model_file(capsys):
    code, _, err = run_cli(capsys, "validate", "--model", "/nope/missing.json")
    assert code == 1
    assert "not found" in err


def test_output_directory_checked_before_work(capsys, tmp_path):
    out = str(tmp_path / "no" / "such" / "dir" / "r.json")
    code, _, err = run_cli(capsys, "validate", "--model", GHZ2, "--out", out)
    assert code == 1
    assert "output directory missing" in err


# ------------------------------------------------------------------ evolve

def test_evolve_csv_shape_and_physics(capsys, tmp_path):
    out = str(tmp_path / "traj.csv")
    code, _, err = run_cli(capsys, "evolve", "--model", NOON2,
                           "--schedule", "const:0.2", "--t", "1.0",
                           "--dt", "1e-3", "--samples", "5", "--out", out)
    assert code == 0 and err == ""
    text = pathlib.Path(out).read_text()
    assert "np.float64" not in text
    lines = text.splitlines()
    assert lines[0] == "t,pop_lo,pop_hi,coher_re,coher_im,trace,min_eig"
    assert len(lines) == 6
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    spec = CatSpec(delta_e=2.0, delta_l=2.0, omega=1.0)
    sch = NoiseSchedule.constant(0.2)
    for t, lo, hi, cre, cim, trace, mineig in rows:
        assert lo == pytest.approx(0.5, abs=1e-9)
        assert hi == pytest.approx(0.5, abs=1e-9)
        assert trace == pytest.approx(1.0, abs=1e-12)
        assert mineig > -1e-9
        env = 0.5 * math.exp(-4.0 * sch.integral(t))
        assert math.hypot(cre, cim) == pytest.approx(env, abs=1e-9)


def test_evolve_reads_the_branches_in_the_model_eigenbasis(capsys,
                                                           tmp_path):
    # h is diagonal in a Haar frame: the branch indices point into the
    # model's eigenbasis, not the computational one
    path = _random_energy_model(np.random.default_rng(7),
                                tmp_path / "haar.json")
    delta_l = cat_spec_for(load_model(path)).delta_l
    out = str(tmp_path / "traj.csv")
    code, _, err = run_cli(capsys, "evolve", "--model", path,
                           "--schedule", "const:0.2", "--t", "1.0",
                           "--dt", "1e-3", "--samples", "5", "--out", out)
    assert code == 0, err
    sch = NoiseSchedule.constant(0.2)
    for line in pathlib.Path(out).read_text().splitlines()[1:]:
        t, lo, hi, cre, cim = (float(v) for v in line.split(",")[:5])
        assert abs(lo - 0.5) <= 1e-12 and abs(hi - 0.5) <= 1e-12
        env = 0.5 * math.exp(-delta_l ** 2 * sch.integral(t))
        assert abs(math.hypot(cre, cim) - env) <= 1e-8


def test_evolve_never_forms_a_dense_matrix(capsys, tmp_path, monkeypatch):
    # every column is read from the state's array in the model's
    # eigenbasis and from its spectrum, never from DensityMatrix.matrix
    u = haar_unitary(np.random.default_rng(11), 5)
    h = framed(u, np.array([-1.0, -0.25, 0.0, 0.5, 1.0]))
    path = tmp_path / "haar.json"
    path.write_text(json.dumps({
        "kind": "custom", "N": 5, "omega": 1.5, "lindblad": "energy",
        "h": {"matrix": [[[v.real, v.imag] for v in row]
                         for row in h.tolist()]}}))
    argv = ["evolve", "--model", str(path), "--schedule", "ramp:2,t0=0.1",
            "--t", "1.0", "--dt", "1e-3", "--samples", "6", "--out"]
    plain, patched = str(tmp_path / "plain.csv"), str(tmp_path / "no.csv")
    assert run_cli(capsys, *argv, plain)[0] == 0

    def forbidden(rho):
        raise AssertionError("evolve formed a dense matrix")

    monkeypatch.setattr(DensityMatrix, "matrix", property(forbidden))
    code, _, err = run_cli(capsys, *argv, patched)
    assert code == 0, err
    assert pathlib.Path(patched).read_bytes() == \
        pathlib.Path(plain).read_bytes()


@pytest.mark.parametrize("argv", [
    ["validate"],
    ["evolve", "--schedule", "const:1", "--t", "1", "--samples", "101"],
    ["qfi", "--schedule", "ramp:2", "--t", "1", "--param", "time",
     "--method", "numeric"],
    ["qfi", "--schedule", "ramp:2", "--t", "1", "--param", "omega",
     "--method", "numeric"],
    ["bound", "--schedule", "ramp:2", "--t", "1", "--param", "time"],
])
def test_twelve_qubit_commands_hold_no_dense_array(capsys, tmp_path, argv):
    # a 12-qubit network is its spectra: one dense 4096 x 4096 complex
    # array would be 256 MB, and every command stays below 16 MB
    argv = [argv[0], "--model", Q12, *argv[1:], "--out",
            str(tmp_path / "out")]
    tracemalloc.start()
    try:
        code = parse_and_run(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0, capsys.readouterr().err
    assert peak < 16 * 2 ** 20


def test_evolve_rows_still_at_the_start_read_the_initial_state(capsys):
    # linspace(0, 5e-324, 5) repeats t = 0: those rows are the initial
    # row, not what unwritten memory held
    code, out, err = run_cli(capsys, "evolve", "--model", GHZ2, "--schedule",
                             "const:1", "--t", "5e-324", "--dt", "1",
                             "--samples", "5")
    assert code == 0 and err == ""
    rows = out.splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["0.0"] * 3 + ["5e-324"] * 2
    assert rows[1] == rows[2] == rows[0] == "0.0,0.5,0.5,0.5,0.0,1.0,0.0"


def test_evolve_holds_columns_not_states(tmp_path):
    # 65,536 samples: the columns are read from the pass's stacked blocks,
    # with no state object per sample (holding them all peaked at 84 MiB;
    # now about 48 MiB, mostly the CSV's repr strings)
    argv = ["evolve", "--model", GHZ2, "--schedule", "const:1", "--t", "1",
            "--samples", "65536", "--out", str(tmp_path / "e.csv")]
    tracemalloc.start()
    try:
        code = parse_and_run(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 64 * 2 ** 20


def test_evolve_output_is_byte_deterministic(capsys, tmp_path):
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    for out in (a, b):
        code, _, _ = run_cli(capsys, "evolve", "--model", GHZ2,
                             "--schedule", "ramp:1,t0=0.1", "--t", "0.6",
                             "--dt", "2e-3", "--samples", "4", "--out", out)
        assert code == 0
    assert pathlib.Path(a).read_bytes() == pathlib.Path(b).read_bytes()
    # the atomic writer must not leave temp files behind
    assert not [p for p in os.listdir(tmp_path) if p.startswith(".tmp-")]


@pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_output_files_take_the_mode_open_gives(capsys, tmp_path, umask):
    # 0o666 less the umask, for a new file and for one it replaces
    # (mkstemp's 0o600 used to stay on both)
    new, old = tmp_path / "new.csv", tmp_path / "old.json"
    old.write_text("stale")
    old.chmod(0o600 if umask == 0o022 else 0o644)
    previous = os.umask(umask)
    try:
        code, _, _ = run_cli(capsys, "evolve", "--model", GHZ2, "--schedule",
                             "const:1", "--t", "0.5", "--dt", "1e-2",
                             "--samples", "3", "--out", str(new))
        assert code == 0
        code, _, _ = run_cli(capsys, "qfi", "--model", GHZ2, "--schedule",
                             "const:1", "--t", "0.5", "--param", "time",
                             "--out", str(old))
        assert code == 0
    finally:
        os.umask(previous)
    for path in (new, old):
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask
    assert old.read_text() != "stale"
    assert sorted(os.listdir(tmp_path)) == ["new.csv", "old.json"]


def test_evolve_exit_2_on_broken_integration(capsys):
    code, _, err = run_cli(capsys, "evolve", "--model", NOON2,
                           "--schedule", "const:80", "--t", "4",
                           "--dt", "0.5", "--samples", "3")
    assert code == 2
    assert err.startswith("error: numerical-contract:")
    assert "smaller dt" in err


def test_evolve_overflow_prints_one_stderr_line():
    # in a fresh interpreter, so numpy's RuntimeWarnings would reach stderr
    proc = subprocess.run(
        [sys.executable, "-m", "dephasor.cli", "evolve", "--model", NOON2,
         "--schedule", "const:80", "--t", "400", "--dt", "0.5",
         "--samples", "2"],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: numerical-contract:")


@pytest.mark.parametrize("argv, code, err", [
    # the trapezoid of a knot segment after t overflows, and is discarded
    (["bound", "--model", GHZ3, "--schedule", "pw:-0.0:1.7e308;1e20:-0.0",
      "--t", "0", "--param", "omega"], 0, ""),
    # knot rates near the float maximum: a finite dose (8.5e307) whose
    # decay exponent overflows, so e^{-x} rate^2 is 0, taken from logs
    (["qfi", "--model", GHZ2, "--schedule", "pw:0:1.7e308;1:1.7e308",
      "--t", "0.5", "--param", "time"], 0, ""),
    # a ramp rate beyond the float range: no RK4 step can resolve it
    (["qfi", "--model", GHZ2, "--schedule", "ramp:1.7e308", "--t", "1e150",
      "--param", "time", "--method", "numeric"], 1, "error: validation:"),
    # d<O>/dt = -4.4e-323 squares to 0, and so does var(O): not 0/0
    (["estimate", "--model", GHZ3, "--schedule", "const:1.7e308,t0=5e-324",
      "--t", "5e-324", "--param", "time"], 0, ""),
    # e^{-x} underflows where rate^2 or (dose / t)^2 overflows: the laws
    # take that product from logs, not as 0 x inf
    (["qfi", "--model", GHZ2, "--schedule", "const:1e200", "--t", "1",
      "--param", "omega"], 0, ""),
    (["qfi", "--model", GHZ2, "--schedule", "const:1e200", "--t", "1",
      "--param", "time"], 0, ""),
    (["qfi", "--model", GHZ2, "--schedule", "const:1e308", "--t", "1",
      "--param", "time"], 0, ""),
    (["qfi", "--model", NOON2, "--schedule", "const:1", "--t", "1e300",
      "--param", "omega"], 0, ""),
    # rate times time beyond the float range: an infinite dose, whose
    # ratio e^{-x} (...) is 0 at x = inf, not exp(inf - inf)
    (["optimize", "--model", NOON2, "--param", "omega", "--box",
      "t=3.7:1e300;gamma=1e3:1e20", "--schedule-kind", "constant"], 0, ""),
    # non-finite bounds are rejected where they are parsed
    (["scan", "--param", "omega", "--grid", "x=omega_t:-inf:1e20:3;"
      "y=gamma_dot:0:1e-310:2;scale=linear;deltaE=1e20;omega=3.7",
      "--out", "{tmp}/o.csv"], 1, "error: validation:"),
    (["estimate", "--model", GHZ2, "--schedule", "const:1", "--sweep",
      "0:inf:3", "--param", "time"], 1, "error: validation:"),
    # the envelope underflows where b dL^2 = inf or is huge (x = 2000
    # and 1600): d<O>/dt and var(O) / (d<O>/dt)^2 = expm1(x) / N^2 are
    # finite, formed as mantissa and power of 2, not 0 x inf or inf / inf
    (["estimate", "--model", GHZ2, "--schedule", "const:1e308", "--t",
      "2.5e-306", "--param", "time"], 0, ""),
    (["estimate", "--model", GHZ2, "--schedule", "const:1e300", "--t",
      "2e-298", "--param", "time"], 0, ""),
    # box bounds are checked where they are parsed, before any linspace
    (["optimize", "--model", GHZ3, "--param", "time", "--box",
      "t=2:inf;gamma=0.5:1", "--schedule-kind", "constant", "--t0", "0.5"],
     1, "error: validation:"),
    # the scan's contract checks run before its omega_t axis division
    (["scan", "--param", "omega", "--grid", "x=omega_t:-1:1e20:2;"
      "y=gamma_dot:5e-324:1:2;scale=linear;deltaE=3.7;deltaL=1.7e308;"
      "omega=1e-310;t0=0", "--out", "{tmp}/o.csv"], 1, "error: validation:"),
    # a ramp dose past the float range is inf, without a warning
    (["optimize", "--model", NOON2, "--param", "omega", "--box",
      "t=0:1.7e308;gamma_dot=3.7:1e300", "--schedule-kind", "linear_ramp"],
     0, ""),
    # a positive QFI whose inverse overflows
    (["estimate", "--model", GHZ2, "--schedule", "ramp:1e300", "--param",
      "omega", "--t", "1e-310"], 2, "error: numerical-contract:"),
    # a time ratio near 1e306 whose QFI overflows
    (["scan", "--param", "time", "--grid", "x=t:1e-156:2e-156:2;"
      "y=gamma:1e150:2e150:2;scale=log;deltaE=100;deltaL=100", "--out",
      "{tmp}/r.csv"], 0, ""),
    # a zero-rate row where the unit ramp's dose is inf: the noiseless
    # schedule, not 0 x inf
    (["scan", "--param", "time", "--grid",
      "x=t:0:1e300:2;y=gamma_dot:0:1:2;scale=linear", "--out",
      "{tmp}/z.csv"], 0, ""),
    (["optimize", "--model", NOON2, "--param", "time", "--box",
      "t=1e20:1e300;gamma_dot=0", "--schedule-kind", "linear_ramp",
      "--t0=1"], 0, ""),
    (["optimize", "--model", NOON2, "--param", "omega", "--box",
      "t=1e20:1e300;gamma_dot=0", "--schedule-kind", "linear_ramp",
      "--t0=1"], 0, ""),
    # an SLD QFI past the float range, as the closed form reports it
    (["qfi", "--model", GHZ2, "--schedule", "const:1e300", "--t=1e-310",
      "--param", "time", "--method", "numeric"], 2,
     "error: numerical-contract:"),
    (["qfi", "--model", GHZ2, "--schedule", "const:1e160", "--t=1e-310",
      "--param", "time", "--method", "numeric"], 2,
     "error: numerical-contract:"),
    # var(O) / (d<O>/dt)^2 = e^x / N^2 past the float range (x = 8e308
    # and 8e8), where d<O>/dt underflows to 0: not inf flagged as diverged
    (["estimate", "--model", GHZ2, "--schedule", "const:1e308", "--t", "1",
      "--param", "time"], 2, "error: numerical-contract:"),
    (["estimate", "--model", GHZ2, "--schedule", "const:1e308", "--t",
      "1e-300", "--param", "time"], 2, "error: numerical-contract:"),
    # the 1.7e308 case above with a gap whose 2 dL^2 is finite: the
    # frequency-law check still comes before the omega_t division
    (["scan", "--param", "omega", "--grid", "x=omega_t:-1:1e20:2;"
      "y=gamma_dot:5e-324:1:2;scale=linear;deltaE=3.7;deltaL=1e150;"
      "omega=1e-310;t0=0", "--out", "{tmp}/o.csv"], 1,
     "error: validation: frequency laws"),
])
def test_extreme_floats_end_in_the_contract_without_warnings(capsys, argv,
                                                             code, err,
                                                             tmp_path):
    argv = [a.format(tmp=tmp_path) for a in argv]
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        got = parse_and_run(argv)
    captured = capsys.readouterr()
    assert got == code
    assert [str(w.message) for w in seen] == []
    assert "NaN" not in captured.out
    assert not [p for p in tmp_path.iterdir() if b"NaN" in p.read_bytes()]
    if code:
        assert captured.out == ""
        assert captured.err.startswith(err)
        assert len(captured.err.splitlines()) == 1
    else:
        assert captured.err == ""


# --------------------------------------------------------------------- qfi

def test_qfi_analytic_frozen_value(capsys):
    code, out, _ = run_cli(capsys, "qfi", "--model", GHZ2,
                           "--schedule", "const:0.1", "--t", "1",
                           "--param", "time")
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "analytic_cat"
    assert doc["parameter"] == "time"
    assert doc["value"] == pytest.approx(1.9278704518154612, rel=1e-13)


def test_qfi_numeric_agrees_with_analytic(capsys):
    args = ("--model", NOON2, "--schedule", "ramp:1,t0=0.1", "--t", "0.8",
            "--param", "omega")
    code, out_a, _ = run_cli(capsys, "qfi", *args, "--method", "analytic")
    assert code == 0
    val_a = json.loads(out_a)["value"]
    code, out_n, _ = run_cli(capsys, "qfi", *args, "--method", "numeric",
                             "--dt", "5e-4")
    assert code == 0
    doc_n = json.loads(out_n)
    assert doc_n["method"] == "numeric_sld"
    assert doc_n["value"] == pytest.approx(val_a, rel=1e-9)


def test_bound_subcommand_reports_lower_bound(capsys):
    code, out, _ = run_cli(capsys, "bound", "--model", GHZ2,
                           "--schedule", "const:0.1", "--t", "1",
                           "--param", "time", "--dt", "1e-3")
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "lower_bound"
    assert doc["value"] == pytest.approx(0.9346042453638188, rel=1e-8)
    assert doc["value"] <= 1.9278704518154612


def test_qfi_rejects_bad_schedule_text(capsys):
    code, _, err = run_cli(capsys, "qfi", "--model", GHZ2,
                           "--schedule", "const:oops", "--t", "1",
                           "--param", "time")
    assert code == 1
    assert err.startswith("error: validation:")


def _random_energy_model(rng, path, dim=4):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(z)
    h = (q * np.sort(rng.uniform(-1.0, 1.0, dim))) @ q.conj().T
    h = 0.5 * (h + h.conj().T)
    doc = {"kind": "custom", "N": dim, "omega": float(rng.uniform(0.5, 1.5)),
           "lindblad": "energy",
           "h": {"matrix": [[[float(v.real), float(v.imag)] for v in row]
                            for row in h]}}
    path.write_text(json.dumps(doc))
    return str(path)


def test_qfi_omega_on_random_energy_custom_models(capsys, tmp_path):
    # the branch gaps of these models round apart in the last bit for
    # about a third of the frames; energy dephasing must still hold
    rng = np.random.default_rng(20260822)
    for k in range(12):
        path = _random_energy_model(rng, tmp_path / f"m{k}.json")
        code, out, err = run_cli(capsys, "qfi", "--model", path,
                                 "--schedule", "const:0.2", "--t", "0.7",
                                 "--param", "omega")
        assert code == 0, err
        assert json.loads(out)["value"] > 0.0


@pytest.mark.parametrize("argv", [
    # x = 8: e^{-x} rate^2 ~ 1e396 and e^{-x} t^2 ~ 1e596 overflow
    ("qfi", "--model", GHZ2, "--schedule", "const:1e200", "--t", "1e-200",
     "--param", "time"),
    ("qfi", "--model", NOON2, "--schedule", "const:1e-300", "--t", "1e300",
     "--param", "omega"),
    # d<O>/dt = -3.84e308: b dL^2 e^{-x} is past the float range
    ("estimate", "--model", GHZ2, "--schedule", "const:1e308", "--t",
     "1e-310", "--param", "time"),
], ids=["qfi-time-rate", "qfi-omega-time", "estimate-time-rate"])
def test_overflow_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: numerical-contract:")
    assert "Warning" not in err


@pytest.mark.parametrize("argv", [
    ("evolve", "--model", GHZ2, "--schedule", "const:0.1", "--t", "1",
     "--dt", "1e-300"),
    ("qfi", "--model", GHZ2, "--schedule", "const:0.1", "--t", "1e300",
     "--param", "time", "--method", "numeric"),
], ids=["evolve-tiny-dt", "qfi-huge-t"])
def test_step_count_beyond_the_cap_exits_1(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: validation: step count ")
    assert "exceeds the cap of 1.000e+08" in lines[0]


@pytest.mark.parametrize("argv, what, rows", [
    (("scan", "--param", "time", "--grid",
      "x=t:0.1:1:100000;y=gamma:0.1:1:100000"), "the grid", 10 ** 10),
    (("estimate", "--model", GHZ2, "--schedule", "const:1", "--param",
      "time", "--sweep", "0:1:1000000000"), "the sweep", 10 ** 9),
    (("evolve", "--model", GHZ2, "--schedule", "const:1", "--t", "1",
      "--samples", "1000000000"), "--samples", 10 ** 9),
], ids=["scan-grid", "estimate-sweep", "evolve-samples"])
def test_outputs_beyond_the_row_cap_exit_1_at_parse_time(capsys, tmp_path,
                                                        argv, what, rows):
    # 74.5 GiB of ratios, 7.45 GiB of sweep times or sample times: the
    # cap rejects each where it is parsed, before any array exists
    out = tmp_path / "big.csv"
    tracemalloc.start()
    try:
        code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, stdout) == (1, "")
    assert err == (f"error: validation: {what} asks for {rows} rows; one "
                   f"output holds at most MAX_ROWS = {MAX_ROWS}\n")
    assert peak < 2 ** 20
    assert not out.exists()


def test_row_cap_admits_outputs_of_exactly_max_rows():
    assert MAX_ROWS == 2 ** 20
    assert cli._parse_sweep(f"0:1:{MAX_ROWS}") == (0.0, 1.0, MAX_ROWS)
    with pytest.raises(ValidationError, match="MAX_ROWS"):
        cli._parse_sweep(f"0:1:{MAX_ROWS + 1}")
    assert parse_grid("x=t:0.1:1:1024;y=gamma:0.1:1:1024").x_steps == 1024
    with pytest.raises(ValidationError, match="the grid asks for 1049600"):
        parse_grid("x=t:0.1:1:1024;y=gamma:0.1:1:1025")


def test_scan_overflow_exits_2_without_output(capsys, tmp_path):
    out = tmp_path / "scan.csv"
    code, _, err = run_cli(capsys, "scan", "--param", "time", "--grid",
                           "x=t:1e-300:1e-299:3;y=gamma:1e299:1e300:3",
                           "--out", str(out))
    assert code == 2
    assert err.startswith("error: numerical-contract:")
    assert not out.exists()


# ---------------------------------------------------------------- estimate

def test_estimate_single_time_report(capsys):
    code, out, _ = run_cli(capsys, "estimate", "--model", GHZ2,
                           "--schedule", "const:0.25", "--t",
                           repr(math.pi / 2.0), "--param", "time")
    assert code == 0
    doc = json.loads(out)
    assert doc["mean"] == pytest.approx(-0.20787957635076193, rel=1e-12)
    assert doc["variance_O"] == pytest.approx(1.0 - doc["mean"] ** 2,
                                              rel=1e-12)
    assert doc["parameter"] == "time"
    spec = CatSpec(delta_e=2.0, delta_l=2.0, omega=1.0)
    qfi = qfi_cat(spec, NoiseSchedule.constant(0.25), math.pi / 2.0,
                  "time").value
    assert doc["one_over_qfi"] == pytest.approx(1.0 / qfi, rel=1e-12)
    assert doc["saturation_ratio"] == pytest.approx(
        doc["variance_estimator"] * qfi, rel=1e-12)
    assert doc["saturation_ratio"] >= 1.0


def test_estimate_sweep_csv(capsys, tmp_path):
    out = str(tmp_path / "sweep.csv")
    code, _, _ = run_cli(capsys, "estimate", "--model", GHZ2,
                         "--schedule", "ramp:4,t0=1.362657674005472",
                         "--param", "time", "--sweep", "1.4:1.7:7",
                         "--out", out)
    assert code == 0
    lines = pathlib.Path(out).read_text().splitlines()
    assert lines[0] == "t,mean,var_O,d_mean,var_estimator,one_over_qfi"
    assert len(lines) == 8
    assert "np.float64" not in "".join(lines)
    # every row round-trips to the value the library computes
    spec = CatSpec(delta_e=2.0, delta_l=2.0, omega=1.0)
    sch = NoiseSchedule.linear_ramp(4.0, t0=1.362657674005472)
    for ln in lines[1:]:
        t, mean, *_ = (float(v) for v in ln.split(","))
        from dephasor.estimators import observable_expectation
        assert mean == observable_expectation(spec, sch, t).mean


def test_estimate_needs_time_or_sweep(capsys):
    code, _, err = run_cli(capsys, "estimate", "--model", GHZ2,
                           "--schedule", "const:0.1", "--param", "time")
    assert code == 1
    assert "one of the arguments --t --sweep is required" in err


def test_estimate_takes_only_one_of_time_and_sweep(capsys):
    # --t used to be dropped without a word when --sweep was given
    code, out, err = run_cli(capsys, "estimate", "--model", GHZ2,
                             "--schedule", "const:1", "--param", "time",
                             "--t", "0.5", "--sweep", "0:1:3")
    assert code == 1 and out == ""
    assert err == ("error: validation: dephasor estimate: argument --sweep: "
                   "not allowed with argument --t\n")


@pytest.mark.parametrize("dt", ["1e-3", "nan"])
def test_qfi_analytic_rejects_a_step(capsys, dt):
    # the closed form takes no step: --dt used to be dropped, even --dt nan
    code, out, err = run_cli(capsys, "qfi", "--model", GHZ2, "--schedule",
                             "const:1", "--t", "0.5", "--param", "time",
                             "--method", "analytic", f"--dt={dt}")
    assert code == 1 and out == ""
    assert err.startswith("error: validation: ") and "--dt" in err
    assert err.count("\n") == 1


# -------------------------------------------------------------------- scan

def test_scan_writes_csv_and_svg_deterministically(capsys, tmp_path):
    grid = "x=t:0.01:2:9;y=gamma:0.05:20:7;deltaE=2"
    paths = []
    for tag in ("one", "two"):
        csv_p = str(tmp_path / f"{tag}.csv")
        svg_p = str(tmp_path / f"{tag}.svg")
        code, _, _ = run_cli(capsys, "scan", "--param", "omega",
                             "--grid", grid, "--out", csv_p, "--svg", svg_p)
        assert code == 0
        paths.append((csv_p, svg_p))
    (c1, s1), (c2, s2) = paths
    assert pathlib.Path(c1).read_bytes() == pathlib.Path(c2).read_bytes()
    assert pathlib.Path(s1).read_bytes() == pathlib.Path(s2).read_bytes()

    lines = pathlib.Path(c1).read_text().splitlines()
    assert lines[0] == "# parameter=omega x=t y=gamma"
    assert lines[1] == "x,y,ratio,region"
    assert len(lines) == 2 + 9 * 7
    regions = {ln.rsplit(",", 1)[1] for ln in lines[2:]}
    assert regions == {"enhanced", "hindered"}

    svg = pathlib.Path(s1).read_text()
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    # one rect per cell, plus background and frame
    rects = svg.count("<rect ")
    assert rects == 9 * 7 + 2
    # both regions exist, so the unit contour must be drawn
    assert "<line " in svg


def test_scan_default_grid_spans_both_regions(capsys, tmp_path):
    out = str(tmp_path / "fig.csv")
    code, _, _ = run_cli(capsys, "scan", "--param", "omega", "--out", out)
    assert code == 0
    text = pathlib.Path(out).read_text()
    lines = text.splitlines()
    assert len(lines) == 2 + 81 * 61
    assert ",enhanced" in text and ",hindered" in text
    # ratios parsed back bit-exactly reproduce the library value
    x, y, ratio, _ = lines[2].split(",")
    spec = CatSpec(delta_e=2.0, delta_l=2.0, omega=1.0)
    expect = advantage_ratio(spec, NoiseSchedule.constant(float(y)),
                             float(x), "omega")
    assert float(ratio) == expect


def test_scan_paints_onset_divergence_at_the_ceiling(capsys, tmp_path):
    # x starts on the onset t0, where the time ratio is +inf
    csv_p, svg_p = str(tmp_path / "a.csv"), str(tmp_path / "a.svg")
    code, _, _ = run_cli(
        capsys, "scan", "--param", "time", "--grid",
        "x=t:0.5:2:4;y=gamma:1:10:3;scale=linear;t0=0.5",
        "--out", csv_p, "--svg", svg_p)
    assert code == 0
    lines = pathlib.Path(csv_p).read_text().splitlines()
    assert lines[2] == "0.5,1.0,inf,enhanced"
    enhanced = np.array([ln.endswith(",enhanced") for ln in lines[2:]])
    assert enhanced.reshape(3, 4)[:, 0].all()
    assert not enhanced.reshape(3, 4)[:, 1:].any()

    root = ET.parse(svg_p).getroot()
    ns = "{http://www.w3.org/2000/svg}"
    fills = [r.get("fill") for r in root.findall(f"{ns}rect")[1:-1]]
    ceiling = "#67001f"
    assert [f == ceiling for f in fills] == enhanced.tolist()
    strokes = [ln for ln in root.findall(f"{ns}line")
               if ln.get("stroke-width") == "1.2"]
    # one vertical edge per row between the onset column and the next
    assert len(strokes) == 3
    assert {ln.get("x1") for ln in strokes} == {"252.50"}


def test_scan_rejects_bad_grid(capsys, tmp_path):
    out = str(tmp_path / "x.csv")
    code, _, err = run_cli(capsys, "scan", "--param", "time",
                           "--grid", "x=t:1:0:5;y=gamma:1:2:3",
                           "--out", out)
    assert code == 1
    assert err.startswith("error: validation:")
    assert not pathlib.Path(out).exists()


# ---------------------------------------------------------------- optimize

def test_optimize_reports_known_optimum(capsys):
    code, out, _ = run_cli(capsys, "optimize", "--model", GHZ2,
                           "--param", "omega", "--box",
                           "t=0.005;gamma=1:200")
    assert code == 0
    doc = json.loads(out)
    assert doc["best_ratio"] == pytest.approx(6476.305573607762, rel=1e-9)
    assert doc["best_params"]["gamma"] == pytest.approx(39.84, rel=5e-3)
    assert doc["advantage"] is True
    assert doc["method"] == "grid_refine"


def test_optimize_hindered_box(capsys):
    code, out, _ = run_cli(capsys, "optimize", "--model", GHZ2,
                           "--param", "time", "--box", "t=5;gamma=1:10")
    assert code == 0
    doc = json.loads(out)
    assert doc["best_ratio"] < 1.0
    assert doc["advantage"] is False


def test_optimize_rejects_bad_box(capsys):
    code, _, err = run_cli(capsys, "optimize", "--model", GHZ2,
                           "--param", "time", "--box", "t=0.1")
    assert code == 1
    assert err.startswith("error: validation:")


def test_optimize_box_with_three_bounds_names_the_range(capsys):
    code, out, err = run_cli(capsys, "optimize", "--model", GHZ2,
                             "--param", "time", "--box", "t=1:2:3;gamma=1")
    assert code == 1 and out == ""
    assert err == "error: validation: malformed box range '1:2:3'\n"


def test_optimize_all_cells_on_the_onset_is_a_validation_error(capsys):
    code, out, err = run_cli(capsys, "optimize", "--model", GHZ2,
                             "--param", "time", "--box", "t=0.5;gamma=1:10",
                             "--t0", "0.5")
    assert code == 1 and out == ""
    assert err.startswith("error: validation:") and "onset" in err
    assert err.count("\n") == 1


# ----------------------------------------------------------- svg rendering

def small_table():
    spec = CatSpec(delta_e=2.0, delta_l=2.0, omega=1.0)
    grid = GridSpec(x_name="t", x_min=0.01, x_max=2.0, x_steps=6,
                    y_name="gamma", y_min=0.05, y_max=20.0, y_steps=5,
                    scale="log", spec=spec)
    return heatmap_scan(grid, "time")


def test_svg_renders_well_formed_and_stable():
    table = small_table()
    svg1 = render_heatmap_svg(table, title="ratio")
    svg2 = render_heatmap_svg(table, title="ratio")
    assert svg1 == svg2
    root = ET.fromstring(svg1)
    assert root.attrib["width"] == "800"
    assert root.attrib["height"] == "600"
    assert "ratio" in svg1
    assert svg1.count("<rect ") == 6 * 5 + 2


def test_svg_contour_only_when_regions_mix():
    table = small_table()
    svg = render_heatmap_svg(table)
    # tick marks also use <line>; the contour adds strokes at width 1.2
    assert 'stroke-width="1.2"' in svg

    # an all-enhanced table draws no contour
    spec = CatSpec(delta_e=2.0, delta_l=2.0, omega=1.0)
    grid = GridSpec(x_name="t", x_min=0.001, x_max=0.002, x_steps=3,
                    y_name="gamma", y_min=5.0, y_max=10.0, y_steps=3,
                    scale="linear", spec=spec)
    quiet = heatmap_scan(grid, "omega")
    assert all(region == "enhanced" for *_, region in quiet.rows)
    assert 'stroke-width="1.2"' not in render_heatmap_svg(quiet)


def test_svg_color_floor_and_ceiling():
    from dephasor.svgmap import _color
    assert _color(0.0) == "#fddbc7"      # ratio 1, start of the warm ramp
    assert _color(9.0) == _color(4.0)    # clipped at the ceiling
    assert _color(-9.0) == _color(-3.0)  # clipped at the floor
    assert _color(math.inf) == _color(4.0)


# ------------------------------------------------------------- entry point

def test_commands_back_to_back_print_what_they_print_alone(capsys):
    # the parser is built once per process; nothing else carries over
    # from one call to the next, options and their defaults included
    runs = [
        ("evolve", "--model", NOON2, "--schedule", "ramp:1,t0=0.1", "--t",
         "0.6", "--dt", "2e-3", "--samples", "4"),
        ("qfi", "--model", GHZ2, "--schedule", "const:0.1", "--t", "1",
         "--param", "time", "--method", "numeric"),
        ("estimate", "--model", GHZ2, "--schedule", "const:0.1",
         "--param", "time"),
        ("validate", "--model", GHZ2),
        ("evolve", "--model", NOON2, "--schedule", "const:80", "--t", "400",
         "--dt", "0.5", "--samples", "2"),
        ("evolve", "--model", GHZ2, "--schedule", "const:0.5", "--t", "1"),
    ]
    alone = []
    for argv in runs:
        cli._build_parser.cache_clear()
        alone.append(run_cli(capsys, *argv))
    assert [code for code, _, _ in alone] == [0, 0, 1, 0, 2, 0]
    assert alone[-1][1].count("\n") == 102  # the default 101 samples
    cli._build_parser.cache_clear()
    assert [run_cli(capsys, *argv) for argv in runs] == alone
    assert [run_cli(capsys, *argv) for argv in runs[::-1]] == alone[::-1]


PARAMS = ("time", "omega")
REQUIRED = (True, None, None)
OPTIONAL = (False, None, None)
CLI_SURFACE = {
    "validate": {"--model": REQUIRED, "--out": OPTIONAL},
    "evolve": {"--model": REQUIRED, "--schedule": REQUIRED, "--t": REQUIRED,
               "--dt": OPTIONAL, "--samples": (False, 101, None),
               "--out": OPTIONAL},
    "qfi": {"--model": REQUIRED, "--schedule": REQUIRED, "--t": REQUIRED,
            "--param": (True, None, PARAMS), "--dt": OPTIONAL,
            "--out": OPTIONAL,
            "--method": (False, "analytic",
                         ("analytic", "numeric", "bound"))},
    "bound": {"--model": REQUIRED, "--schedule": REQUIRED, "--t": REQUIRED,
              "--param": (True, None, PARAMS), "--dt": OPTIONAL,
              "--out": OPTIONAL},
    "estimate": {"--model": REQUIRED, "--schedule": REQUIRED,
                 "--param": (True, None, PARAMS), "--t": OPTIONAL,
                 "--sweep": OPTIONAL, "--out": OPTIONAL},
    "scan": {"--param": (True, None, PARAMS),
             "--grid": (False, "default_fig1", None), "--out": REQUIRED,
             "--svg": OPTIONAL},
    "optimize": {"--model": REQUIRED, "--param": (True, None, PARAMS),
                 "--box": REQUIRED, "--t0": (False, 0.0, None),
                 "--out": OPTIONAL,
                 "--schedule-kind": (False, "constant",
                                     ("constant", "linear_ramp"))},
}


def test_cli_surface_is_frozen():
    # each subcommand's option strings, with required, default and choices
    parser = cli._build_parser()
    commands = parser._subparsers._group_actions[0].choices
    surface = {name: {opt: (a.required, a.default,
                            tuple(a.choices) if a.choices else None)
                      for a in sub._actions if a.dest != "help"
                      for opt in a.option_strings}
               for name, sub in commands.items()}
    assert surface == CLI_SURFACE


def test_unexpected_exception_exits_3_with_one_line(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr("dephasor.cli.cat_spec_for", broken)
    code, out, err = run_cli(capsys, "validate", "--model", GHZ2)
    assert code == 3 and out == ""
    assert err == "error: internal: RuntimeError: boom\n"


MALFORMED_ARGV = [
    ["qfi", "--model", "x"],
    ["evolve", "--model", GHZ2, "--schedule", "const:1", "--t", "1",
     "--samples", "abc"],
]


@pytest.mark.parametrize("argv", MALFORMED_ARGV)
def test_malformed_command_line_is_one_validation_line(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: validation: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", MALFORMED_ARGV)
def test_module_entry_point_malformed_command_line(argv):
    proc = subprocess.run([sys.executable, "-m", "dephasor.cli", *argv],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 1 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: validation: ")


def test_cli_import_loads_no_test_or_masked_array_modules():
    # every CLI call pays for what importing the CLI imports
    code = ("import sys, dephasor.cli; print(sorted({'mpmath', 'hypothesis',"
            " 'numpy.ma'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=child_env())
    assert proc.returncode == 0 and proc.stdout == "[]\n"


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "dephasor.cli", "validate", "--model", GHZ2],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ok"] is True
