"""CLI surface: commands, exit codes, file emission, SVG rendering."""

import json
import math
import os
import pathlib
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from dephasor import (CatSpec, NoiseSchedule, ValidationError,
                      advantage_ratio, heatmap_scan)
from dephasor.cli import parse_and_run, parse_grid, parse_schedule
from dephasor.fisher import qfi_time_cat
from dephasor.protocols import GridSpec
from dephasor.svgmap import render_heatmap_svg

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODELS = ROOT / "models"
GHZ2 = str(MODELS / "ghz2.json")
NOON2 = str(MODELS / "noon2.json")


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
    sch = parse_schedule("const:0.5")
    assert sch.variant == "constant" and sch.gamma == 0.5
    sch = parse_schedule("ramp:2,t0=0.1")
    assert sch.variant == "linear_ramp"
    assert sch.gamma_dot == 2.0 and sch.t0 == 0.1
    sch = parse_schedule("pw:0:0;0.2:1;0.5:0.5")
    assert sch.variant == "piecewise_linear"
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
    ("qfi", "--model", GHZ2, "--schedule", "const:1e308", "--t", "1",
     "--param", "time"),
    ("qfi", "--model", NOON2, "--schedule", "const:1", "--t", "1e300",
     "--param", "omega"),
    ("estimate", "--model", GHZ2, "--schedule", "const:1e308", "--t", "1",
     "--param", "time"),
], ids=["qfi-time-rate", "qfi-omega-time", "estimate-time-rate"])
def test_overflow_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: numerical-contract:")
    assert "Warning" not in err


def test_scan_overflow_exits_2_without_output(capsys, tmp_path):
    out = tmp_path / "scan.csv"
    code, _, err = run_cli(capsys, "scan", "--param", "time", "--grid",
                           "x=t:1:10:3;y=gamma:1e300:1e307:3",
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
    qfi = qfi_time_cat(spec, NoiseSchedule.constant(0.25),
                       math.pi / 2.0).value
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
    assert "needs --t or --sweep" in err


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
    assert doc["method"] == "golden_section"


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

def test_unexpected_exception_exits_3_with_one_line(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr("dephasor.cli._cmd_validate", broken)
    code, out, err = run_cli(capsys, "validate", "--model", GHZ2)
    assert code == 3 and out == ""
    assert err == "error: internal: RuntimeError: boom\n"


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "dephasor.cli", "validate", "--model", GHZ2],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ok"] is True
