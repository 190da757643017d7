"""Golden CLI outputs on the shipped models, compared byte for byte.

Each case is one ``dephasor`` invocation; the files it writes are kept
under ``tests/golden/<case>.<ext>``.  A change that moves bytes on
purpose regenerates them with

    PYTHONPATH=src python tests/test_golden.py

and says in CHANGES.md which files moved and by how much, as printed by
the read-only diff mode (it writes nothing, and exits 1 when any file
would move, 0 when none would):

    PYTHONPATH=src python tests/test_golden.py --diff
"""

import json
import pathlib
import re
import sys
import tempfile

import numpy as np
import pytest

from dephasor.cli import parse_and_run
from dephasor.hilbert import load_model

from conftest import framed, haar_unitary

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
GHZ2 = str(ROOT / "models" / "ghz2.json")
GHZ3 = str(ROOT / "models" / "ghz3.json")
NOON2 = str(ROOT / "models" / "noon2.json")
Q12 = str(ROOT / "models" / "q12.json")
GRID_9X7 = "x=t:0.01:2:9;y=gamma:0.05:20:7;deltaE=2"
GRID_RAMP = "x=omega_t:0.02:3:9;y=gamma_dot:0.1:30:7;deltaE=1.5;omega=1.5"
GRID_TALL = "x=t:0.05:2:12;y=gamma_dot:0.1:30:30;deltaE=1.5"
GRID_2X2 = "x=t:0.2:1.2:2;y=gamma:0.05:2:2;deltaE=1"
# the onset divergence (inf) in the first column, exactly 1.0 on the
# zero-rate row, both regions and the ceiling color
GRID_ONSET = ("x=t:0.5:2:4;y=gamma:0:1:3;scale=linear;deltaE=1;deltaL=1.5;"
              "t0=0.5")

# case name -> argv without the output flags; the extensions are the
# files the case writes (the first through --out, an .svg through --svg)
CASES = {
    "validate-ghz2": (["validate", "--model", GHZ2], ("json",)),
    "validate-ghz3": (["validate", "--model", GHZ3], ("json",)),
    "validate-noon2": (["validate", "--model", NOON2], ("json",)),
    "validate-q12": (["validate", "--model", Q12], ("json",)),
    "qfi-analytic-ghz2-time": (
        ["qfi", "--model", GHZ2, "--schedule", "const:0.1", "--t", "1",
         "--param", "time"], ("json",)),
    "qfi-analytic-ghz2-omega": (
        ["qfi", "--model", GHZ2, "--schedule", "const:0.1", "--t", "1",
         "--param", "omega"], ("json",)),
    "qfi-analytic-ghz2-onset": (
        ["qfi", "--model", GHZ2, "--schedule", "const:0.5,t0=1", "--t", "1",
         "--param", "time"], ("json",)),
    "qfi-analytic-ghz3-time": (
        ["qfi", "--model", GHZ3, "--schedule", "ramp:2,t0=0.2", "--t", "0.7",
         "--param", "time"], ("json",)),
    "qfi-analytic-noon2-omega": (
        ["qfi", "--model", NOON2, "--schedule", "pw:0.1:0.5;0.6:2;1:1",
         "--t", "0.9", "--param", "omega"], ("json",)),
    "qfi-numeric-ghz2-time": (
        ["qfi", "--model", GHZ2, "--schedule", "ramp:2", "--t", "0.5",
         "--param", "time", "--method", "numeric", "--dt", "1e-3"],
        ("json",)),
    "qfi-numeric-noon2-omega": (
        ["qfi", "--model", NOON2, "--schedule", "const:0.3,t0=0.1",
         "--t", "0.5", "--param", "omega", "--method", "numeric",
         "--dt", "1e-3"], ("json",)),
    "qfi-numeric-q12-time": (
        ["qfi", "--model", Q12, "--schedule", "ramp:0.01", "--t", "1",
         "--param", "time", "--method", "numeric"], ("json",)),
    "qfi-numeric-q12-omega": (
        ["qfi", "--model", Q12, "--schedule", "ramp:0.01", "--t", "1",
         "--param", "omega", "--method", "numeric"], ("json",)),
    "qfi-bound-ghz3-time": (
        ["qfi", "--model", GHZ3, "--schedule", "pw:0:0.2;0.3:1", "--t", "0.5",
         "--param", "time", "--method", "bound", "--dt", "1e-3"], ("json",)),
    "bound-ghz2-omega": (
        ["bound", "--model", GHZ2, "--schedule", "ramp:1", "--t", "0.6",
         "--param", "omega", "--dt", "1e-3"], ("json",)),
    "bound-q12-time": (
        ["bound", "--model", Q12, "--schedule", "ramp:0.01", "--t", "1",
         "--param", "time"], ("json",)),
    "evolve-ghz2-ramp": (
        ["evolve", "--model", GHZ2, "--schedule", "ramp:2", "--t", "1",
         "--dt", "1e-3", "--samples", "5"], ("csv",)),
    "evolve-ghz3-const": (
        ["evolve", "--model", GHZ3, "--schedule", "const:0.4,t0=0.25",
         "--t", "0.8", "--dt", "1e-3", "--samples", "5"], ("csv",)),
    "evolve-noon2-pw": (
        ["evolve", "--model", NOON2, "--schedule", "pw:0.1:0.5;0.6:2;1:1",
         "--t", "1.2", "--dt", "1e-3", "--samples", "5"], ("csv",)),
    "evolve-q12-const": (
        ["evolve", "--model", Q12, "--schedule", "const:0.01", "--t", "1",
         "--samples", "101"], ("csv",)),
    "estimate-ghz2-time": (
        ["estimate", "--model", GHZ2, "--schedule", "const:0.25",
         "--t", "1.5707963267948966", "--param", "time"], ("json",)),
    "estimate-noon2-omega": (
        ["estimate", "--model", NOON2, "--schedule", "ramp:1.5,t0=0.1",
         "--t", "0.8", "--param", "omega"], ("json",)),
    # small t, where var(O) = 1 - <O>^2 would cancel: 0.25 and 2.5e199
    "estimate-ghz2-small-t": (
        ["estimate", "--model", GHZ2, "--schedule", "const:0",
         "--t", "1e-9", "--param", "time"], ("json",)),
    "estimate-ghz2-omega-small-t": (
        ["estimate", "--model", GHZ2, "--schedule", "const:0",
         "--t", "1e-100", "--param", "omega"], ("json",)),
    "sweep-ghz2-time": (
        ["estimate", "--model", GHZ2, "--schedule",
         "ramp:4,t0=1.362657674005472", "--param", "time",
         "--sweep", "1.4:1.7:7"], ("csv",)),
    "sweep-ghz3-omega": (
        ["estimate", "--model", GHZ3, "--schedule", "pw:0.2:0.5;0.8:1.5",
         "--param", "omega", "--sweep", "0:2:41"], ("csv",)),
    "sweep-noon2-time": (
        ["estimate", "--model", NOON2, "--schedule", "const:0.3,t0=0.5",
         "--param", "time", "--sweep", "0.25:1.5:11"], ("csv",)),
    "scan-9x7-omega": (
        ["scan", "--param", "omega", "--grid", GRID_9X7], ("csv", "svg")),
    "scan-9x7-time": (
        ["scan", "--param", "time", "--grid", GRID_9X7], ("csv", "svg")),
    "scan-ramp-time": (
        ["scan", "--param", "time", "--grid", GRID_RAMP], ("csv", "svg")),
    "scan-tall-time": (
        ["scan", "--param", "time", "--grid", GRID_TALL], ("csv", "svg")),
    "scan-2x2-omega": (
        ["scan", "--param", "omega", "--grid", GRID_2X2], ("csv", "svg")),
    "scan-onset-time": (
        ["scan", "--param", "time", "--grid", GRID_ONSET], ("csv", "svg")),
    "scan-fig1-omega": (
        ["scan", "--param", "omega", "--grid", "default_fig1"],
        ("csv", "svg")),
    "optimize-readme": (
        ["optimize", "--model", GHZ2, "--param", "omega", "--box",
         "t=0.005;gamma=1:200", "--schedule-kind", "constant"], ("json",)),
    "optimize-ghz3-time-both": (
        ["optimize", "--model", GHZ3, "--param", "time", "--box",
         "t=0.05:2;gamma_dot=0.1:20", "--schedule-kind", "linear_ramp",
         "--t0", "0.02"], ("json",)),
}


def run_case(name: str, directory: pathlib.Path,
             model: str | None = None) -> dict:
    """Run one case into ``directory``, on ``model`` instead of its own
    model file if given; returns {file name: bytes}."""
    argv, exts = CASES[name]
    if model is not None:
        at = argv.index("--model") + 1
        argv = argv[:at] + [model] + argv[at + 1:]
    paths = [directory / f"{name}.{ext}" for ext in exts]
    argv = list(argv) + ["--out", str(paths[0])]
    if len(paths) > 1:
        argv += ["--svg", str(paths[1])]
    code = parse_and_run(argv)
    if code != 0:
        raise RuntimeError(f"{name} exited {code}")
    return {p.name: p.read_bytes() for p in paths}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_bytes(name, tmp_path):
    for fname, data in run_case(name, tmp_path).items():
        assert data == (GOLDEN / fname).read_bytes(), fname


NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def haar_twin(path: str, out: pathlib.Path) -> str:
    """Write the ``custom`` twin of a shipped model: its h (and an explicit
    L) with the same levels, in a seeded Haar frame; returns its path."""
    model = load_model(path)
    u = haar_unitary(np.random.default_rng(20260822), model.dim)

    def matrix(levels):
        return {"matrix": [[[z.real, z.imag] for z in row]
                           for row in framed(u, levels).tolist()]}

    lind = "energy" if model.energy_lindblad else matrix(
        model.lindblad_spectrum)
    out.write_text(json.dumps({"kind": "custom", "N": model.dim,
                               "omega": model.omega, "lindblad": lind,
                               "h": matrix(model.spectrum)}))
    return str(out)


@pytest.mark.parametrize("name", sorted(
    n for n, (argv, _) in CASES.items() if "--model" in argv
    and argv[0] in ("evolve", "qfi", "bound", "estimate") and Q12 not in argv))
def test_golden_numbers_are_frame_invariant(name, tmp_path):
    # the same argv on the model's Haar-frame twin: every number within
    # 1e-9 relative, or 1e-12 absolute for round-off around 0 (min_eig);
    # not at 12 qubits, whose dense twin would be a 4096^2 eigensolve
    argv = CASES[name][0]
    twin = haar_twin(argv[argv.index("--model") + 1], tmp_path / "twin.json")
    for fname, data in run_case(name, tmp_path, twin).items():
        golden = (GOLDEN / fname).read_bytes()
        assert NUMBER.split(data) == NUMBER.split(golden), fname
        for a, b in zip(NUMBER.findall(data), NUMBER.findall(golden)):
            a, b = float(a), float(b)
            assert abs(a - b) <= max(1e-9 * max(abs(a), abs(b)), 1e-12), \
                (fname, a, b)


def describe_move(old: bytes, new: bytes) -> str:
    """How the numbers of ``new`` differ from those of ``old``, after the
    text between them that changed, if any."""
    old_text, new_text = NUMBER.split(old), NUMBER.split(new)
    if len(old_text) != len(new_text):
        return "text outside the numbers changed"
    parts = [f"text {a.decode()!r} -> {b.decode()!r}"
             for a, b in zip(old_text, new_text) if a != b]
    pairs = [(float(a), float(b)) for a, b in
             zip(NUMBER.findall(old), NUMBER.findall(new)) if a != b]
    if pairs:
        # the absolute change tells round-off around 0 (a relative
        # change of 1) from a real move
        worst = max(abs(a - b) / (max(abs(a), abs(b)) or 1.0)
                    for a, b in pairs)
        widest = max(abs(a - b) for a, b in pairs)
        parts.append(f"{len(pairs)} numbers moved, largest relative change "
                     f"{worst:.2g}, largest absolute change {widest:.2g}")
    return "; ".join(parts)


def print_diff() -> int:
    """Print each fixture the current code would move and return their
    count; writes nothing."""
    moved = 0
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            for fname, data in run_case(case, pathlib.Path(tmp)).items():
                path = GOLDEN / fname
                old = path.read_bytes() if path.exists() else None
                if old == data:
                    continue
                moved += 1
                what = "new file" if old is None else describe_move(old, data)
                sys.stdout.write(f"{fname}: {what}\n")
    sys.stdout.write(f"{moved} files would move\n")
    return moved


def test_diff_mode_counts_the_files_that_would_move(tmp_path, monkeypatch,
                                                    capsys):
    # the count is the exit status of --diff: 0 only when nothing moves
    name = "scan-2x2-omega"
    for ext in ("csv", "svg"):
        (tmp_path / f"{name}.{ext}").write_bytes(
            (GOLDEN / f"{name}.{ext}").read_bytes())
    monkeypatch.setattr(sys.modules[__name__], "CASES",
                        {name: CASES[name]})
    monkeypatch.setattr(sys.modules[__name__], "GOLDEN", tmp_path)
    assert print_diff() == 0
    assert capsys.readouterr().out == "0 files would move\n"
    csv = tmp_path / f"{name}.csv"
    csv.write_bytes(csv.read_bytes().replace(b"enhanced", b"hindered", 1))
    assert print_diff() == 1
    assert capsys.readouterr().out == \
        f"{name}.csv: text ',hindered\\n' -> ',enhanced\\n'\n" \
        "1 files would move\n"


def test_describe_move_counts_numbers_and_largest_change():
    old = b"t,x\n0.5,1.0\n1e-3,-2.0\n"
    new = b"t,x\n0.5,1.5\n1e-3,-2.5\n"
    assert describe_move(old, new) == \
        "2 numbers moved, largest relative change 0.33, largest absolute " \
        "change 0.5"
    assert describe_move(old, b"t,y" + old[3:]) == "text 't,x\\n' -> 't,y\\n'"
    assert describe_move(old, b"t,y" + new[3:]) == \
        "text 't,x\\n' -> 't,y\\n'; 2 numbers moved, largest relative " \
        "change 0.33, largest absolute change 0.5"
    # round-off around 0: relative change 1, absolute change tiny
    assert describe_move(b"min_eig\n-2e-17\n", b"min_eig\n0.0\n") == \
        "1 numbers moved, largest relative change 1, largest absolute " \
        "change 2e-17"
    assert describe_move(old, old + b"4.0\n") == \
        "text outside the numbers changed"


if __name__ == "__main__":
    if sys.argv[1:] == ["--diff"]:
        sys.exit(1 if print_diff() else 0)
    GOLDEN.mkdir(exist_ok=True)
    for case in sorted(CASES):
        run_case(case, GOLDEN)
    sys.stdout.write(f"wrote {len(CASES)} cases to {GOLDEN}\n")
