"""Golden CLI outputs on the shipped models, compared byte for byte.

Each case is one ``dephasor`` invocation; the files it writes are kept
under ``tests/golden/<case>.<ext>``.  A change that moves bytes on
purpose regenerates them with

    PYTHONPATH=src python tests/test_golden.py

and says in CHANGES.md which files moved and by how much, as printed by
the read-only diff mode (it writes nothing):

    PYTHONPATH=src python tests/test_golden.py --diff
"""

import pathlib
import re
import sys
import tempfile

import pytest

from dephasor.cli import parse_and_run

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
GHZ2 = str(ROOT / "models" / "ghz2.json")
GHZ3 = str(ROOT / "models" / "ghz3.json")
NOON2 = str(ROOT / "models" / "noon2.json")
GRID_9X7 = "x=t:0.01:2:9;y=gamma:0.05:20:7;deltaE=2"
GRID_RAMP = "x=omega_t:0.02:3:9;y=gamma_dot:0.1:30:7;deltaE=1.5;omega=1.5"

# case name -> argv without the output flags; the extensions are the
# files the case writes (the first through --out, an .svg through --svg)
CASES = {
    "validate-ghz2": (["validate", "--model", GHZ2], ("json",)),
    "validate-ghz3": (["validate", "--model", GHZ3], ("json",)),
    "validate-noon2": (["validate", "--model", NOON2], ("json",)),
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
    "qfi-bound-ghz3-time": (
        ["qfi", "--model", GHZ3, "--schedule", "pw:0:0.2;0.3:1", "--t", "0.5",
         "--param", "time", "--method", "bound", "--dt", "1e-3"], ("json",)),
    "bound-ghz2-omega": (
        ["bound", "--model", GHZ2, "--schedule", "ramp:1", "--t", "0.6",
         "--param", "omega", "--dt", "1e-3"], ("json",)),
    "evolve-ghz2-ramp": (
        ["evolve", "--model", GHZ2, "--schedule", "ramp:2", "--t", "1",
         "--dt", "1e-3", "--samples", "5"], ("csv",)),
    "evolve-ghz3-const": (
        ["evolve", "--model", GHZ3, "--schedule", "const:0.4,t0=0.25",
         "--t", "0.8", "--dt", "1e-3", "--samples", "5"], ("csv",)),
    "evolve-noon2-pw": (
        ["evolve", "--model", NOON2, "--schedule", "pw:0.1:0.5;0.6:2;1:1",
         "--t", "1.2", "--dt", "1e-3", "--samples", "5"], ("csv",)),
    "estimate-ghz2-time": (
        ["estimate", "--model", GHZ2, "--schedule", "const:0.25",
         "--t", "1.5707963267948966", "--param", "time"], ("json",)),
    "estimate-noon2-omega": (
        ["estimate", "--model", NOON2, "--schedule", "ramp:1.5,t0=0.1",
         "--t", "0.8", "--param", "omega"], ("json",)),
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


def run_case(name: str, directory: pathlib.Path) -> dict:
    """Run one case into ``directory``; returns {file name: bytes}."""
    argv, exts = CASES[name]
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


def describe_move(old: bytes, new: bytes) -> str:
    """How the numbers of ``new`` differ from those of ``old``."""
    if NUMBER.split(old) != NUMBER.split(new):
        return "text outside the numbers changed"
    pairs = [(float(a), float(b)) for a, b in
             zip(NUMBER.findall(old), NUMBER.findall(new)) if a != b]
    worst = max(abs(a - b) / (max(abs(a), abs(b)) or 1.0)
                for a, b in pairs)
    return f"{len(pairs)} numbers moved, largest relative change {worst:.2g}"


def print_diff():
    """Print each fixture the current code would move; writes nothing."""
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


def test_describe_move_counts_numbers_and_largest_change():
    old = b"t,x\n0.5,1.0\n1e-3,-2.0\n"
    new = b"t,x\n0.5,1.5\n1e-3,-2.5\n"
    assert describe_move(old, new) == \
        "2 numbers moved, largest relative change 0.33"
    assert describe_move(old, b"t,y" + old[3:]) == \
        "text outside the numbers changed"


if __name__ == "__main__":
    if sys.argv[1:] == ["--diff"]:
        print_diff()
        sys.exit(0)
    GOLDEN.mkdir(exist_ok=True)
    for case in sorted(CASES):
        run_case(case, GOLDEN)
    sys.stdout.write(f"wrote {len(CASES)} cases to {GOLDEN}\n")
