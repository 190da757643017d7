"""Benchmark command for dephasor.

    python3 bench/run.py --workload {survey,crosscheck} --seed N \
        --seconds S --trace {0,1}

``--workload wide`` runs the 11-qubit workload, which BENCHMARK.json
does not list (see ``UNGATED``).

Run from anywhere; paths resolve against the checkout that holds this
file.  The workload runs in a fresh client process (``client.py``) with
BLAS threads pinned.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs the separate traced mode and prints the per-layer
metrics.  Names and units come from ``BENCHMARK.json``.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

Before the timed client, six set-up probes (fresh processes that only
set up) run, and ``setup_s`` is the median of the seven set-up times.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
CLIENT = os.path.join(BENCH_DIR, "client.py")
BLAS_THREADS = min(2, os.cpu_count() or 1)
SETUP_PROBES = 6
# The client stops itself (run guard); this only catches a client stuck
# in native code, so the command still ends inside its time limit.
HARD_LIMIT_S = 175.0
# Workloads that run by hand but are not in BENCHMARK.json: a run of
# the full set there must fit the contract's total time.
UNGATED = ("wide",)


def client_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_client(args: list, timeout: float) -> dict:
    """Run client.py and return its JSON line; raise on any failure."""
    proc = subprocess.run([sys.executable, CLIENT] + args, env=client_env(),
                          stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, timeout), check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"client exited with {proc.returncode}")
    return json.loads(lines[-1])


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description="dephasor benchmark")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]]
                        + list(UNGATED))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "dephasor",
                                       "__init__.py")):
        sys.stderr.write(f"error: no dephasor sources under {ROOT}/src\n")
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    start = time.monotonic()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(run_client(
                    common + ["--setup-only"],
                    HARD_LIMIT_S - (time.monotonic() - start))["setup_s"])
        result = run_client(
            common + ["--seconds", str(args.seconds),
                      "--trace", str(args.trace)],
            HARD_LIMIT_S - (time.monotonic() - start))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError,
            KeyError) as exc:
        sys.stderr.write(f"error: {args.workload} seed {args.seed}: {exc}\n")
        return 1

    values = result["metrics"]
    info = result["info"]
    if setups:
        setups.append(values["setup_s"])
        values["setup_s"] = statistics.median(setups)
        info["setup_samples"] = len(setups)

    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {_fmt(args.seconds)}  trace {args.trace}  "
          f"blas_threads {info['blas_threads']}  python {info['python']}  "
          f"numpy {info['numpy']}")
    notes = {
        "op_tail_s": f"p{info.get('tail_percentile', 0):.1f} of "
                     f"{info.get('samples')} ops, "
                     f"{info.get('tail_beyond')} beyond",
        "setup_s": f"median of {info.get('setup_samples')} set-ups",
    }
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        note = notes.get(m["name"], "") if not args.trace else ""
        print(f"  {m['name']:30s} {_fmt(values[m['name']]):>14s} "
              f"{m['unit']:8s} {note}".rstrip())
    print(f"  {'failed_ratio':30s} {_fmt(info['failed_ratio']):>14s} "
          f"{'ratio':8s} {result['failed']} of {result['attempted']} ops")
    if "spans" in info:
        print(f"  {info['rounds']} traced rounds; spans of the reported pass "
              f"in {info['spans']}")
    if "by_label" in info:
        print("  op latency by slot (median s, ops):")
        for label, (med, n) in sorted(info["by_label"].items(),
                                      key=lambda kv: kv[1][0]):
            print(f"    {label:44s} {med:10.4g}  x{n}")
    for error in info["errors"]:
        print(f"  error: {error}")
    correct = result["failed"] == 0 and info.get("counts_repeat", True)
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
