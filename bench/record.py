"""Run the benchmark over several seeds and record medians and quartiles.

    python3 bench/record.py --seeds 1-10 --out bench/baseline_seed.json \
        [--workloads survey,crosscheck,wide] [--trace]

Without ``--workloads`` it runs the workloads BENCHMARK.json lists.

Each (workload, seed) is one ``run.py`` invocation.  The file holds the
machine fields, every run's metrics, and per metric the median, the
quartiles and the quartile spread as a share of the median, computed
with ``statistics.quantiles(values, n=4)``.  Two such files from the
same machine are the before/after pair a speed claim cites.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import run


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def commit() -> str:
    try:
        out = subprocess.run(["git", "-C", run.ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def summary(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds_arg, default="1-10")
    parser.add_argument("--workloads", default=None,
                        help="comma-separated; all in BENCHMARK.json if "
                             "omitted")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    spec = run.load_spec()
    seconds = spec["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]]

    import numpy
    doc = {"machine": {"nproc": os.cpu_count(),
                       "python": platform.python_version(),
                       "numpy": numpy.__version__,
                       "blas_threads": run.BLAS_THREADS,
                       "commit": commit()},
           "seconds": seconds, "trace": int(args.trace), "workloads": {}}
    for workload in workloads:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(run.BENCH_DIR, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(int(args.trace))],
                stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            runs.append(result)
            print(workload, seed, json.dumps(
                {k: v["value"] for k, v in result["metrics"].items()}),
                flush=True)
        names = list(runs[0]["metrics"])
        doc["workloads"][workload] = {
            "runs": runs,
            "summary": {n: summary([r["metrics"][n]["value"] for r in runs])
                        for n in names},
            "all_correct": all(r["correct"] for r in runs)}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    for workload, w in doc["workloads"].items():
        for name, s in w["summary"].items():
            print(f"{workload:10s} {name:28s} median {s['median']:.6g}  "
                  f"spread {s['spread']:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
