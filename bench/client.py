"""One workload's process: set up, drive the closed loop, check, report.

    python3 bench/client.py --workload W --seed N --seconds S --trace 0|1
    python3 bench/client.py --workload W --seed N --setup-only

``run.py`` starts it with BLAS threads pinned.  It prints one JSON line:
the raw metric values plus the facts the report prints beside them.

The client is a single closed-loop caller: it sends the next op only
after the previous one returned, and repeats the workload's pass of ops
until ``--seconds`` have passed, always finishing the pass in flight.
Each op is ``dephasor.cli.parse_and_run(argv)`` in-process, writing into
a scratch directory under ``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".bench_work")
TAIL_BEYOND = 10
MAX_TRACED_ROUNDS = 5


class BudgetExceeded(BaseException):
    """The run guard's deadline passed; raised from the alarm handler."""


def budget_seconds(seconds: float) -> float:
    """How long the loop may run before the guard stops it."""
    return min(150.0, 3.0 * seconds + 30.0)


def tail_latency(samples) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest nearest-rank
    percentile with at least ten samples beyond it.  With eleven samples
    or fewer that is the minimum, the limit the rule tends to as the
    sample count falls, so the value does not jump between runs that
    hold ten and eleven ops."""
    xs = sorted(samples)
    n = len(xs)
    k = max(0, n - TAIL_BEYOND - 1)
    return xs[k], 100.0 * (k + 1) / n, n - k - 1


def run_op(op, cli) -> tuple[bool, float, float, str]:
    """(passed, op seconds, check seconds, error) for one CLI invocation
    and the oracle check of its outputs."""
    for path in op.outputs:
        if os.path.exists(path):
            os.unlink(path)
    start = time.perf_counter()
    try:
        rc = cli.parse_and_run(op.argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # an op that raises is a failed op
        rc = f"{type(exc).__name__}: {exc}"
    end = time.perf_counter()
    if rc != 0:
        return False, end - start, 0.0, f"{op.label}: exit {rc!r}"
    try:
        op.check()
    except Exception as exc:  # any oracle complaint fails the op
        return (False, end - start, time.perf_counter() - end,
                f"{op.label}: {type(exc).__name__}: {exc}")
    return True, end - start, time.perf_counter() - end, ""


class Tally:
    """Attempts, failures, the latencies of ops that passed, and the
    time spent in oracle checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.latencies: list[float] = []
        self.by_label: dict[str, list[float]] = {}
        self.check_s = 0.0
        self.errors: list[str] = []

    def record(self, ok: bool, elapsed: float, check_s: float, error: str,
               label: str = ""):
        self.attempted += 1
        self.check_s += check_s
        if ok:
            self.latencies.append(elapsed)
            self.by_label.setdefault(label, []).append(elapsed)
        else:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(error)

    def give_up(self, unattempted: int, in_flight: str):
        """The guard fired: the op in flight and every op of its pass
        not yet started count as failed."""
        self.record(False, 0.0, 0.0, f"{in_flight}: run budget exceeded")
        self.attempted += unattempted
        self.failed += unattempted


def closed_loop(ops, seconds: float, cli, tally: Tally) -> float:
    """Run whole passes of ``ops`` until ``seconds`` have passed, so
    every slot holds the same number of samples and the latency order
    statistics do not depend on where the deadline cut a pass; returns
    the loop's wall time less its oracle checks."""
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    try:
        while i == 0 or i % len(ops) or time.perf_counter() < deadline:
            op = ops[i % len(ops)]
            tally.record(*run_op(op, cli), op.label)
            i += 1
    except BudgetExceeded:
        tally.give_up(len(ops) - i % len(ops) - 1, ops[i % len(ops)].label)
    return time.perf_counter() - start - tally.check_s


def one_pass(ops, cli, tally: Tally) -> float:
    """Run each op once; returns the summed op time (checks excluded)."""
    wall = 0.0
    for i, op in enumerate(ops):
        try:
            result = run_op(op, cli)
        except BudgetExceeded:
            tally.give_up(len(ops) - i - 1, op.label)
            raise
        tally.record(*result, op.label)
        wall += result[1]
    return wall


def traced_rounds(ops, seconds: float, cli, tally: Tally,
                  workload: str) -> tuple[dict, dict]:
    """(metrics, info) from alternating untraced and traced passes of
    the same ops, at least one round and as many as fit in ``seconds``.

    Per-layer values come from the traced pass of median wall time, so
    its layer self times and unattributed time sum to its wall exactly;
    counts must agree across every traced pass.
    """
    import tracing
    from dephasor.dynamics import default_step

    tracer = tracing.Tracer()
    rounds = []   # (untraced wall, traced wall, spans, per-layer metrics)
    start = time.perf_counter()
    try:
        while True:
            began = time.perf_counter()
            plain = one_pass(ops, cli, tally)
            spans = tracer.install()
            try:
                traced = one_pass(ops, cli, tally)
            finally:
                tracer.uninstall()
            rounds.append((plain, traced, spans,
                           tracing.summarize(spans, traced, default_step)))
            spans.captured.clear()
            now = time.perf_counter()
            # start another round only if it should end within --seconds
            if len(rounds) == MAX_TRACED_ROUNDS or \
                    2 * now - began - start > seconds:
                break
    except BudgetExceeded:
        if not rounds:
            raise
    counts = [{k: v for k, v in r[3].items() if isinstance(v, int)}
              for r in rounds]
    repeat = all(c == counts[0] for c in counts)
    if not repeat:
        tally.errors.append("per-layer counts differ between passes")
    plain, traced, spans, metrics = sorted(rounds, key=lambda r: r[1])[
        len(rounds) // 2]
    metrics["trace.overhead_ratio"] = (
        statistics.median(r[1] for r in rounds)
        / statistics.median(r[0] for r in rounds))
    path = os.path.join(WORK_DIR, f"spans-{workload}.csv.gz")
    tracing.write_spans(spans, path)
    return metrics, {"rounds": len(rounds), "counts_repeat": repeat,
                     "spans": os.path.relpath(path, ROOT)}


def end_to_end(tally: Tally, wall: float, setup_s: float):
    """(metrics, info) of an untraced run from its tally."""
    lat = tally.latencies or [0.0]
    tail, pct, beyond = tail_latency(lat)
    metrics = {
        "ops_per_s": len(tally.latencies) / wall,
        "op_p50_s": statistics.median(lat),
        "op_tail_s": tail,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }
    by_label = {k: [statistics.median(v), len(v)]
                for k, v in tally.by_label.items()}
    return metrics, {"tail_percentile": pct, "tail_beyond": beyond,
                     "samples": len(tally.latencies), "wall_s": wall,
                     "by_label": by_label}


def _alarm(signum, frame):
    raise BudgetExceeded()


def main(argv=None) -> int:
    t0 = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    import numpy as np
    import dephasor
    from dephasor import cli
    if not os.path.abspath(dephasor.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported dephasor from {dephasor.__file__}, "
                         f"not from {SRC}")
    import workloads

    os.makedirs(WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=WORK_DIR)
    try:
        ops, warm = workloads.build(args.workload, args.seed, work, ROOT)
        ok, _, _, error = run_op(warm, cli)
        setup_s = time.perf_counter() - t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        tally = Tally()
        if not ok:  # a broken warm-up counts; the run still measures
            tally.record(False, 0.0, 0.0, error, warm.label)
        signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, budget_seconds(args.seconds))
        try:
            if args.trace:
                metrics, info = traced_rounds(ops, args.seconds, cli, tally,
                                              args.workload)
            else:
                wall = closed_loop(ops, args.seconds, cli, tally)
                metrics, info = end_to_end(tally, wall, setup_s)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        info.update({
            "failed_ratio": tally.failed / max(1, tally.attempted),
            "ops_per_pass": len(ops), "errors": tally.errors,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "python": sys.version.split()[0], "numpy": np.__version__})
        print(json.dumps({"attempted": tally.attempted,
                          "failed": tally.failed, "metrics": metrics,
                          "info": info}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
