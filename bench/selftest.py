"""Self-tests of the benchmark's own machinery.

    python3 -m pytest -q bench/selftest.py

Covers span self time, the tail-percentile rule, the oracle catching
corrupted outputs, the run guard, whole-pass runs, the computed RK4
step count, and per-layer counts that repeat exactly and stay zero
where a workload must bypass a layer.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import client  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from dephasor import cli, dynamics, hilbert  # noqa: E402


# ------------------------------------------------------------ self time

def test_self_time_subtracts_nested_children():
    # root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 9]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    own = tracing.self_times(start, end, parent)
    assert own.tolist() == [3.0, 2.0, 1.0, 4.0]
    assert own.sum() == 10.0


def test_recorded_spans_nest_and_sum_to_the_root():
    spans = tracing.Spans()

    def leaf():
        time.sleep(0.002)

    wrapped_leaf = spans.wrap("linalg.leaf", leaf)

    def mid():
        wrapped_leaf()
        wrapped_leaf()

    wrapped_mid = spans.wrap("fisher.mid", mid)
    spans.wrap("cli.root", lambda: (wrapped_mid(), time.sleep(0.002)))()
    assert list(spans.parent) == [-1, 0, 1, 1]
    own = tracing.self_times(spans.start, spans.end, spans.parent)
    root = spans.end[0] - spans.start[0]
    assert own.sum() == pytest.approx(root, rel=1e-12)
    assert own[0] >= 0.002 and own[2] >= 0.002 and own[3] >= 0.002


# ------------------------------------------------------------ tail rule

@pytest.mark.parametrize("n, value, pct", [
    (100, 90.0, 90.0),   # p90: exactly ten samples above
    (11, 1.0, 100 / 11),
    (25, 15.0, 60.0),
    (400, 390.0, 97.5),
])
def test_tail_keeps_ten_samples_beyond(n, value, pct):
    got, p, beyond = client.tail_latency([float(i) for i in range(n, 0, -1)])
    assert (got, beyond) == (value, 10)
    assert p == pytest.approx(pct)


def test_tail_with_too_few_samples_is_the_minimum():
    assert client.tail_latency([3.0, 1.0, 2.0]) == (1.0, 100.0 / 3, 2)


# --------------------------------------------------------------- oracle

@pytest.fixture
def survey_ops(tmp_path):
    ops, warm = workloads.build("survey", 7, str(tmp_path), ROOT)
    return ops, warm


def _corrupting(edit):
    """A cli stand-in that runs the real command, then edits its file."""
    class Corrupting:
        @staticmethod
        def parse_and_run(argv):
            rc = cli.parse_and_run(argv)
            path = argv[argv.index("--out") + 1]
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(edit(text))
            return rc
    return Corrupting


def test_every_survey_op_passes_its_check(survey_ops):
    ops, warm = survey_ops
    for op in [warm] + ops:
        ok, _, _, error = client.run_op(op, cli)
        assert ok, error


def test_corrupted_scan_ratio_counts_as_failed(survey_ops):
    _, warm = survey_ops

    def edit(text):
        lines = text.splitlines()
        x, y, ratio, region = lines[5].split(",")
        lines[5] = f"{x},{y},{float(ratio) * (1 + 1e-6)!r},{region}"
        return "\n".join(lines) + "\n"

    ok, _, _, error = client.run_op(warm, _corrupting(edit))
    assert not ok and "scan ratio" in error
    tally = client.Tally()
    tally.record(ok, 0.0, 0.0, error)
    assert (tally.attempted, tally.failed) == (1, 1)


def test_corrupted_qfi_value_counts_as_failed(survey_ops):
    ops, _ = survey_ops
    op = next(o for o in ops if o.label.startswith("qfi-analytic"))

    def edit(text):
        doc = json.loads(text)
        doc["value"] *= 1.0 + 1e-7
        return json.dumps(doc)

    ok, _, _, error = client.run_op(op, _corrupting(edit))
    assert not ok and "analytic QFI" in error


def test_evolve_oracle_rejects_a_wrong_coherence(tmp_path):
    path = tmp_path / "traj.csv"
    m = oracle.Model("qubit_network", 2, 4, 1.0, 2.0, 2.0, True, True,
                     -1.0, 1.0)
    sch = oracle.Schedule("const", 0.3)
    t = np.linspace(0.0, 1.0, 5).tolist()
    c = (0.5 * np.exp(-4.0 * sch.dose(t))).tolist()
    rows = ["t,pop_lo,pop_hi,coher_re,coher_im,trace,min_eig"] + [
        f"{ti!r},0.5,0.5,{ci!r},0.0,1.0,0.0" for ti, ci in zip(t, c)]
    path.write_text("\n".join(rows) + "\n")
    oracle.check_evolve(str(path), m, sch, 1.0, 5)
    path.write_text("\n".join(rows).replace(f"{c[-1]!r}",
                                            f"{c[-1] + 1e-6!r}") + "\n")
    with pytest.raises(oracle.CheckFailed, match="coherence"):
        oracle.check_evolve(str(path), m, sch, 1.0, 5)


# ------------------------------------------------------------ run guard

def test_run_guard_counts_unattempted_ops_as_failed(survey_ops):
    ops, _ = survey_ops

    class Slow:
        @staticmethod
        def parse_and_run(argv):
            time.sleep(0.05)
            return cli.parse_and_run(argv)

    tally = client.Tally()
    old = signal.signal(signal.SIGALRM, client._alarm)
    signal.setitimer(signal.ITIMER_REAL, 0.12)
    try:
        client.closed_loop(ops, 60.0, Slow, tally)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, old)
    assert tally.attempted == len(ops)
    assert tally.failed == len(ops) - len(tally.latencies)
    assert tally.failed >= len(ops) - 3
    assert "run budget exceeded" in tally.errors[0]


def test_closed_loop_runs_whole_passes():
    ops = [workloads.Op(f"op{i}", [], (), lambda: None) for i in range(7)]

    class Sleepy:
        @staticmethod
        def parse_and_run(argv):
            time.sleep(0.01)
            return 0

    tally = client.Tally()
    client.closed_loop(ops, 0.15, Sleepy, tally)
    assert tally.attempted >= 2 * len(ops)
    assert tally.attempted % len(ops) == 0
    assert all(len(v) == tally.attempted // len(ops)
               for v in tally.by_label.values())


# ------------------------------------------------------- tracer + counts

def test_uninstall_restores_every_binding():
    before = (cli.load_model, hilbert.load_model, dynamics.NoiseSchedule.rate,
              vars(dynamics.NoiseSchedule)["constant"])
    tracer = tracing.Tracer()
    tracer.install()
    assert cli.load_model is not before[0]
    assert cli.load_model is hilbert.load_model
    tracer.uninstall()
    after = (cli.load_model, hilbert.load_model, dynamics.NoiseSchedule.rate,
             vars(dynamics.NoiseSchedule)["constant"])
    assert all(a is b for a, b in zip(before, after))


def _traced(ops):
    tracer = tracing.Tracer()
    tally = client.Tally()
    spans = tracer.install()
    try:
        wall = client.one_pass(ops, cli, tally)
    finally:
        tracer.uninstall()
    assert tally.failed == 0, tally.errors
    m = tracing.summarize(spans, wall, dynamics.default_step)
    layers = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert layers + m["trace.unattributed_s"] == pytest.approx(wall)
    return m


def _counts(m):
    return {k: v for k, v in m.items() if isinstance(v, int)}


def test_survey_counts_repeat_and_bypass_linalg_and_rk4(survey_ops):
    ops, _ = survey_ops
    first, second = _traced(ops), _traced(ops)
    assert _counts(first) == _counts(second)
    assert first["linalg.calls"] == 0 and first["dynamics.rk4_steps"] == 0
    assert first["protocols.ratio_evals"] > 0 and first["svgmap.calls"] > 0


def test_wide_bypasses_linalg_and_rk4(tmp_path):
    # the pass's three op kinds, at 10 qubits to keep the test short
    b = workloads.Builder(3, str(tmp_path))
    workloads._wide_op(b, "validate", 10)
    workloads._wide_op(b, "qfi", 10, "omega")
    workloads._wide_op(b, "estimate", 10, "time")
    first, second = _traced(b.ops), _traced(b.ops)
    assert _counts(first) == _counts(second)
    assert first["linalg.calls"] == 0 and first["dynamics.rk4_steps"] == 0
    assert first["hilbert.max_dim"] == 1024
    assert first["hilbert.self_s"] > 0.5 * first["trace.wall_s"]


def test_rk4_step_count_matches_the_integrator(tmp_path, monkeypatch):
    rhs_calls = []
    real_rhs = dynamics._rhs
    monkeypatch.setattr(dynamics, "_rhs",
                        lambda *a: rhs_calls.append(1) or real_rhs(*a))
    out = str(tmp_path / "traj.csv")
    argv = ["evolve", "--model", os.path.join(ROOT, "models", "ghz2.json"),
            "--schedule", "pw:0.1:0.2;0.35:1.0;0.6:0.4", "--t", "0.9",
            "--samples", "7", "--dt", "0.013", "--out", out]
    op = workloads.Op("evolve", argv, (out,), lambda: None)
    m = _traced([op])
    assert m["dynamics.rk4_steps"] == len(rhs_calls) // 4 > 0
    assert m["dynamics.schedule_evals"] >= 3 * m["dynamics.rk4_steps"]
