"""The benchmark's own checks, at tiny sizes.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import workloads
from perfbench.reference import Mismatch, compare, compare_rollups
from perfbench.run import ROOT, benchmark_spec, metric_units, report, run_rounds
from perfbench.workloads import (
    BenchStock,
    BenchTelemetry,
    StocksParams,
    TcpParams,
    TelemetryParams,
)
from repro.events.typed import to_property_event
from repro.workloads.stocks import Stock
from repro.workloads.telemetry import Telemetry

TINY = {
    "stocks-sim": StocksParams(
        stage_sizes=(4, 2, 1), n_subscriptions=30, events_per_run=150
    ),
    "churn-sim": StocksParams(
        stage_sizes=(4, 2, 1),
        n_subscriptions=30,
        runs=4,
        events_per_run=30,
        replacements_per_run=3,
    ),
    "telemetry-sim": TelemetryParams(n_regions=2, sensors_per_region=5, windows=3),
    "stocks-tcp": TcpParams(
        n_subscriptions=6, rate=500.0, paced_events=60, burst_events=60
    ),
}


WORKLOADS = [workload["name"] for workload in benchmark_spec()["workloads"]]


def _silent(*_):
    pass


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_reported_with_its_unit(workload, trace):
    plain, traced = run_rounds(workload, 3, seconds=0, trace=trace, params=TINY[workload])
    summary = report(workload, 3, trace, plain, traced, 50.0, out=_silent)
    assert summary["correct"] and summary["failed"] == 0
    assert summary["attempted"] > 0
    expected = metric_units("per_layer" if trace else "end_to_end")
    assert {name: m["unit"] for name, m in summary["metrics"].items()} == expected
    json.dumps(summary)


def test_bypassed_layers_report_zero_calls():
    plain, traced = run_rounds(
        "stocks-sim", 3, seconds=0, trace=True, params=TINY["stocks-sim"]
    )
    metrics = report("stocks-sim", 3, True, plain, traced, 50.0, out=_silent)
    values = {name: m["value"] for name, m in metrics["metrics"].items()}
    for name in ("runtime.encode.calls", "log.append.calls", "streams.on_event.calls"):
        assert values[name] == 0
    assert values["filters.match.calls"] > 0 and values["sim.send.calls"] > 0


def _round_with_faulty_handler(monkeypatch, fault, workload="stocks-sim"):
    original = workloads.Sink.handler
    state = {"calls": 0}

    def faulty(self, event, metadata, subscription):
        state["calls"] += 1
        if state["calls"] == 5:
            if fault == "drop":
                return
            original(self, event, metadata, subscription)
        original(self, event, metadata, subscription)

    monkeypatch.setattr(workloads.Sink, "handler", faulty)
    try:
        return workloads.ROUNDS[workload](TINY[workload], 5)
    finally:
        workloads.thaw_gc()


def test_reference_check_catches_a_missing_delivery(monkeypatch):
    result = _round_with_faulty_handler(monkeypatch, "drop")
    assert result.mismatch.missing == 1 and result.mismatch.total == 1
    assert result.failed == 1


def test_reference_check_catches_a_duplicate_delivery(monkeypatch):
    result = _round_with_faulty_handler(monkeypatch, "double")
    assert result.mismatch.duplicate == 1 and result.mismatch.total == 1


def test_a_lost_tcp_delivery_is_counted_not_raised(monkeypatch):
    # The round waits WAIT_S for a delivery that never comes, then checks.
    monkeypatch.setattr(workloads, "WAIT_S", 0.5)
    result = _round_with_faulty_handler(monkeypatch, "drop", "stocks-tcp")
    assert result.mismatch.missing == 1 and result.mismatch.total == 1
    assert result.failed == 1


def test_compare_classifies_every_kind():
    from collections import Counter

    expected = Counter({("a", 1): 1, ("a", 2): 1})
    delivered = Counter({("a", 1): 2, ("b", 3): 1})
    assert compare(expected, delivered) == Mismatch(missing=1, duplicate=1, spurious=1)
    rollups = {("r0", 1): (2, 1.5), ("r0", 2): (1, 3.0)}
    received = [("r0", 1, 2, 1.5), ("r0", 1, 2, 1.5), ("r0", 3, 1, 0.0)]
    assert compare_rollups(rollups, received) == Mismatch(
        missing=1, duplicate=1, spurious=1
    )
    assert compare_rollups(rollups, [("r0", 1, 2, 1.6), ("r0", 2, 1, 3.0)]) == Mismatch(
        wrong_value=1
    )


@pytest.mark.parametrize("workload", ["stocks-sim", "churn-sim", "telemetry-sim"])
def test_same_seed_rounds_deliver_identically(workload):
    round_fn = workloads.ROUNDS[workload]
    try:
        first = round_fn(TINY[workload], 11)
        second = round_fn(TINY[workload], 11)
    finally:
        workloads.thaw_gc()
    assert first.delivered == second.delivered
    assert first.deliveries == second.deliveries > 0
    assert first.mismatch.total == second.mismatch.total == 0


def test_stamped_events_reflect_like_the_workload_classes():
    stamped = BenchStock("SYM001", 12.5, 300, seq=7)
    stamped._bench_due = 1.25
    assert to_property_event(stamped, "Stock") == to_property_event(
        Stock("SYM001", 12.5, 300), "Stock"
    )
    reading = BenchTelemetry("r0", "r0-s01", 20.5, seq=3)
    assert to_property_event(reading, "Telemetry") == to_property_event(
        Telemetry("r0", "r0-s01", 20.5), "Telemetry"
    )


def _run_cli(cwd, *args):
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, env=env,
    )


def test_command_line_prints_the_result_last():
    completed = _run_cli(
        ROOT, "--workload", "telemetry-sim", "--seed", "2", "--seconds", "1",
        "--trace", "0",
    )
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    assert "failed_frac 0 fraction" in completed.stdout
    summary = json.loads(lines[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] and summary["failed"] == 0
    assert set(summary["metrics"]) == set(metric_units("end_to_end"))
    assert all(m["value"] > 0 for m in summary["metrics"].values())


def test_fails_without_the_program_source(tmp_path):
    shutil.copytree(
        os.path.join(ROOT, "perfbench"),
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    completed = _run_cli(
        tmp_path, "--workload", "stocks-sim", "--seed", "1", "--seconds", "1",
        "--trace", "0",
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
