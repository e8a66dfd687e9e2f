"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload stocks-sim --seed 1 --seconds 24 --trace 0

The run repeats rounds of the workload (a fresh system, sequential
joins, an open-loop publish stream, a full reference check) for
``--seconds`` of wall time, split over :data:`WORKERS` worker processes
run one after another, and reports medians over all their rounds.  With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` each
worker alternates untraced and traced rounds and the run prints the
per-layer table.  The last line of standard output is one JSON object.
The exit code is non-zero when any delivery was missing, duplicated,
spurious or wrong, or any event was shed or refused.
"""

import argparse
import dataclasses
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Worker processes per run.  One interpreter's memory layout (address
#: randomisation, hash seed) moves its throughput by several percent for
#: its whole life, so a run spreads its rounds over several processes.
WORKERS = 4


def _import_program():
    """Put the checkout's ``src`` and the benchmark package on the path."""
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.exit(f"perfbench: no program source at {os.path.join(ROOT, 'src')}")
    sys.path[0:0] = [os.path.join(ROOT, "src"), ROOT]


def benchmark_spec():
    """``BENCHMARK.json``: the workloads and every metric's unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def metric_units(section):
    """Metric name -> unit for one ``BENCHMARK.json`` metric list
    (``"end_to_end"`` or ``"per_layer"``), in the file's order."""
    return {metric["name"]: metric["unit"] for metric in benchmark_spec()[section]}


def _round_seed(seed, index):
    return seed * 1_000_003 + index


def _layer_values(tracer, result):
    """Every per-layer metric of one traced round."""
    values = dict(result.counters)
    for key, calls in tracer.calls.items():
        values[f"{key}.calls"] = calls
    for key, self_s in tracer.self_s.items():
        values[f"{key}.self_s"] = self_s
    values.update(tracer.totals)
    values["runtime.timer_lag_p99_ms"] = result.timer_lag_p99_ms
    values["trace.unattributed_s"] = result.unattributed_s
    return values


def run_rounds(
    workload, seed, seconds, trace, first=0, stride=1, params=None, warmup=False
):
    """Run rounds ``first, first + stride, ...`` for ``seconds`` of wall
    time (at least one measured round, and one traced when tracing);
    returns the untraced and the traced round results.  Traced rounds
    alternate with untraced ones, so both kinds see the same drift.  With
    ``warmup`` the first round is untraced and marked as a warm-up."""
    from perfbench.trace import LayerTracer, install_layer_wrappers
    from perfbench.workloads import ROUNDS, default_params, thaw_gc

    params = params if params is not None else default_params(workload)
    round_fn = ROUNDS[workload]
    plain, traced = [], []
    start = perf_counter()
    count = 0
    while True:
        tracer = None
        if trace and count >= warmup and (count - warmup) % 2 == 1:
            tracer = LayerTracer()
            install_layer_wrappers(tracer)
        try:
            result = round_fn(params, _round_seed(seed, first + count * stride), tracer)
        finally:
            if tracer is not None:
                tracer.restore()
            thaw_gc()
        # Only the summary is kept: memory must not grow with the
        # number of rounds a run fits in.
        result.delivered = None
        if tracer is not None:
            result.layers = _layer_values(tracer, result)
            traced.append(result)
        else:
            result.warmup = warmup and count == 0
            plain.append(result)
        count += 1
        measured = count > warmup and (traced or not trace)
        if perf_counter() - start >= seconds and measured:
            return plain, traced


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(plain, peak_rss):
    plain = [r for r in plain if not r.warmup]
    return {
        "setup_s": statistics.median(r.setup_s for r in plain),
        "publish_rate": statistics.median(r.publish_rate for r in plain),
        "delivery_rate": statistics.median(r.delivery_rate for r in plain),
        "churn_ops_rate": statistics.median(r.ops_rate for r in plain),
        "latency_p50_ms": statistics.median(r.latency_p50_ms for r in plain),
        "latency_p99_ms": statistics.median(r.latency_p99_ms for r in plain),
        "peak_rss_mb": peak_rss,
    }


def per_layer(plain, traced):
    """Per-layer metrics: means per traced round (medians for the timer
    lag percentile and the tracing overhead)."""
    plain = [r for r in plain if not r.warmup]
    values = {
        name: statistics.mean(r.layers.get(name, 0.0) for r in traced)
        for name in metric_units("per_layer")
    }
    values["runtime.timer_lag_p99_ms"] = statistics.median(
        r.timer_lag_p99_ms for r in traced
    )
    untraced_rate = statistics.median(r.publish_rate for r in plain)
    traced_rate = statistics.median(r.publish_rate for r in traced)
    values["trace.overhead_frac"] = 1.0 - traced_rate / untraced_rate
    return values


def _format(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(workload, seed, trace, plain, traced, peak_rss, out=print):
    """Print the human-readable report; returns the final JSON object."""
    from perfbench.reference import Mismatch
    from perfbench.spec import PREDICTIONS, TRACE_NOTES

    everything = plain + traced
    mismatch = Mismatch()
    for result in everything:
        mismatch.add(result.mismatch)
    shed = sum(r.shed for r in everything)
    refused = sum(r.refused for r in everything)
    attempted = sum(r.attempted for r in everything)
    failed = sum(r.failed for r in everything)
    warmups = sum(r.warmup for r in plain)
    out(
        f"perfbench {workload} seed={seed}: {len(plain) - warmups} untraced, "
        f"{len(traced)} traced and {warmups} warm-up rounds"
    )
    out(
        f"  reference check: missing={mismatch.missing} "
        f"duplicate={mismatch.duplicate} spurious={mismatch.spurious} "
        f"wrong_value={mismatch.wrong_value} shed={shed} refused={refused}"
    )
    out(f"  failed_frac {failed / attempted:.6g} fraction ({failed}/{attempted})")
    if trace:
        units = metric_units("per_layer")
        metrics = per_layer(plain, traced)
        out("  per-layer metrics (mean per traced round):")
    else:
        units = metric_units("end_to_end")
        metrics = end_to_end(plain, peak_rss)
        samples = statistics.median(r.latency_samples for r in plain if not r.warmup)
        out(
            f"  latency samples per round: {samples:g} "
            "(percentiles are medians over rounds)"
        )
    metrics = {name: metrics[name] for name in units}
    for name, value in metrics.items():
        out(f"  {name:28s} {_format(value):>14s} {units[name]}")
    if trace:
        out("  predictions: layer | should move | most work in | unchanged on")
        for row in PREDICTIONS:
            out("    " + " | ".join(row))
        for note in TRACE_NOTES:
            out(f"  note: {note}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }


def _worker(args):
    """Run this worker's share of the rounds; print them as JSON."""
    plain, traced = run_rounds(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        first=args.worker,
        stride=WORKERS,
        warmup=True,
    )
    print(
        json.dumps(
            {
                "peak_rss_mb": peak_rss_mb(),
                "plain": [dataclasses.asdict(r) for r in plain],
                "traced": [dataclasses.asdict(r) for r in traced],
            }
        )
    )


def _from_json(data):
    from perfbench.reference import Mismatch
    from perfbench.workloads import RoundResult

    return RoundResult(**{**data, "mismatch": Mismatch(**data["mismatch"])})


def run_workers(workload, seed, seconds, trace):
    """Run :data:`WORKERS` worker processes one after another, each for
    an equal share of ``seconds``; returns their merged rounds and the
    median of their peak resident memory."""
    plain, traced, peaks = [], [], []
    for worker in range(WORKERS):
        completed = subprocess.run(
            [
                sys.executable,
                os.path.abspath(__file__),
                "--workload", workload,
                "--seed", str(seed),
                "--seconds", repr(seconds / WORKERS),
                "--trace", str(int(trace)),
                "--worker", str(worker),
            ],
            stdout=subprocess.PIPE,
            text=True,
            timeout=150,
            check=True,
        )
        data = json.loads(completed.stdout.strip().splitlines()[-1])
        plain += [_from_json(r) for r in data["plain"]]
        traced += [_from_json(r) for r in data["traced"]]
        peaks.append(data["peak_rss_mb"])
    return plain, traced, statistics.median(peaks)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _import_program()
    from perfbench.spec import DEFAULT_SEED

    workloads = [workload["name"] for workload in benchmark_spec()["workloads"]]
    if args.workload not in workloads:
        parser.error(f"--workload must be one of {', '.join(workloads)}")
    if args.seed is None:
        args.seed = DEFAULT_SEED
    if args.worker is not None:
        _worker(args)
        return 0
    plain, traced, peak_rss = run_workers(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    summary = report(args.workload, args.seed, bool(args.trace), plain, traced, peak_rss)
    print(json.dumps(summary), flush=True)
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
