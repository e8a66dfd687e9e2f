"""Swapping the compiled engine into the overlay is observationally invisible.

``MultiStageEventSystem(engine="compiled")`` routes every broker's
matching through :class:`CompiledMatchEngine`.  Like the routing cache
and batched dispatch before it, the compiled hot path must change only
how much work matching takes — never what the system delivers: with the
engine swapped, same-seed runs must produce byte-identical per-subscriber
delivery traces (timestamps included) and identical LC/RLC/MR counter
inputs, node for node, against the default counting index.
"""

import pytest

from repro.core.engine import MultiStageEventSystem
from repro.sim.rng import RngRegistry
from repro.workloads.bibliographic import BIB_EVENT_CLASS, BibliographicWorkload

#: Counter fields feeding LC/RLC/MR — invariant across engine choices.
#: ``filter_evaluations`` is excluded: the compiled engine's bitmap
#: probes are accounted differently from the counting index's harvests
#: by design (that asymmetry is the speedup).
INVARIANT_FIELDS = (
    "events_received",
    "events_matched",
    "events_forwarded",
    "events_delivered",
    "filters_held",
    "max_filters_held",
)


def run(seed, engine, tracing=False):
    rngs = RngRegistry(seed)
    workload = BibliographicWorkload(rngs.stream("records"), n_records=150)
    system = MultiStageEventSystem(
        stage_sizes=(6, 3, 1), seed=seed, engine=engine, tracing=tracing
    )
    system.advertise(
        BIB_EVENT_CLASS, schema=workload.schema,
        association=workload.association(4),
    )
    system.drain()
    traces = {}
    sub_rng = rngs.stream("subs")
    for index in range(40):
        subscriber = system.create_subscriber(f"s{index}")
        trace = traces.setdefault(subscriber.name, [])
        system.subscribe(
            subscriber,
            workload.sample_subscription(sub_rng),
            event_class=BIB_EVENT_CLASS,
            handler=lambda e, m, s, _t=trace: _t.append(
                (system.sim.now, m["title"])
            ),
        )
        system.drain()
    publisher = system.create_publisher()
    event_rng = rngs.stream("events")
    for _ in range(80):
        publisher.publish(workload.sample_record(event_rng))
    system.drain()
    return system, traces


def counters_projection(system):
    return {
        stage: [
            (name, {f: getattr(c, f) for f in INVARIANT_FIELDS})
            for name, c in entries
        ]
        for stage, entries in system.counters_by_stage().items()
    }


@pytest.mark.parametrize("seed", [5, 9])
def test_compiled_engine_preserves_delivery_traces_exactly(seed):
    compiled, traces_compiled = run(seed, engine="compiled")
    index, traces_index = run(seed, engine="index")

    # Byte-identical ordered (time, event) delivery sequences.
    assert repr(traces_compiled).encode() == repr(traces_index).encode()
    assert any(traces_compiled.values())  # non-trivial run

    assert counters_projection(compiled) == counters_projection(index)
    assert compiled.sim.now == index.sim.now


def broker_snapshots(system):
    return [(n.name, n.counters.snapshot()) for n in system.hierarchy.nodes()]


@pytest.mark.parametrize("engine", ["index", "compiled"])
def test_tracing_changes_nothing(engine):
    """Tracing only reads: every broker matches each wakeup through the
    same ``match_batch`` call either way, so the deliveries and every
    broker counter (probes, cache verdicts, recompiles) are identical."""
    traced, traces_on = run(5, engine=engine, tracing=True)
    plain, traces_off = run(5, engine=engine)
    assert repr(traces_on).encode() == repr(traces_off).encode()
    assert broker_snapshots(traced) == broker_snapshots(plain)
    assert traced.tracer.kinds("hop")  # the traced run really traced
    counters = [n.counters for n in plain.hierarchy.nodes()]
    for counter in counters:
        assert counter.batched_events == counter.events_received
    if engine == "compiled":
        assert sum(c.compile_rebuilds for c in counters) > 0


def test_compiled_engine_traced_run_still_identical():
    compiled, traces_compiled = run(13, engine="compiled", tracing=True)
    index, traces_index = run(13, engine="index", tracing=True)
    assert repr(traces_compiled).encode() == repr(traces_index).encode()
    assert counters_projection(compiled) == counters_projection(index)


def test_compiled_engine_composes_with_routing_cache():
    compiled, _ = run(17, engine="compiled")
    counters = [n.counters for n in compiled.hierarchy.nodes()]
    assert sum(c.cache.hits for c in counters) > 0  # memo engaged on top


def test_engine_argument_validation():
    with pytest.raises(ValueError):
        MultiStageEventSystem(engine="bitmap")
