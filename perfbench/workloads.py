"""The four benchmark workloads, each run as a sequence of rounds.

A round builds a fresh system through the public
:class:`~repro.core.engine.MultiStageEventSystem` API, joins its
subscriptions one at a time, publishes an open-loop event stream, and
checks every delivery against :mod:`perfbench.reference`.  All inputs
(subscriptions, events, churn choices) are generated from the round's
seed before the system is built, so the program receives only generated
inputs and the timed phases contain no generator work.
"""

import functools
import gc
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.core.engine import MultiStageEventSystem
from repro.events.base import CLASS_ATTRIBUTE
from repro.flow import FlowConfig
from repro.log import LogConfig
from repro.workloads.stocks import STOCK_EVENT_CLASS, STOCK_SCHEMA, Stock, StockWorkload
from repro.workloads.telemetry import (
    TELEMETRY_EVENT_CLASS,
    TELEMETRY_SCHEMA,
    Telemetry,
    TelemetryWorkload,
)

from perfbench.reference import (
    ActiveSubscription,
    Mismatch,
    compare,
    compare_rollups,
    expected_deliveries,
    window_rollups,
)
from perfbench.trace import LayerTracer

# ----------------------------------------------------------------------
# Stamped events
# ----------------------------------------------------------------------


class BenchStock(Stock):
    """A :class:`Stock` carrying the generator's sequence number and due
    time in private fields.  They have no ``get_*`` accessor, so the
    reflected metadata (and therefore routing) is that of ``Stock``."""

    def __init__(self, symbol, price, volume, seq):
        super().__init__(symbol, price, volume)
        self._bench_seq = seq
        self._bench_due = 0.0


class BenchTelemetry(Telemetry):
    """A :class:`Telemetry` reading stamped like :class:`BenchStock`."""

    def __init__(self, region, sensor, reading, seq):
        super().__init__(region, sensor, reading)
        self._bench_seq = seq
        self._bench_due = 0.0


def stock_attributes(event: Stock) -> Dict:
    return {
        CLASS_ATTRIBUTE: STOCK_EVENT_CLASS,
        "symbol": event.get_symbol(),
        "price": event.get_price(),
        "volume": event.get_volume(),
    }


def telemetry_attributes(event: Telemetry) -> Dict:
    return {
        CLASS_ATTRIBUTE: TELEMETRY_EVENT_CLASS,
        "region": event.get_region(),
        "sensor": event.get_sensor(),
        "reading": event.get_reading(),
    }


# ----------------------------------------------------------------------
# Round bookkeeping
# ----------------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


@dataclass
class RoundResult:
    """What one round measured and checked."""

    setup_s: float = 0.0
    #: Events published and handler invocations, over the whole round.
    publishes: int = 0
    deliveries: int = 0
    #: The throughput phase: events offered, the deliveries they caused,
    #: and the wall time from the first publish to the last delivery.
    rated_publishes: int = 0
    rated_deliveries: int = 0
    publish_s: float = 0.0
    #: Subscription operations and the wall time they took to settle.
    ops: int = 0
    ops_s: float = 0.0
    #: Per-round latency percentiles (ms) and their sample count.
    latency_p50_ms: float = 0.0
    latency_p99_ms: float = 0.0
    latency_samples: int = 0
    #: How late the generator's timers fired, 99th percentile (ms).
    timer_lag_p99_ms: float = 0.0
    #: Delivery multiset ``(join position, seq)`` the program produced.
    delivered: Optional[Counter] = field(default_factory=Counter)
    mismatch: Mismatch = field(default_factory=Mismatch)
    expected_deliveries: int = 0
    shed: int = 0
    refused: int = 0
    #: Traced rounds: wall time of the timed phases not covered by any
    #: wrapped call (set-up, churn and the throughput phase).
    unattributed_s: float = 0.0
    #: Per-layer counters read from the program's public counters.
    counters: Dict[str, float] = field(default_factory=dict)
    #: Traced rounds: every per-layer metric of this round.
    layers: Dict[str, float] = field(default_factory=dict)
    #: A process's first round: checked, but its timings are not used
    #: (imports, cold caches and the interpreter's specialisation of
    #: hot code made it about 10% slower than the rest).
    warmup: bool = False

    def set_latencies(self, seconds: List[float]) -> None:
        self.latency_samples = len(seconds)
        if not seconds:
            return
        self.latency_p50_ms = 1000.0 * percentile(seconds, 50)
        self.latency_p99_ms = 1000.0 * percentile(seconds, 99)

    @property
    def attempted(self) -> int:
        return self.expected_deliveries + self.publishes + self.ops

    @property
    def failed(self) -> int:
        return self.mismatch.total + self.shed + self.refused

    @property
    def publish_rate(self) -> float:
        return self.rated_publishes / self.publish_s

    @property
    def delivery_rate(self) -> float:
        return self.rated_deliveries / self.publish_s

    @property
    def ops_rate(self) -> float:
        return self.ops / self.ops_s


class Sink:
    """The benchmark's handlers: record every delivery.

    ``latency`` picks how a raw delivery's latency is taken: ``"wall"``
    from the wall time its event was published (the simulator, where an
    event's due time is the instant the generator published it),
    ``"due"`` from its due time on the runtime's clock (a real runtime,
    where the generator can run late), or ``None`` to skip it.
    """

    def __init__(self, runtime) -> None:
        self.runtime = runtime
        #: Raw deliveries ``(subscription id, seq)``.
        self.got: List[Tuple[int, int]] = []
        #: Derived-event deliveries: subscription id -> [metadata].
        self.derived: Dict[int, List] = {}
        self.count = 0
        self.latencies: List[float] = []
        self.published_wall: Dict[int, float] = {}
        self.latency: Optional[str] = None
        self.last = 0.0

    def handler(self, event, metadata, subscription) -> None:
        now = perf_counter()
        self.last = now
        self.count += 1
        seq = event._bench_seq
        self.got.append((subscription.subscription_id, seq))
        if self.latency == "wall":
            self.latencies.append(now - self.published_wall[seq])
        elif self.latency == "due":
            self.latencies.append(self.runtime.now - event._bench_due)

    def derived_handler(self, event, metadata, subscription) -> None:
        self.last = perf_counter()
        self.count += 1
        self.derived.setdefault(subscription.subscription_id, []).append(metadata)


#: Traced rounds sample ``system.total_queue_depth()`` every this many
#: publishes.
QUEUE_SAMPLE_EVERY = 16


class OpenLoopGenerator:
    """Publishes ``events`` at their due times on the system's clock.

    At most one generator timer is pending: each firing publishes every
    event that is due and re-arms for the next one, so a late timer
    publishes a backlog rather than stretching the schedule.  With
    ``sample_queue`` it also records the peak queue depth it saw.
    """

    def __init__(self, system, publisher, events, event_class: str, sink: Sink,
                 sample_queue: bool = False):
        self.system = system
        self.publisher = publisher
        self.events = events
        self.event_class = event_class
        self.sink = sink
        self.sample_queue = sample_queue
        self.next = 0
        self.refused = 0
        self.lags: List[float] = []
        self.queue_peak = 0

    @property
    def done(self) -> bool:
        return self.next >= len(self.events)

    def start(self) -> None:
        self.system.sim.schedule_at(self.events[0]._bench_due, self._fire)

    def _fire(self) -> None:
        now = self.system.sim.now
        events = self.events
        published_wall = self.sink.published_wall
        while True:
            event = events[self.next]
            self.lags.append(now - event._bench_due)
            published_wall[event._bench_seq] = perf_counter()
            if not self.publisher.publish(event, event_class=self.event_class):
                self.refused += 1
            self.next += 1
            if self.sample_queue and self.next % QUEUE_SAMPLE_EVERY == 0:
                self.queue_peak = max(self.queue_peak, self.system.total_queue_depth())
            if self.done or events[self.next]._bench_due > now:
                break
        if not self.done:
            self.system.sim.schedule_at(events[self.next]._bench_due, self._fire)


def freeze_gc() -> None:
    """Collect, then move every surviving object out of the collector's
    view until :func:`thaw_gc`.  Called once a round's inputs are
    generated and before its system is built: collections in the round
    then skip the benchmark's pre-generated inputs, whose size is not the
    program's, while everything the program allocates stays in the
    collector's normal generations."""
    gc.collect()
    gc.freeze()


def thaw_gc() -> None:
    gc.unfreeze()
    gc.collect()


def _traced(handler, tracer: Optional[LayerTracer]):
    """The handler, timed as application code when tracing."""
    if tracer is None:
        return handler
    return tracer.wrap("app.handler", handler)


def _control_messages(system) -> int:
    return sum(node.counters.control_messages for node in system.hierarchy.nodes())


def layer_counters(system, ops: int, control_msgs: int, queue_peak: int) -> Dict:
    """The per-layer metrics read from public counters (not timed)."""
    brokers = [node.counters for node in system.hierarchy.nodes()]
    subscribers = [s.counters for s in system.subscribers]
    received = sum(c.events_received for c in brokers)
    lookups = sum(c.cache.hits + c.cache.misses for c in brokers)
    sub_received = sum(c.events_received for c in subscribers)
    values = {
        "filters.probes_per_event": (
            sum(c.filter_evaluations for c in brokers) / received if received else 0.0
        ),
        "filters.cache_hit_ratio": (
            sum(c.cache.hits for c in brokers) / lookups if lookups else 0.0
        ),
        "filters.compile_rebuilds": sum(c.compile_rebuilds for c in brokers),
        "filters.cache_invalidations": sum(c.cache.invalidations for c in brokers),
        "overlay.match_rate": (
            sum(c.events_matched for c in subscribers) / sub_received
            if sub_received
            else 0.0
        ),
        "overlay.control_msgs": control_msgs / ops if ops else 0.0,
        "flow.credit_stalls": sum(c.credit_stalls for c in brokers)
        + sum(p.counters.credit_stalls for p in system.publishers),
        "flow.events_shed": system.total_events_shed(),
        "flow.queue_depth_peak": queue_peak,
        "streams.derived_events": sum(c.flow_events_out for c in brokers),
        "sim.bytes": 0,
        "sim.events_processed": 0,
    }
    if system.runtime_name == "sim":
        values["sim.bytes"] = system.network.stats.total_bytes
        values["sim.events_processed"] = system.sim.processed_events
    return values


def _join(system, handler, filter_, start_seq: int = 0):
    """One subscription on a fresh subscriber (not yet settled)."""
    subscriber = system.create_subscriber()
    (subscription,) = system.subscribe(subscriber, filter_, handler=handler)
    return subscriber, ActiveSubscription(subscription.subscription_id, filter_, start_seq)


def _sim_publish(system, publisher, events, event_class, sink, sample_queue):
    """Publish ``events`` open-loop in simulated time; returns the wall
    time until the last delivery it caused, and the generator."""
    generator = OpenLoopGenerator(
        system, publisher, events, event_class, sink, sample_queue
    )
    delivered_before = sink.count
    start = perf_counter()
    generator.start()
    system.drain()
    end = sink.last if sink.count > delivered_before else perf_counter()
    return end - start, generator


def _stamp_due(events, first: float, step: float) -> None:
    for index, event in enumerate(events):
        event._bench_due = first + index * step


# ----------------------------------------------------------------------
# Stock workloads (stocks-sim, churn-sim, stocks-tcp)
# ----------------------------------------------------------------------


@dataclass
class StocksParams:
    stage_sizes: Tuple[int, ...] = (20, 4, 1)
    n_subscriptions: int = 500
    #: Publish runs per round and events per run; before each run,
    #: ``replacements_per_run`` subscriptions are replaced (unsubscribe
    #: one, subscribe a fresh one).  One run without churn is stocks-sim.
    runs: int = 1
    events_per_run: int = 2500
    replacements_per_run: int = 0


#: Zipf-distributed symbols the sim stock workloads quote.
STOCK_SYMBOLS = 50
#: Open-loop publish interval of the sim stock workloads, in simulated
#: seconds.
STOCK_INTERVAL = 0.001
#: Per-quote price-walk volatility.  Small enough that prices stay
#: inside the subscriptions' +-5% ceiling band for a whole round; with the
#: workload class's default (0.02) a round's fan-out mostly measured how
#: far the few popular symbols had drifted, and rounds differed by 25%.
VOLATILITY = 0.0005


def _stock_inputs(n_subscriptions, n_symbols, run_sizes, replacements, rng):
    """Initial filters, then per run: [(index to drop, fresh filter)] and
    that run's events (sequence numbers count up across runs)."""
    workload = StockWorkload(
        random.Random(rng.random()), n_symbols=n_symbols, volatility=VOLATILITY
    )
    sub_rng = random.Random(rng.random())
    initial = [workload.sample_subscription(sub_rng) for _ in range(n_subscriptions)]
    runs = []
    seq = 0
    for size in run_sizes:
        churn = [
            (sub_rng.randrange(n_subscriptions), workload.sample_subscription(sub_rng))
            for _ in range(replacements)
        ]
        events = []
        for _ in range(size):
            quote = workload.next_quote()
            events.append(
                BenchStock(quote.get_symbol(), quote.get_price(), quote.get_volume(), seq)
            )
            seq += 1
        runs.append((churn, events))
    return initial, runs


def _in_join_order(deliveries: Counter, reference) -> Counter:
    """Re-key ``(subscription id, seq)`` by the subscription's position in
    join order: ids come from a process-wide counter, positions repeat
    from one same-seed round to the next."""
    position = {active.subscription_id: index for index, active in enumerate(reference)}
    return Counter(
        {(position.get(sid, ("unknown", sid)), seq): n for (sid, seq), n in deliveries.items()}
    )


def _check_stocks(result, sink, system, reference, events) -> None:
    expected = expected_deliveries(
        reference,
        ((event._bench_seq, stock_attributes(event)) for event in events),
        "symbol",
    )
    result.deliveries = sink.count
    result.delivered = _in_join_order(Counter(sink.got), reference)
    result.set_latencies(sink.latencies)
    result.expected_deliveries = sum(expected.values())
    result.mismatch = compare(_in_join_order(expected, reference), result.delivered)
    result.shed = system.total_events_shed()


def stocks_sim_round(
    params: StocksParams, seed: int, tracer: Optional[LayerTracer] = None
) -> RoundResult:
    """One round of stocks-sim, or of churn-sim when the params churn."""
    initial, runs = _stock_inputs(
        params.n_subscriptions,
        STOCK_SYMBOLS,
        [params.events_per_run] * params.runs,
        params.replacements_per_run,
        random.Random(seed),
    )
    result = RoundResult()
    freeze_gc()

    start = perf_counter()
    system = MultiStageEventSystem(stage_sizes=params.stage_sizes, seed=seed)
    sink = Sink(system.sim)
    handler = _traced(sink.handler, tracer)
    system.advertise(STOCK_EVENT_CLASS, schema=STOCK_SCHEMA)
    system.drain()
    live = []
    joins_s = 0.0
    for filter_ in initial:
        began = perf_counter()
        live.append(_join(system, handler, filter_))
        system.drain()
        joins_s += perf_counter() - began
    publisher = system.create_publisher("quotes")
    result.setup_s = perf_counter() - start
    reference = [active for _, active in live]
    setup_control = _control_messages(system)

    queue_peak = 0
    sink.latency = "wall"
    churn_s = 0.0
    churn_control = 0
    for churn, events in runs:
        first_seq = events[0]._bench_seq
        before = _control_messages(system)
        began = perf_counter()
        for index, fresh in churn:
            subscriber, active = live.pop(index)
            subscriber.unsubscribe(active.subscription_id)
            active.end = first_seq
            live.append(_join(system, handler, fresh, first_seq))
            system.drain()
            reference.append(live[-1][1])
            result.ops += 2
        churn_s += perf_counter() - began
        churn_control += _control_messages(system) - before

        _stamp_due(events, system.sim.now + STOCK_INTERVAL, STOCK_INTERVAL)
        elapsed, generator = _sim_publish(
            system, publisher, events, STOCK_EVENT_CLASS, sink, tracer is not None
        )
        queue_peak = max(queue_peak, generator.queue_peak)
        result.publish_s += elapsed
        result.publishes += len(events)
        result.rated_publishes += len(events)
        result.refused += generator.refused
    if tracer is not None:
        timed_s = result.setup_s + churn_s + result.publish_s
        result.unattributed_s = timed_s - tracer.attributed_s()

    if result.ops:
        result.ops_s, control = churn_s, churn_control
    else:
        result.ops, result.ops_s, control = len(initial), joins_s, setup_control
    _check_stocks(
        result, sink, system, reference, [e for _, events in runs for e in events]
    )
    result.rated_deliveries = result.deliveries
    if tracer is not None:
        result.counters = layer_counters(system, result.ops, control, queue_peak)
    return result


#: Wall-clock ceiling on any one wait for the TCP system to settle or
#: deliver (localhost needs milliseconds).  A stalled set-up fails the
#: round; deliveries still missing when a wait ends are counted as
#: missing by the reference check.  Short enough that a run losing
#: deliveries in every round still ends within its time limit.
WAIT_S = 5.0
TCP_STAGES = (4, 1)
#: Fewer symbols than stocks-sim, so most events reach a subscriber and
#: the whole socket path runs (40 filters over 50 symbols leave most
#: quotes with no subscriber at all).
TCP_SYMBOLS = 10


@dataclass
class TcpParams:
    n_subscriptions: int = 40
    #: Fixed open-loop rate (events/s) of the latency phase, and its size.
    rate: float = 1000.0
    paced_events: int = 300
    #: Events offered at once in the throughput phase.
    burst_events: int = 1500


def _set_up(system, predicate, what: str) -> None:
    if not system.run_until(predicate, timeout=WAIT_S, poll=0):
        raise RuntimeError(f"stocks-tcp: {what} did not settle within {WAIT_S} s")


def _tcp_quiet(system) -> bool:
    """Nothing on the wire, every join answered, every control frame acked."""
    return (
        system.network.stats.in_flight == 0
        and all(s.all_joined() and s.control_idle for s in system.subscribers)
        and all(node.uplink_idle for node in system.hierarchy.nodes())
    )


def stocks_tcp_round(
    params: TcpParams, seed: int, tracer: Optional[LayerTracer] = None
) -> RoundResult:
    """One round of stocks-tcp: a paced latency phase, then a burst."""
    initial, runs = _stock_inputs(
        params.n_subscriptions,
        TCP_SYMBOLS,
        [params.paced_events, params.burst_events],
        0,
        random.Random(seed),
    )
    (_, paced), (_, burst) = runs
    result = RoundResult()
    freeze_gc()

    start = perf_counter()
    system = MultiStageEventSystem(stage_sizes=TCP_STAGES, seed=seed, runtime="asyncio")
    quiet = functools.partial(_tcp_quiet, system)
    try:
        sink = Sink(system.sim)
        handler = _traced(sink.handler, tracer)
        system.advertise(STOCK_EVENT_CLASS, schema=STOCK_SCHEMA)
        _set_up(system, quiet, "advertising")
        reference = []
        joins_s = 0.0
        for filter_ in initial:
            began = perf_counter()
            reference.append(_join(system, handler, filter_)[1])
            _set_up(system, quiet, "a join")
            joins_s += perf_counter() - began
        publisher = system.create_publisher("quotes")
        result.setup_s = perf_counter() - start
        result.ops, result.ops_s = len(initial), joins_s
        control = _control_messages(system)
        expected = expected_deliveries(
            reference,
            ((e._bench_seq, stock_attributes(e)) for e in paced + burst),
            "symbol",
        )
        paced_target = sum(
            count for (_, seq), count in expected.items() if seq < len(paced)
        )
        total_target = sum(expected.values())

        # Latency phase: a fixed rate, timed from each event's due time.
        sink.latency = "due"
        _stamp_due(paced, system.sim.now + 0.05, 1.0 / params.rate)
        generator = OpenLoopGenerator(system, publisher, paced, STOCK_EVENT_CLASS, sink)
        attributed_before = tracer.attributed_s() if tracer is not None else 0.0
        generator.start()
        system.run_until(
            lambda: generator.done and sink.count >= paced_target,
            timeout=WAIT_S + len(paced) / params.rate,
            poll=0.001,
        )
        system.run_until(quiet, timeout=WAIT_S, poll=0.001)
        if tracer is not None:
            # The fixed-rate phase is mostly the loop waiting for the
            # next due time: it is left out of the unattributed share.
            paced_attributed = tracer.attributed_s() - attributed_before
        result.refused += generator.refused
        result.timer_lag_p99_ms = 1000.0 * percentile(generator.lags, 99)
        latencies = list(sink.latencies)

        # Throughput phase: the whole burst offered at once.
        sink.latency = None
        delivered_before = sink.count
        began = perf_counter()
        for event in burst:
            event._bench_due = system.sim.now
            if not publisher.publish(event, event_class=STOCK_EVENT_CLASS):
                result.refused += 1
        system.run_until(lambda: sink.count >= total_target, timeout=WAIT_S, poll=0.001)
        end = sink.last if sink.count > delivered_before else perf_counter()
        result.publish_s = end - began
        result.rated_publishes = len(burst)
        result.rated_deliveries = sink.count - delivered_before
        if tracer is not None:
            result.unattributed_s = (
                result.setup_s
                + result.publish_s
                - (tracer.attributed_s() - paced_attributed)
            )
        system.run_until(quiet, timeout=WAIT_S, poll=0.001)

        result.publishes = len(paced) + len(burst)
        _check_stocks(result, sink, system, reference, paced + burst)
        result.set_latencies(latencies)
        if tracer is not None:
            result.counters = layer_counters(system, result.ops, control, 0)
    finally:
        system.close()
    return result


# ----------------------------------------------------------------------
# telemetry-sim
# ----------------------------------------------------------------------


TELEMETRY_STAGES = (4, 2, 1)
#: Rollup window span, in simulated seconds.
WINDOW_S = 1.0
#: Share of each window the readings are spread over, centred, so no
#: reading lands within a link latency of a window boundary.
SPREAD = 0.9


@dataclass
class TelemetryParams:
    n_regions: int = 8
    sensors_per_region: int = 50
    windows: int = 8


def telemetry_sim_round(
    params: TelemetryParams, seed: int, tracer: Optional[LayerTracer] = None
) -> RoundResult:
    """One round of telemetry-sim: rollup flow, dashboards, watchers,
    archiver, and readings spread evenly over each window."""
    rng = random.Random(seed)
    workload = TelemetryWorkload(
        random.Random(rng.random()),
        n_regions=params.n_regions,
        sensors_per_region=params.sensors_per_region,
    )
    watched = [rng.randrange(params.sensors_per_region) for _ in workload.regions]
    readings = []
    for _ in range(params.windows):
        for reading in workload.readings_round():
            readings.append(
                BenchTelemetry(
                    reading.get_region(),
                    reading.get_sensor(),
                    reading.get_reading(),
                    len(readings),
                )
            )
    result = RoundResult()
    freeze_gc()

    start = perf_counter()
    system = MultiStageEventSystem(
        stage_sizes=TELEMETRY_STAGES, seed=seed, flow=FlowConfig(), log=LogConfig()
    )
    sink = Sink(system.sim)
    raw_handler = _traced(sink.handler, tracer)
    rollup_handler = _traced(sink.derived_handler, tracer)
    system.advertise(TELEMETRY_EVENT_CLASS, schema=TELEMETRY_SCHEMA)
    system.install_flows([workload.rollup_flow(window=WINDOW_S)])
    system.drain()
    joins = [(workload.rollup_subscription(r), rollup_handler) for r in workload.regions]
    joins += [
        (workload.sensor_subscription(region, index), raw_handler)
        for region, index in zip(workload.regions, watched)
    ]
    joins.append((workload.archive_subscription(), raw_handler))
    dashboards = {}
    reference = []
    joins_s = 0.0
    for filter_, handler in joins:
        began = perf_counter()
        _, active = _join(system, handler, filter_)
        system.drain()
        joins_s += perf_counter() - began
        if handler is rollup_handler:
            dashboards[active.subscription_id] = filter_
        else:
            reference.append(active)
    publisher = system.create_publisher("telemetry-feed")
    result.setup_s = perf_counter() - start
    result.ops, result.ops_s = len(joins), joins_s
    control = _control_messages(system)

    per_window = len(readings) // params.windows
    step = SPREAD * WINDOW_S / per_window
    first = (math.floor(system.sim.now / WINDOW_S) + 1) * WINDOW_S
    first += (1.0 - SPREAD) * WINDOW_S / 2 + step / 2
    for index, reading in enumerate(readings):
        window, slot = divmod(index, per_window)
        reading._bench_due = first + window * WINDOW_S + slot * step
    sink.latency = "wall"
    result.publish_s, generator = _sim_publish(
        system, publisher, readings, TELEMETRY_EVENT_CLASS, sink, tracer is not None
    )
    result.publishes = result.rated_publishes = len(readings)
    result.refused = generator.refused
    if tracer is not None:
        timed_s = result.setup_s + result.publish_s
        result.unattributed_s = timed_s - tracer.attributed_s()

    # Raw deliveries, then each dashboard's rollups, against the reference.
    expected = expected_deliveries(
        reference,
        ((r._bench_seq, telemetry_attributes(r)) for r in readings),
        "sensor",
    )
    result.deliveries = result.rated_deliveries = sink.count
    result.delivered = _in_join_order(Counter(sink.got), reference)
    result.set_latencies(sink.latencies)
    result.mismatch = compare(_in_join_order(expected, reference), result.delivered)
    rollups = window_rollups(
        (
            (r._bench_due, r.get_region(), r.get_reading())
            for r in readings
        ),
        WINDOW_S,
    )
    expected_rollups = 0
    for subscription_id, filter_ in dashboards.items():
        region = next(c.operand for c in filter_.constraints if c.attribute == "region")
        wanted = {key: value for key, value in rollups.items() if key[0] == region}
        expected_rollups += len(wanted)
        received = [
            (
                m["region"],
                round(m["window_start"] / WINDOW_S),
                m["n"],
                m["avg_reading"],
            )
            for m in sink.derived.get(subscription_id, [])
        ]
        result.mismatch.add(compare_rollups(wanted, received))
    result.expected_deliveries = sum(expected.values()) + expected_rollups
    result.shed = system.total_events_shed()
    if tracer is not None:
        result.counters = layer_counters(
            system, result.ops, control, generator.queue_peak
        )
    return result


def default_params(workload: str):
    """The parameters each named workload runs with."""
    if workload == "stocks-sim":
        return StocksParams()
    if workload == "churn-sim":
        return StocksParams(runs=30, events_per_run=50, replacements_per_run=10)
    if workload == "telemetry-sim":
        return TelemetryParams()
    if workload == "stocks-tcp":
        return TcpParams()
    raise ValueError(f"unknown workload {workload!r}")


ROUNDS = {
    "stocks-sim": stocks_sim_round,
    "churn-sim": stocks_sim_round,
    "telemetry-sim": telemetry_sim_round,
    "stocks-tcp": stocks_tcp_round,
}
