"""Information-flow sweep: telemetry rollups vs a flow-free twin.

The bandwidth trade of DESIGN §15, measured end to end.  Every run
publishes the same high-fan-in sensor stream (``sensors_per_region``
sensors per region, one reading each per window) through the same
hierarchy, with a stage-2 broker crash/restart mid-stream:

- the **flow run** hosts the per-region tumbling-average rollup flow at
  the root; dashboards subscribe to the derived
  ``TelemetryRollup`` events (one per region per window);
- the **twin run** installs no flows; its dashboards subscribe to the
  raw per-region feeds and do the averaging client-side.

Both runs carry identical **raw-path witnesses** (single-sensor
subscriptions nowhere near a flow) whose delivered value sequences must
be identical — installing a flow must not perturb the raw path.  The
comparison gates (``bench_flows.py``): dashboard delivered events *and*
downlink bytes shrink ≥5× at 10× fan-in, witnesses byte-identical,
exactly-once audit CLEAN on three seeds.

A second scenario (:func:`run_subtree_crash`) hosts the flow on a
stage-2 broker and crashes *it*: open windows are discarded with
``window-dropped`` spans, the registrar's renewals re-install the flow
(refresh-or-restore), and the audit stays CLEAN with the recorded
excusal rule — a derived-event gap is excused iff its input window was
explicitly dropped by a crash (``dropped_window_excusals``) or it falls
in the crash window itself.
"""

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.engine import MultiStageEventSystem
from repro.flow import FlowConfig
from repro.log import (
    AuditReport,
    AuditSubscription,
    LogConfig,
    dropped_window_excusals,
    verify_exactly_once,
)
from repro.metrics.report import render_counters, render_table
from repro.workloads.telemetry import (
    TELEMETRY_EVENT_CLASS,
    TELEMETRY_SCHEMA,
    TelemetryWorkload,
)


@dataclass
class FlowsConfig:
    """Knobs of one telemetry run (defaults are CI-sized, 10x fan-in)."""

    stage_sizes: Tuple[int, ...] = (4, 2, 1)
    seed: int = 7
    ttl: float = 30.0
    n_regions: int = 3
    #: Raw events per region per window — the fan-in factor the rollup
    #: collapses to one derived event.
    sensors_per_region: int = 10
    #: Tumbling-window span (simulated seconds) and windows published.
    window: float = 1.0
    n_windows: int = 8
    link_window: int = 32
    #: Crash a stage-2 broker (over the witness subtree) this long after
    #: publishing starts, for this long (0 duration = no crash).
    crash_after: float = 2.5
    crash_duration: float = 0.8
    #: Settle time after the last window (recovery, late deliveries).
    slack: float = 6.0
    #: Subtree-crash scenario: registrar renewal TTL (small, so the
    #: flow re-installs quickly after the hosting broker restarts).
    reinstall_ttl: float = 2.0


@dataclass
class FlowsOutcome:
    """Measurements from one run (flow-backed or flow-free twin)."""

    config: FlowsConfig
    flows_on: bool
    raw_published: int = 0
    #: Dashboard-side (downlink) totals, summed over all dashboards.
    dashboard_delivered: int = 0
    dashboard_bytes: int = 0
    #: Raw-path witness deliveries: name -> ordered (sensor, reading).
    witness_values: Dict[str, List[Tuple[str, float]]] = field(
        default_factory=dict
    )
    derived_published: int = 0
    flow_events_in: int = 0
    audit: Optional[AuditReport] = None
    crash_window: Tuple[float, float] = (0.0, 0.0)
    trace_dump: bytes = b""
    stream_report: str = ""

    @property
    def clean(self) -> bool:
        return self.audit is not None and self.audit.clean


@dataclass
class FlowsComparison:
    """Flow run vs flow-free twin over the same seeded stream."""

    flow: FlowsOutcome
    twin: FlowsOutcome

    @property
    def event_reduction(self) -> float:
        if not self.flow.dashboard_delivered:
            return 0.0
        return self.twin.dashboard_delivered / self.flow.dashboard_delivered

    @property
    def byte_reduction(self) -> float:
        if not self.flow.dashboard_bytes:
            return 0.0
        return self.twin.dashboard_bytes / self.flow.dashboard_bytes

    @property
    def witnesses_identical(self) -> bool:
        return self.flow.witness_values == self.twin.witness_values


def run_flows(
    config: Optional[FlowsConfig] = None, flows_on: bool = True
) -> FlowsOutcome:
    """One seeded telemetry run; ``flows_on`` picks flow vs twin."""
    config = config or FlowsConfig()
    system = MultiStageEventSystem(
        stage_sizes=config.stage_sizes,
        seed=config.seed,
        ttl=config.ttl,
        tracing=True,
        flow=FlowConfig(link_window=config.link_window),
        log=LogConfig(),
    )
    workload = TelemetryWorkload(
        system.rngs.stream("telemetry"),
        n_regions=config.n_regions,
        sensors_per_region=config.sensors_per_region,
    )
    system.advertise(TELEMETRY_EVENT_CLASS, schema=TELEMETRY_SCHEMA)
    if flows_on:
        system.install_flows([workload.rollup_flow(window=config.window)])
    system.drain()

    outcome = FlowsOutcome(config=config, flows_on=flows_on)
    publisher = system.create_publisher("telemetry-feed")
    audited: List[AuditSubscription] = []
    stage1 = system.hierarchy.stage1_nodes()

    # Dashboards (one per region) live in the *last* stage-1 subtree,
    # away from the crash; they want per-region aggregates — derived
    # rollups in the flow run, the full raw feed in the twin.
    dashboards = []
    for region in workload.regions:
        dashboard = system.create_subscriber(f"dashboard-{region}")
        filter_ = (
            workload.rollup_subscription(region)
            if flows_on
            else workload.raw_subscription(region)
        )
        subscription = system.subscribe(
            dashboard, filter_, handler=lambda e, m, s: None, at_node=stage1[-1]
        )[0]
        system.drain()
        dashboards.append(dashboard)
        audited.append(AuditSubscription(dashboard.name, subscription.filter))

    # Raw-path witnesses: two single-sensor feeds homed in the crash
    # subtree.  Identical in both runs — the byte-identity check.
    for index in range(2):
        name = f"witness-{index}"
        values = outcome.witness_values.setdefault(name, [])
        witness = system.create_subscriber(name)
        subscription = system.subscribe(
            witness,
            workload.sensor_subscription(workload.regions[0], index),
            handler=lambda e, m, s, values=values: values.append(
                (m["sensor"], m["reading"])
            ),
            at_node=stage1[0],
        )[0]
        system.drain()
        audited.append(AuditSubscription(witness.name, subscription.filter))

    # Publish n_windows rounds of readings, one reading per sensor per
    # window, evenly spread; crash/heal a stage-2 broker mid-stream.
    victim = stage1[0].parent
    start = system.sim.now
    crash_at = start + config.crash_after
    heal_at = crash_at + config.crash_duration
    if config.crash_duration:
        system.sim.schedule_at(crash_at, victim.crash)
        system.sim.schedule_at(heal_at, victim.restart)
        # Extended back one window: a rollup emitted just before the
        # crash may legitimately die in wiped downstream queues.
        outcome.crash_window = (crash_at - config.window, heal_at + config.slack)
    total_sensors = config.n_regions * config.sensors_per_region
    step = config.window / total_sensors
    for _ in range(config.n_windows):
        for reading in workload.readings_round():
            publisher.publish(reading, event_class=TELEMETRY_EVENT_CLASS)
            outcome.raw_published += 1
            system.run_for(step)
    system.run_for(config.slack)

    outcome.dashboard_delivered = sum(
        d.counters.events_delivered for d in dashboards
    )
    outcome.dashboard_bytes = sum(d.counters.bytes_received for d in dashboards)
    nodes = system.hierarchy.nodes()
    outcome.derived_published = sum(n.counters.events_published for n in nodes)
    outcome.flow_events_in = sum(n.counters.flow_events_in for n in nodes)
    windows = [outcome.crash_window] if config.crash_duration else []
    windows += list(dropped_window_excusals(system.tracer, slack=config.slack))
    outcome.audit = verify_exactly_once(
        system.root.log, system.tracer, audited, fault_windows=windows
    )
    outcome.trace_dump = system.tracer.dump()
    outcome.stream_report = render_counters(
        "stream", [(n.name, n.counters) for n in nodes]
    )
    return outcome


def run_comparison(config: Optional[FlowsConfig] = None) -> FlowsComparison:
    config = config or FlowsConfig()
    return FlowsComparison(
        flow=run_flows(config, flows_on=True),
        twin=run_flows(config, flows_on=False),
    )


@dataclass
class SubtreeCrashOutcome:
    """Soft-state crash semantics of a flow hosted on a stage-2 broker."""

    config: FlowsConfig
    windows_dropped: int = 0
    reinstalled: bool = False
    derived_published: int = 0
    audit: Optional[AuditReport] = None
    excusals: Tuple[Tuple[float, float], ...] = ()

    @property
    def clean(self) -> bool:
        return self.audit is not None and self.audit.clean


def run_subtree_crash(
    config: Optional[FlowsConfig] = None,
) -> SubtreeCrashOutcome:
    """Host the rollup flow on a stage-2 broker and crash it mid-run.

    Open windows must be discarded with ``window-dropped`` spans, the
    registrar's renewals must re-install the flow after the restart,
    and the audit against the *hosting broker's* log must be CLEAN with
    the crash window plus the dropped-window excusal intervals.
    """
    config = config or FlowsConfig()
    outcome = SubtreeCrashOutcome(config=config)
    system = MultiStageEventSystem(
        stage_sizes=config.stage_sizes,
        seed=config.seed,
        ttl=config.ttl,
        tracing=True,
        flow=FlowConfig(link_window=config.link_window),
        log=LogConfig(),
    )
    workload = TelemetryWorkload(
        system.rngs.stream("telemetry"),
        n_regions=config.n_regions,
        sensors_per_region=config.sensors_per_region,
    )
    system.advertise(TELEMETRY_EVENT_CLASS, schema=TELEMETRY_SCHEMA)
    stage1 = system.hierarchy.stage1_nodes()
    victim = stage1[0].parent
    registrar = system.install_flows(
        [workload.rollup_flow(window=config.window, broker=victim.name)]
    )
    system.drain()
    # Fast lease renewal: the re-install path after the crash.
    registrar.ttl = config.reinstall_ttl
    registrar.start_maintenance()

    publisher = system.create_publisher("telemetry-feed")
    # Flows tap events *transiting* their broker: an archiver with a
    # class-only subscription in the victim's subtree pulls the full raw
    # stream through the hosting broker (and its log).
    archiver = system.create_subscriber("telemetry-archive")
    archive_sub = system.subscribe(
        archiver,
        workload.archive_subscription(),
        handler=lambda e, m, s: None,
        at_node=stage1[0],
    )[0]
    region = workload.regions[0]
    dashboard = system.create_subscriber(f"dashboard-{region}")
    subscription = system.subscribe(
        dashboard,
        workload.rollup_subscription(region),
        handler=lambda e, m, s: None,
        at_node=stage1[0],
    )[0]
    system.run_for(0.5)

    start = system.sim.now
    # Snap the crash to mid-window so it deterministically catches open
    # window state (a boundary-aligned crash finds nothing pending).
    crash_at = (
        math.floor((start + config.crash_after) / config.window) + 0.5
    ) * config.window
    heal_at = crash_at + config.crash_duration
    system.sim.schedule_at(crash_at, victim.crash)
    system.sim.schedule_at(heal_at, victim.restart)
    total_sensors = config.n_regions * config.sensors_per_region
    step = config.window / total_sensors
    for _ in range(config.n_windows):
        for reading in workload.readings_round():
            publisher.publish(reading, event_class=TELEMETRY_EVENT_CLASS)
            system.run_for(step)
    system.run_for(config.slack)

    outcome.windows_dropped = victim.counters.flow_windows_dropped
    outcome.reinstalled = "region-rollup" in victim.flows()
    outcome.derived_published = victim.counters.events_published
    outcome.excusals = dropped_window_excusals(system.tracer, slack=config.slack)
    windows = [(crash_at - config.window, heal_at + config.slack)]
    windows += list(outcome.excusals)
    outcome.audit = verify_exactly_once(
        victim.log,
        system.tracer,
        [
            AuditSubscription(dashboard.name, subscription.filter),
            AuditSubscription(archiver.name, archive_sub.filter),
        ],
        fault_windows=windows,
    )
    return outcome


def render(
    comparison: FlowsComparison, subtree: Optional[SubtreeCrashOutcome] = None
) -> str:
    config = comparison.flow.config
    title = (
        f"Telemetry rollup flow vs flow-free twin: "
        f"{config.n_regions} regions x {config.sensors_per_region} sensors, "
        f"{config.n_windows} windows of {config.window}s, "
        f"crash {config.crash_duration}s (seed {config.seed})"
    )
    rows = []
    for outcome in (comparison.flow, comparison.twin):
        rows.append(
            [
                "rollup flow" if outcome.flows_on else "flow-free twin",
                outcome.raw_published,
                outcome.derived_published,
                outcome.dashboard_delivered,
                outcome.dashboard_bytes,
                "CLEAN" if outcome.clean else "DIRTY",
            ]
        )
    table = render_table(
        [
            "Run",
            "raw published",
            "derived",
            "dashboard events",
            "dashboard bytes",
            "audit",
        ],
        rows,
    )
    summary = render_table(
        ["Metric", "Value"],
        [
            ["delivered-event reduction", f"{comparison.event_reduction:.1f}x"],
            ["downlink-byte reduction", f"{comparison.byte_reduction:.1f}x"],
            [
                "raw witnesses identical",
                "yes" if comparison.witnesses_identical else "NO",
            ],
        ],
    )
    parts = [title, table, summary, comparison.flow.stream_report]
    if subtree is not None:
        parts.append(
            render_table(
                ["Subtree crash (flow on stage-2 broker)", "Value"],
                [
                    ["windows dropped by crash", subtree.windows_dropped],
                    [
                        "flow re-installed after restart",
                        "yes" if subtree.reinstalled else "NO",
                    ],
                    ["derived events published", subtree.derived_published],
                    ["excusal intervals", len(subtree.excusals)],
                    ["audit", "CLEAN" if subtree.clean else "DIRTY"],
                ],
            )
        )
        parts.append(subtree.audit.render())
    parts.append(comparison.flow.audit.render())
    return "\n\n".join(parts)


def run(config: Optional[FlowsConfig] = None) -> FlowsComparison:
    comparison = run_comparison(config)
    subtree = run_subtree_crash(config)
    print(render(comparison, subtree))
    clean = comparison.flow.clean and comparison.twin.clean and subtree.clean
    print(
        f"\nevent reduction: {comparison.event_reduction:.1f}x; "
        f"byte reduction: {comparison.byte_reduction:.1f}x; "
        f"witnesses identical: {comparison.witnesses_identical}; "
        f"audits clean: {clean}"
    )
    return comparison


if __name__ == "__main__":  # pragma: no cover - manual entry point
    run()
