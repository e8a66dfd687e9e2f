"""Plain-text renderers for experiment output.

The benchmark harness prints the same rows/series the paper reports; a
couple of small formatters keep that output consistent everywhere.

Node counters are reported through one column table per section
(:data:`SECTIONS`: routing cache, covering aggregation, reliable
control, flow control, information flows).  :func:`aggregate_counters`
folds any section's per-location counters into totals and
:func:`render_counters` prints its per-location table; both read counter
snapshots, so live :class:`~repro.metrics.counters.NodeCounters` and
snapshot dicts from other processes report alike.  The remaining
renderers draw on the causal tracer (:mod:`repro.obs.tracing`) and the
network statistics.
"""

import operator
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)


def format_number(value: Any) -> str:
    """Compact scientific-ish formatting matching the paper's table style."""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, int):
        return str(value)
    if value == 0:
        return "0"
    magnitude = abs(value)
    if magnitude >= 0.01 or magnitude == 0:
        return f"{value:.4g}"
    return f"{value:.2e}"


def render_table(headers: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    """Render an aligned plain-text table."""
    formatted_rows: List[List[str]] = [
        [format_number(cell) for cell in row] for row in rows
    ]
    widths = [len(h) for h in headers]
    for row in formatted_rows:
        for column, cell in enumerate(row):
            widths[column] = max(widths[column], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()

    out = [line(list(headers)), line(["-" * w for w in widths])]
    out.extend(line(row) for row in formatted_rows)
    return "\n".join(out)


class Column(NamedTuple):
    """One report column.

    ``key`` names the value in a counter snapshot
    (:meth:`~repro.metrics.counters.NodeCounters.snapshot`); ``total``
    names it in :func:`aggregate_counters`' result (default: ``key``);
    ``fold`` combines per-location values into that total.
    """

    header: str
    key: str
    total: str = ""
    fold: Callable[[int, int], int] = operator.add

    @property
    def total_key(self) -> str:
        return self.total or self.key


class Section(NamedTuple):
    """One counter report section: a per-location table plus totals.

    ``ratios`` are derived totals ``(name, numerator, denominators)``:
    ``totals[numerator] / sum(totals[d] for d in denominators)``, 0.0
    when the denominator is 0.  ``breakdown`` is ``(dict field, label)``
    for a per-key dict counter merged across locations and listed below
    the table (keys sorted, so the output is deterministic).  A
    ``sparse`` section puts its title in the first header cell and
    elides locations whose columns are all zero (the TOTAL row always
    renders, so a system with no activity still gets a well-formed
    all-zero table).
    """

    title: str
    columns: Tuple[Column, ...]
    ratios: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = ()
    breakdown: Optional[Tuple[str, str]] = None
    sparse: bool = False


SECTIONS: Dict[str, Section] = {
    "cache": Section(
        "Routing cache / batched dispatch",
        (
            Column("Hits", "cache_hits", "hits"),
            Column("Misses", "cache_misses", "misses"),
            Column("Invalidations", "cache_invalidations", "invalidations"),
            Column("Batches", "batches"),
            Column("Batched", "batched_events"),
            Column("Max batch", "max_batch_size", fold=max),
        ),
        ratios=(
            ("hit_rate", "hits", ("hits", "misses")),
            ("avg_batch_size", "batched_events", ("batches",)),
        ),
    ),
    "aggregation": Section(
        "Covering aggregation (control plane)",
        (
            Column("ReqInsert", "req_inserts_sent"),
            Column("Withdrawn", "withdrawals_sent"),
            Column("Suppressed", "propagations_suppressed"),
            Column("Uncovered", "uncover_repropagations"),
            Column("Propagated", "propagated_filters"),
        ),
        ratios=(
            (
                "suppression_rate",
                "propagations_suppressed",
                ("req_inserts_sent", "propagations_suppressed"),
            ),
        ),
    ),
    "reliability": Section(
        "Reliable control channel",
        (
            Column("Retransmits", "control_retransmits"),
            Column("Dup frames dropped", "control_dups_discarded"),
        ),
    ),
    "flow": Section(
        "Flow control / overload protection",
        (
            Column("Shed", "events_shed"),
            Column("Credits", "credits_granted"),
            Column("Stalls", "credit_stalls"),
            Column("Rate-limited", "rate_limited"),
            Column("Overloads", "overload_transitions"),
        ),
        breakdown=("sheds_by_reason", "Sheds by reason"),
    ),
    "stream": Section(
        "Information flows",
        (
            Column("flows", "flows_installed"),
            Column("events in", "flow_events_in"),
            Column("derived out", "flow_events_out"),
            Column("windows dropped", "flow_windows_dropped"),
            Column("collapsed", "flow_collapsed_events"),
            Column("published", "events_published"),
        ),
        sparse=True,
    ),
}


def _snapshot(counter: Any) -> Dict[str, Any]:
    """A location's counters as a snapshot dict.

    Accepts a live :class:`NodeCounters` or an already-taken snapshot
    dict (e.g. from a multiprocess worker).  Tolerant by construction:
    a snapshot that predates a counter simply lacks its key, and
    :func:`aggregate_counters` / :func:`render_counters` read it as 0.
    """
    return counter if isinstance(counter, dict) else counter.snapshot()


def aggregate_counters(section: str, counters: Iterable[Any]) -> dict:
    """Fold per-location counters into one section's system-wide totals:
    one entry per column (by its ``total`` key), then the section's
    ratios, then its breakdown dict."""
    spec = SECTIONS[section]
    totals: Dict[str, Any] = {column.total_key: 0 for column in spec.columns}
    merged: Dict[str, int] = {}
    for counter in counters:
        values = _snapshot(counter)
        for column in spec.columns:
            name = column.total_key
            totals[name] = column.fold(totals[name], values.get(column.key, 0))
        if spec.breakdown is not None:
            field = spec.breakdown[0]
            if isinstance(counter, dict):
                per_key = counter.get(field, {})
            else:
                per_key = getattr(counter, field)
            for key, count in per_key.items():
                merged[key] = merged.get(key, 0) + count
    for name, numerator, denominators in spec.ratios:
        denominator = sum(totals[d] for d in denominators)
        totals[name] = totals[numerator] / denominator if denominator else 0.0
    if spec.breakdown is not None:
        totals[spec.breakdown[0]] = merged
    return totals


def render_counters(
    section: str,
    named_counters: Iterable[Tuple[str, Any]],
    title: Optional[str] = None,
) -> str:
    """One section's per-location table plus a TOTAL row (see
    :class:`Section` for the breakdown footer and sparse layout)."""
    spec = SECTIONS[section]
    title = spec.title if title is None else title
    rows: List[List[Any]] = []
    all_counters: List[Any] = []
    for name, counter in named_counters:
        all_counters.append(counter)
        values = _snapshot(counter)
        row = [values.get(column.key, 0) for column in spec.columns]
        if not spec.sparse or any(row):
            rows.append([name] + row)
    totals = aggregate_counters(section, all_counters)
    rows.append(["TOTAL"] + [totals[c.total_key] for c in spec.columns])
    headers = [c.header for c in spec.columns]
    if spec.sparse:
        return render_table([title] + headers, rows)
    out = [title, render_table(["Location"] + headers, rows)]
    if spec.breakdown is not None and totals[spec.breakdown[0]]:
        field, label = spec.breakdown
        out.append(f"{label}:")
        out.extend(f"  {key}: {totals[field][key]}" for key in sorted(totals[field]))
    return "\n".join(out)


def render_network_summary(stats: Any, title: str = "Network traffic") -> str:
    """Totals from a :class:`~repro.sim.network.NetworkStats`, including
    the loss/duplication columns the fault injector feeds."""
    rows = [
        ["delivered messages", stats.total_messages],
        ["delivered bytes", stats.total_bytes],
        ["dropped messages", stats.dropped_messages],
        ["dropped bytes", stats.dropped_bytes],
        ["duplicated messages", stats.duplicated_messages],
        ["duplicated bytes", stats.duplicated_bytes],
        ["peak in-flight messages", stats.peak_in_flight],
    ]
    table = render_table(["Counter", "Value"], rows)
    return f"{title}\n{table}"


def render_trace_path(tracer: Any, event_id: Tuple[Any, ...]) -> str:
    """Reconstruct and render every delivery path of one event.

    ``tracer`` is an :class:`~repro.obs.tracing.EventTracer`; the output
    is one multi-line listing per subscriber that received (or filtered
    out) the event, publisher-first.
    """
    paths = tracer.reconstruct(event_id)
    if not paths:
        return f"event {event_id[0]}/{event_id[1]}: no delivery spans recorded"
    return "\n".join(path.render() for path in paths)


def render_stage_latency_histograms(
    tracer: Any, title: str = "Per-stage hop latency", buckets: int = 8
) -> str:
    """Histogram of per-hop latencies, grouped by the receiving stage.

    Hop latencies come from reconstructed delivery paths (time between
    consecutive spans of a complete publisher-to-subscriber chain), so
    the histogram reflects what delivered events actually experienced —
    queue/defer time, link latency, and fault-window jitter included.
    """
    by_stage: dict = {}
    for event_id in tracer.event_ids():
        for path in tracer.reconstruct(event_id):
            if not path.complete:
                continue
            for _, stage, latency in path.hop_latencies:
                by_stage.setdefault(stage, []).append(latency)
    out = [title]
    if not by_stage:
        out.append("  (no complete paths recorded)")
        return "\n".join(out)
    for stage in sorted(by_stage, reverse=True):
        values = sorted(by_stage[stage])
        lo, hi = values[0], values[-1]
        mean = sum(values) / len(values)
        out.append(
            f"  stage {stage}: n={len(values)} min={format_number(lo)} "
            f"mean={format_number(mean)} max={format_number(hi)}"
        )
        span = (hi - lo) or 1.0
        counts = [0] * buckets
        for value in values:
            index = min(buckets - 1, int((value - lo) / span * buckets))
            counts[index] += 1
        top = max(counts)
        for bucket, count in enumerate(counts):
            left = lo + span * bucket / buckets
            right = lo + span * (bucket + 1) / buckets
            bar = "#" * (round(count / top * 40) if top else 0)
            out.append(
                f"    [{format_number(left)}, {format_number(right)}) "
                f"{count:>6} {bar}"
            )
    return "\n".join(out)


def render_hottest_brokers(
    tracer: Any, top: int = 10, title: str = "Hottest brokers"
) -> str:
    """Top-N brokers by hop-span count (events actually processed),
    with their cache hit counts and total fan-out alongside."""
    per_node: dict = {}
    for span in tracer.kinds("hop"):
        entry = per_node.get(span.node)
        if entry is None:
            entry = per_node[span.node] = {
                "stage": span.stage, "hops": 0, "hits": 0, "fanout": 0,
            }
        entry["hops"] += 1
        if span.detail("cache") == "hit":
            entry["hits"] += 1
        entry["fanout"] += span.detail("fanout", 0)
    ranked = sorted(
        per_node.items(), key=lambda item: (-item[1]["hops"], item[0])
    )[:top]
    rows = [
        [name, entry["stage"], entry["hops"], entry["hits"], entry["fanout"]]
        for name, entry in ranked
    ]
    if not rows:
        rows = [["(none)", "-", 0, 0, 0]]
    table = render_table(["Broker", "Stage", "Events", "Cache hits", "Fan-out"], rows)
    return f"{title}\n{table}"


def render_fault_alignment(
    tracer: Any,
    windows: Sequence[Tuple[float, float, str]],
    title: str = "Fault windows vs. loss/retransmit spans",
) -> str:
    """Align fault windows against the drop/dup/retransmit spans they
    caused: for each window, the control- and wire-level span counts
    inside it, plus the counts outside any window (which should stay
    near zero on a healthy run).

    ``windows`` is ``(start, end, label)`` triples in simulated time.
    """
    disturbance = tracer.kinds("drop", "dup", "retransmit", "channel-reset")
    rows: List[List[Any]] = []
    claimed = [False] * len(disturbance)
    for start, end, label in windows:
        counts = {"drop": 0, "dup": 0, "retransmit": 0, "channel-reset": 0}
        for index, span in enumerate(disturbance):
            if start <= span.time < end:
                counts[span.kind] += 1
                claimed[index] = True
        rows.append(
            [
                f"[{format_number(start)}, {format_number(end)}) {label}",
                counts["drop"],
                counts["dup"],
                counts["retransmit"],
                counts["channel-reset"],
            ]
        )
    outside = {"drop": 0, "dup": 0, "retransmit": 0, "channel-reset": 0}
    for index, span in enumerate(disturbance):
        if not claimed[index]:
            outside[span.kind] += 1
    rows.append(
        [
            "outside all windows",
            outside["drop"],
            outside["dup"],
            outside["retransmit"],
            outside["channel-reset"],
        ]
    )
    table = render_table(
        ["Window", "Drops", "Dups", "Retransmits", "Channel resets"], rows
    )
    return f"{title}\n{table}"


def render_series(
    title: str, series: Sequence[Tuple[str, Sequence[float]]], width: int = 60
) -> str:
    """Render named series as compact ASCII sparklines plus summary stats.

    A stand-in for the paper's scatter plots (e.g. Figure 7) on a text
    terminal: each series shows min/mean/max and a downsampled bar strip.
    """
    blocks = " .:-=+*#%@"
    out = [title]
    for name, values in series:
        values = list(values)
        if not values:
            out.append(f"  {name}: (empty)")
            continue
        lo, hi = min(values), max(values)
        mean = sum(values) / len(values)
        if len(values) > width:
            stride = len(values) / width
            sampled = [values[int(i * stride)] for i in range(width)]
        else:
            sampled = values
        span = (hi - lo) or 1.0
        strip = "".join(
            blocks[min(len(blocks) - 1, int((v - lo) / span * (len(blocks) - 1)))]
            for v in sampled
        )
        out.append(
            f"  {name}: n={len(values)} min={format_number(lo)} "
            f"mean={format_number(mean)} max={format_number(hi)}"
        )
        out.append(f"    [{strip}]")
    return "\n".join(out)
