"""Unit tests for the plain-text report renderers."""

from repro.metrics.counters import NodeCounters
from repro.metrics.report import (
    aggregate_counters,
    format_number,
    render_counters,
    render_series,
    render_table,
)


class TestFormatNumber:
    def test_integers_verbatim(self):
        assert format_number(42) == "42"

    def test_zero(self):
        assert format_number(0) == "0"
        assert format_number(0.0) == "0"

    def test_small_values_scientific(self):
        assert format_number(2e-7) == "2.00e-07"

    def test_ordinary_floats_compact(self):
        assert format_number(0.8712) == "0.8712"

    def test_strings_pass_through(self):
        assert format_number("-") == "-"

    def test_bools(self):
        assert format_number(True) == "True"


class TestRenderTable:
    def test_columns_align(self):
        table = render_table(
            ["Stage", "RLC"], [[0, 2e-7], [1, 2e-4], [3, 0.02]]
        )
        lines = table.splitlines()
        assert len(lines) == 5
        assert lines[0].startswith("Stage")
        header_rlc = lines[0].index("RLC")
        for line in lines[2:]:
            assert line[header_rlc] not in (" ",)

    def test_values_present(self):
        table = render_table(["a"], [[123456]])
        assert "123456" in table


class TestRenderSeries:
    def test_summary_statistics(self):
        text = render_series("MR", [("level 0", [0.5, 1.0, 0.75])])
        assert "min=0.5" in text
        assert "max=1" in text
        assert "n=3" in text

    def test_empty_series(self):
        assert "(empty)" in render_series("MR", [("level 0", [])])

    def test_long_series_downsampled(self):
        text = render_series("MR", [("s", [float(i) for i in range(500)])], width=40)
        strip = text.splitlines()[-1]
        assert len(strip.strip()) <= 44

    def test_constant_series_no_crash(self):
        text = render_series("MR", [("s", [1.0, 1.0, 1.0])])
        assert "mean=1" in text


# ---------------------------------------------------------------------------
# Counter sections: golden output.  The expected texts and totals were
# captured from the hand-written per-section renderers this table replaced.
# ---------------------------------------------------------------------------

FIELDS = (
    "control_retransmits control_dups_discarded events_shed credits_granted "
    "credit_stalls rate_limited overload_transitions flows_installed "
    "flow_events_in flow_events_out flow_windows_dropped "
    "flow_collapsed_events events_published batches batched_events "
    "max_batch_size req_inserts_sent withdrawals_sent "
    "propagations_suppressed uncover_repropagations propagated_filters "
    "filters_held"
).split()


def fixed_counters(i):
    counters = NodeCounters()
    for k, name in enumerate(FIELDS):
        setattr(counters, name, (i * 7 + k * 3) % 11 * 10 ** (k % 3))
    counters.cache.hits = 100 * i + 3
    counters.cache.misses = 7 * i + 1
    counters.cache.invalidations = i
    counters.on_shed("queue-overflow", i + 1)
    if i % 2:
        counters.on_shed("drop-oldest", 2 * i)
    return counters


NAMED = [(f"N{i}.1", fixed_counters(i)) for i in range(1, 4)]
IDLE = ("N9.9", NodeCounters())

RELIABILITY = """\
Reliable control channel
Location  Retransmits  Dup frames dropped
--------  -----------  ------------------
N1.1      7            100
N2.1      3            60
N3.1      10           20
TOTAL     20           180"""

FLOW = """\
Flow control / overload protection
Location  Shed  Credits  Stalls  Rate-limited  Overloads
--------  ----  -------  ------  ------------  ---------
N1.1      204   5        80      0             3
N2.1      903   1        40      700           10
N3.1      510   8        0       300           6
N9.9      0     0        0       0             0
TOTAL     1617  14       120     1000          19
Sheds by reason:
  drop-oldest: 8
  queue-overflow: 9"""

FLOW_IDLE = """\
Flow counters at 10x (controlled run)
Location  Shed  Credits  Stalls  Rate-limited  Overloads
--------  ----  -------  ------  ------------  ---------
N9.9      0     0        0       0             0
TOTAL     0     0        0       0             0"""

STREAM = """\
Information flows  flows  events in  derived out  windows dropped  collapsed  published
-----------------  -----  ---------  -----------  ---------------  ---------  ---------
N1.1               60     900        1            40               700        10
N2.1               20     500        8            0                300        6
N3.1               90     100        4            70               1000       2
N8.8               0      5          0            0                0          0
TOTAL              170    1505       13           110              2000       18"""


class TestCounterSections:
    def test_reliability(self):
        assert render_counters("reliability", NAMED) == RELIABILITY

    def test_flow_lists_sheds_by_reason(self):
        assert render_counters("flow", NAMED + [IDLE]) == FLOW

    def test_flow_custom_title_without_sheds(self):
        title = "Flow counters at 10x (controlled run)"
        assert render_counters("flow", [IDLE], title=title) == FLOW_IDLE

    def test_stream_elides_idle_rows_and_reads_snapshot_dicts(self):
        named = NAMED + [
            IDLE,
            ("N8.8", {"flow_events_in": 5}),
            ("N7.7", {"events_processed": 3}),
        ]
        assert render_counters("stream", named) == STREAM

    def test_cache_totals(self):
        totals = aggregate_counters("cache", [c for _, c in NAMED])
        assert totals == {
            "hits": 609,
            "misses": 45,
            "invalidations": 6,
            "batches": 160,
            "batched_events": 1400,
            "max_batch_size": 8,
            "hit_rate": 0.9311926605504587,
            "avg_batch_size": 8.75,
        }
        assert aggregate_counters("cache", [])["hit_rate"] == 0.0

    def test_aggregation_totals(self):
        totals = aggregate_counters("aggregation", [c for _, c in NAMED])
        assert totals == {
            "req_inserts_sent": 100,
            "withdrawals_sent": 1900,
            "propagations_suppressed": 17,
            "uncover_repropagations": 150,
            "propagated_filters": 1300,
            "suppression_rate": 0.1452991452991453,
        }
        assert aggregate_counters("aggregation", [])["suppression_rate"] == 0.0
