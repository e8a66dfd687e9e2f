"""Unit tests for the §5.1 metrics: LC, RLC, MR."""

import pytest

from repro.metrics.counters import NodeCounters
from repro.metrics.load import load_complexity, mean, relative_load_complexity
from repro.metrics.matching import (
    average_matching_rate,
    matching_rate,
    matching_rates,
)


SNAPSHOT_KEYS = """
    events_received events_matched events_forwarded events_delivered
    filter_evaluations filters_held max_filters_held control_messages
    cache_hits cache_misses cache_invalidations batches batched_events
    max_batch_size req_inserts_sent withdrawals_sent
    propagations_suppressed uncover_repropagations propagated_filters
    control_retransmits control_dups_discarded events_shed
    credits_granted credit_stalls rate_limited overload_transitions
    events_logged replay_events_sent replay_dupes_discarded catchup_taps
    catchup_delivered credit_gap_grants compile_rebuilds
    residual_evaluations flows_installed flow_events_in
    flow_events_out flow_windows_dropped flow_collapsed_events
    events_published bytes_received
""".split()


def make_counters(received=0, matched=0, filters=0):
    counters = NodeCounters()
    counters.set_filters_held(filters)
    for i in range(received):
        counters.on_event(matched=i < matched, forwarded_to=0, evaluations=filters)
    return counters


class TestCounters:
    def test_on_event_updates_everything(self):
        counters = NodeCounters()
        counters.set_filters_held(3)
        counters.on_event(matched=True, forwarded_to=2, evaluations=3)
        counters.on_event(matched=False, forwarded_to=0, evaluations=3)
        assert counters.events_received == 2
        assert counters.events_matched == 1
        assert counters.events_forwarded == 2
        assert counters.filter_evaluations == 6

    def test_max_filters_gauge(self):
        counters = NodeCounters()
        counters.set_filters_held(5)
        counters.set_filters_held(2)
        assert counters.filters_held == 2
        assert counters.max_filters_held == 5

    def test_snapshot(self):
        counters = make_counters(received=4, matched=2, filters=3)
        snap = counters.snapshot()
        assert snap["events_received"] == 4
        assert snap["events_matched"] == 2
        assert snap["filters_held"] == 3
        # Every int counter, in declaration order, with the cache stats
        # expanded in place; the per-key dict counters are left out.
        assert list(snap) == SNAPSHOT_KEYS


class TestLoadComplexity:
    def test_lc_formula(self):
        counters = make_counters(received=10, filters=5)
        assert load_complexity(counters) == 50.0

    def test_lc_with_explicit_filter_count(self):
        counters = make_counters(received=10, filters=5)
        assert load_complexity(counters, filters_held=2) == 20.0

    def test_rlc_formula(self):
        counters = make_counters(received=10, filters=5)
        rlc = relative_load_complexity(counters, total_events=10, total_subscriptions=50)
        assert rlc == pytest.approx(0.1)

    def test_centralized_server_definition(self):
        """A node receiving all events with all subscriptions: RLC = 1."""
        counters = make_counters(received=100, filters=40)
        assert relative_load_complexity(counters, 100, 40) == 1.0

    def test_rlc_requires_positive_totals(self):
        counters = make_counters(received=1, filters=1)
        with pytest.raises(ValueError):
            relative_load_complexity(counters, 0, 10)
        with pytest.raises(ValueError):
            relative_load_complexity(counters, 10, 0)

    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0
        assert mean([]) == 0.0


class TestMatchingRate:
    def test_mr_formula(self):
        assert matching_rate(make_counters(received=10, matched=9)) == 0.9

    def test_mr_of_idle_node_is_zero(self):
        assert matching_rate(NodeCounters()) == 0.0

    def test_matching_rates_series(self):
        series = matching_rates(
            [make_counters(10, 5), make_counters(10, 10)]
        )
        assert series == [0.5, 1.0]

    def test_average_skips_idle_by_default(self):
        counters = [make_counters(10, 10), NodeCounters()]
        assert average_matching_rate(counters) == 1.0

    def test_average_can_include_idle(self):
        counters = [make_counters(10, 10), NodeCounters()]
        assert average_matching_rate(counters, skip_idle=False) == 0.5

    def test_average_of_nothing_is_zero(self):
        assert average_matching_rate([]) == 0.0
        assert average_matching_rate([NodeCounters()]) == 0.0
