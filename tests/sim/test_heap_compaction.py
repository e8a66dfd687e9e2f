"""Regression tests for cancelled-handle compaction (PR 8 satellite).

Cancelled :class:`EventHandle` tombstones used to sit in the heap until
their deadline was popped — a subscriber churning renewal timers could
pin an unbounded number of dead handles.  The simulator now tracks the
tombstone count and re-heapifies the live handles once cancellations
dominate the queue.
"""

from repro.sim.kernel import Simulator


class TestCompaction:
    def test_cancelled_backlog_is_bounded_under_churn(self):
        sim = Simulator()
        # Schedule-and-cancel far-future timers, the renewal-churn shape.
        for _ in range(10_000):
            sim.schedule(1_000.0, lambda: None).cancel()
        assert sim.compactions > 0
        # Pending tombstones never exceed max(threshold*2, half the queue).
        assert sim.cancelled_pending < 10_000
        assert len(sim._queue) < 10_000

    def test_small_cancel_counts_do_not_trigger_compaction(self):
        sim = Simulator()
        keep = [sim.schedule(5.0, lambda: None) for _ in range(10)]
        for _ in range(Simulator.COMPACT_MIN_CANCELLED - 1):
            sim.schedule(1_000.0, lambda: None).cancel()
        assert sim.compactions == 0
        assert keep  # live handles untouched

    def test_compaction_preserves_execution_order(self):
        ordered = Simulator()
        out_plain = []
        for i in range(200):
            ordered.schedule(float(i % 7), out_plain.append, i)
        ordered.run()

        churned = Simulator()
        out_churned = []
        for i in range(200):
            churned.schedule(float(i % 7), out_churned.append, i)
            # Interleave heavy cancel churn to force compactions.
            for _ in range(3):
                churned.schedule(1_000.0, lambda: None).cancel()
        churned.run(until=999.0)
        assert out_churned == out_plain

    def test_double_cancel_counts_once(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert sim.cancelled_pending == 1

    def test_cancel_after_fire_records_no_tombstone(self):
        # A handle that already fired is out of the heap: cancelling it
        # late sets the flag but must not count a phantom tombstone.
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.run()
        handle.cancel()
        assert handle.cancelled
        assert sim.pending_events == 0
        assert sim.cancelled_pending == 0

    def test_cancel_after_step_records_no_tombstone(self):
        sim = Simulator()
        fired = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.step() is True
        fired.cancel()
        assert sim.pending_events == 1
        assert sim.cancelled_pending == 0


class TestProcessedEventsExcludesCancelled:
    def test_cancelled_never_counted_processed(self):
        sim = Simulator()
        out = []
        sim.schedule(1.0, out.append, "live")
        sim.schedule(2.0, out.append, "dead").cancel()
        sim.schedule(3.0, out.append, "live2")
        executed = sim.run()
        assert out == ["live", "live2"]
        assert executed == 2
        assert sim.processed_events == 2

    def test_cancelled_popped_by_step_not_counted(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None).cancel()
        sim.schedule(2.0, lambda: None)
        # step() skips the tombstone and executes the live event.
        assert sim.step() is True
        assert sim.processed_events == 1
        assert sim.cancelled_pending == 0

    def test_compacted_and_popped_tombstones_agree_on_stats(self):
        sim = Simulator()
        for i in range(500):
            handle = sim.schedule(float(i), lambda: None)
            if i % 2:
                handle.cancel()
        sim.run()
        assert sim.processed_events == 250
        assert sim.cancelled_pending == 0
        assert sim.pending_events == 0
