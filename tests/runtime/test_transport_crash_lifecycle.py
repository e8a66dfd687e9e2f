"""Crash-lifecycle regression tests for the TCP transport (PR 9).

Three transport bugs rode along with PR 8's endpoint FSM:

1. An ``_inflight`` leak: a frame whose write succeeded into a killed
   endpoint's socket buffer was never read, so the runtime's in-flight
   counter never came back down and ``run()`` burned its full
   ``idle_timeout`` waiting for an idleness that could not happen.
2. ``kill()`` was not idempotent: a second kill re-ran ``crash()`` and
   overwrote ``endpoint.teardown``, orphaning the first teardown task so
   a later ``restore()`` could race the still-closing server socket.
3. ``restore()`` on a live endpoint silently started a second server on
   the process's port instead of failing loudly.

These tests pin the fixed behaviour: prompt settling after a kill with
frames in flight, drop accounting that matches the swallowed frames
exactly, one-shot FSM edges, and the documented endpoint history across
kill -> restore -> kill.

Hostile input from a raw localhost connection must not corrupt that
accounting either: a frame that does not decode settles only the wire
entry its envelope names (none, for a foreign connection), and a frame
header claiming an impossible size is recorded, counted as a drop, and
closes only its own connection.
"""

import asyncio
import time

import pytest

from repro.runtime.asyncio_backend import (
    AsyncioRuntime,
    BINDING,
    CRASHED,
    INIT,
    LISTENING,
    MAX_FRAME_BYTES,
    RECOVERING,
    SERVING,
    TcpTransport,
)
from repro.sim.kernel import Process, SimulationError


class Sink(Process):
    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.received = []

    def receive(self, message, sender):
        self.received.append((message, getattr(sender, "name", None)))


@pytest.fixture
def fabric():
    runtime = AsyncioRuntime()
    transport = TcpTransport(runtime)
    try:
        yield runtime, transport
    finally:
        transport.close()
        runtime.close()


def _establish(runtime, transport, a, b):
    """One delivered frame: servers bound, writer cached, FSM at SERVING."""
    transport.send(a, b, "warmup")
    assert runtime.run_until(lambda: len(b.received) == 1, timeout=5.0)


class TestInFlightReconciliation:
    def test_run_settles_promptly_after_kill_with_frames_in_flight(self, fabric):
        runtime, transport = fabric
        a, b = Sink(runtime, "a"), Sink(runtime, "b")
        transport.connect(a, b)
        _establish(runtime, transport, a, b)

        # A burst the victim will never read: the writes land in its
        # socket buffer (or fail against the closing server), and the
        # kill must reconcile whatever the dispatch path cannot settle.
        for i in range(20):
            transport.send(a, b, f"swallowed-{i}")
        transport.kill(b)

        start = time.monotonic()
        runtime.run()
        elapsed = time.monotonic() - start
        # The leak made this wait out the full idle_timeout (30 s).
        assert elapsed < 10.0, f"run() took {elapsed:.1f}s — in-flight leak?"
        assert runtime._inflight == 0
        assert transport.stats.in_flight == 0

    def test_drops_match_swallowed_frames_exactly(self, fabric):
        runtime, transport = fabric
        a, b = Sink(runtime, "a"), Sink(runtime, "b")
        transport.connect(a, b)
        _establish(runtime, transport, a, b)
        assert transport.stats.dropped_messages == 0

        in_flight_burst = 20
        for i in range(in_flight_burst):
            transport.send(a, b, f"burst-{i}")
        transport.kill(b)
        runtime.run()
        assert transport.stats.dropped_messages == in_flight_burst
        assert runtime._inflight == 0

        # Frames sent while the endpoint stays down fail the connect and
        # drop too — every swallowed frame is accounted, nothing else.
        downtime_sends = 5
        for i in range(downtime_sends):
            transport.send(a, b, f"down-{i}")
        runtime.run()
        assert (
            transport.stats.dropped_messages == in_flight_burst + downtime_sends
        )
        assert runtime._inflight == 0

        # After restore, fresh frames deliver and the drop count freezes.
        transport.restore(b)
        assert runtime.run_until(lambda: not b.crashed, timeout=5.0)
        transport.send(a, b, "fresh")
        assert runtime.run_until(
            lambda: any(m == "fresh" for m, _ in b.received), timeout=5.0
        )
        assert (
            transport.stats.dropped_messages == in_flight_burst + downtime_sends
        )
        assert transport.stats.in_flight == 0
        assert transport.errors == []


class TestIdempotentKill:
    def test_second_kill_is_a_noop(self, fabric):
        runtime, transport = fabric
        a, b = Sink(runtime, "a"), Sink(runtime, "b")
        transport.connect(a, b)
        _establish(runtime, transport, a, b)

        transport.kill(b)
        endpoint = transport.endpoint(b)
        first_teardown = endpoint.teardown
        assert endpoint.state == CRASHED
        assert first_teardown is not None

        transport.kill(b)  # must not re-crash or clobber the teardown
        assert endpoint.teardown is first_teardown
        assert endpoint.history.count(CRASHED) == 1
        assert b.incarnation == 0  # crash() ran once, restart() not at all

        # The preserved handle is what restore awaits; the lifecycle
        # must still complete normally after the double kill.
        transport.restore(b)
        assert runtime.run_until(lambda: not b.crashed, timeout=5.0)
        transport.send(a, b, "alive-again")
        assert runtime.run_until(
            lambda: any(m == "alive-again" for m, _ in b.received), timeout=5.0
        )


class TestRestoreGuard:
    def test_restore_on_live_endpoint_raises(self, fabric):
        runtime, transport = fabric
        a, b = Sink(runtime, "a"), Sink(runtime, "b")
        transport.connect(a, b)
        _establish(runtime, transport, a, b)
        with pytest.raises(SimulationError, match="cannot restore"):
            transport.restore(b)

    def test_restore_while_recovering_raises(self, fabric):
        runtime, transport = fabric
        a, b = Sink(runtime, "a"), Sink(runtime, "b")
        transport.connect(a, b)
        _establish(runtime, transport, a, b)
        transport.kill(b)
        transport.restore(b)  # schedules the rebind; state leaves CRASHED
        with pytest.raises(SimulationError, match="cannot restore"):
            transport.restore(b)
        assert runtime.run_until(lambda: not b.crashed, timeout=5.0)


class TestEndpointHistory:
    def test_documented_edge_sequence_across_kill_restore_kill(self, fabric):
        runtime, transport = fabric
        a, b = Sink(runtime, "a"), Sink(runtime, "b")
        transport.connect(a, b)
        _establish(runtime, transport, a, b)
        endpoint = transport.endpoint(b)
        assert endpoint.history == [INIT, BINDING, LISTENING, SERVING]

        transport.kill(b)
        runtime.run()
        transport.restore(b)
        assert runtime.run_until(
            lambda: not b.crashed and endpoint.state == LISTENING, timeout=5.0
        )
        transport.send(a, b, "post-restore")
        assert runtime.run_until(
            lambda: any(m == "post-restore" for m, _ in b.received), timeout=5.0
        )
        transport.kill(b)
        runtime.run()

        assert endpoint.history == [
            INIT,
            BINDING,
            LISTENING,
            SERVING,
            CRASHED,
            RECOVERING,
            LISTENING,
            SERVING,
            CRASHED,
        ]


def _raw_frames(runtime, transport, process, *frames):
    """Write each frame over its own foreign connection to ``process``."""

    async def _write(frame):
        port = transport.endpoint(process).port
        _, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(frame)
        await writer.drain()
        return writer

    return [runtime.loop.run_until_complete(_write(frame)) for frame in frames]


class TestHostileFrames:
    """Frames from a raw localhost connection, not from a transport peer."""

    @pytest.fixture
    def served(self, fabric):
        runtime, transport = fabric
        runtime.idle_timeout = 3.0
        loop_errors = []
        runtime.loop.set_exception_handler(lambda _, ctx: loop_errors.append(ctx))
        a, b = Sink(runtime, "a"), Sink(runtime, "b")
        transport.connect(a, b)
        _establish(runtime, transport, a, b)
        yield runtime, transport, a, b
        # The endpoint keeps serving legitimate traffic afterwards.
        transport.send(a, b, "after")
        assert runtime.run_until(
            lambda: any(m == "after" for m, _ in b.received), timeout=5.0
        )
        assert loop_errors == []

    @pytest.mark.parametrize(
        "body",
        [b"{}", b'{"v": 1, "src": "a", "kind": "str", "body": "!!"}'],
        ids=["no-envelope", "bad-body"],
    )
    def test_undecodable_frame_settles_nothing(self, served, body):
        runtime, transport, a, b = served
        drops = transport.stats.dropped_messages
        writers = _raw_frames(
            runtime, transport, b, (len(body) + 4).to_bytes(4, "big") + body
        )
        assert runtime.run_until(lambda: transport.errors, timeout=5.0)
        start = time.monotonic()
        runtime.run()
        # Settling a frame that was never in flight drove _inflight to -1,
        # so run() could not see idleness and burned its idle_timeout.
        assert time.monotonic() - start < 1.5, "in-flight underflow?"
        assert runtime._inflight == 0
        assert transport.stats.in_flight == 0
        assert transport.stats.dropped_messages == drops + 1
        assert [e.startswith("decode for b") for e in transport.errors] == [True]
        writers[0].close()

    def test_bad_frame_headers_close_only_their_connections(self, served):
        runtime, transport, a, b = served
        drops = transport.stats.dropped_messages
        # Below the header size (readexactly would raise ValueError out of
        # the read loop) and above the frame limit.
        claims = (0, 2, MAX_FRAME_BYTES + 1)
        writers = _raw_frames(
            runtime, transport, b, *(n.to_bytes(4, "big") + b"xx" for n in claims)
        )
        assert runtime.run_until(
            lambda: len(transport.errors) == len(claims), timeout=5.0
        )
        for claim in claims:
            assert any(f"size {claim} outside" in e for e in transport.errors)
        assert transport.stats.dropped_messages == drops + len(claims)
        for writer in writers:
            writer.close()
