"""Outside-in layer tracing: wrap each layer's entry points, time self time.

The program's own tracer stays off.  Instead :class:`LayerTracer` swaps
wrappers in for the public entry points of each ``repro`` layer (class
methods and the module-level names other layers call them by) for the
duration of a traced round, and restores the originals afterwards, so
untraced rounds run the unmodified code.

A wrapped call's *self time* is its duration minus the time covered by
wrapped calls nested inside it.  Calls are counted once per outermost
entry into a layer key: a cached engine delegating ``match`` to the
engine it wraps is one ``filters.match`` call, whose self time is split
between the two.
"""

import functools
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple


class LayerTracer:
    """Call counts and self time per layer key, plus summed extras."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        #: Quantities summed from wrapped calls' results (wire bytes).
        self.totals: Dict[str, float] = defaultdict(float)
        #: Open spans: [key, time covered by nested wrapped spans].
        self._stack: List[list] = []
        self._patched: List[Tuple[object, str, object]] = []

    def wrap(
        self,
        key: str,
        fn: Callable,
        measure: Optional[Tuple[str, Callable]] = None,
    ) -> Callable:
        """``fn`` timed under ``key``; ``measure=(name, f)`` also adds
        ``f(result)`` to ``totals[name]``."""
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        totals = self.totals

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [key, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self_s[key] += elapsed - frame[1]
                if stack:
                    parent = stack[-1]
                    parent[1] += elapsed
                    if parent[0] != key:
                        calls[key] += 1
                else:
                    calls[key] += 1
            if measure is not None:
                totals[measure[0]] += measure[1](result)
            return result

        return traced

    def patch(self, owner: object, attr: str, key: str, measure=None) -> None:
        """Replace ``owner.attr`` with its traced wrapper until
        :meth:`restore`.  Class attributes are only wrapped where the
        class itself defines them: wrapping an inherited method on a
        subclass would make it look overridden to code that checks."""
        if isinstance(owner, type) and attr not in vars(owner):
            raise AttributeError(f"{owner.__name__} does not define {attr}")
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(key, original, measure))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def attributed_s(self) -> float:
        return sum(self.self_s.values())


def install_layer_wrappers(tracer: LayerTracer) -> None:
    """Wrap the public entry points of every measured ``repro`` layer."""
    import repro.overlay.publisher as publisher
    import repro.overlay.subscriber as subscriber
    import repro.runtime.asyncio_backend as asyncio_backend
    from repro.core.engine import MultiStageEventSystem
    from repro.filters.compiled import CompiledMatchEngine
    from repro.filters.engine import CachedMatchEngine
    from repro.filters.index import CountingIndex
    from repro.filters.table import FilterTable
    from repro.log.eventlog import EventLog
    from repro.overlay.node import BrokerNode
    from repro.sim.kernel import Simulator
    from repro.sim.network import Network
    from repro.streams.operators import WindowState

    tracer.patch(publisher, "marshal", "events.marshal")
    tracer.patch(subscriber, "unmarshal", "events.unmarshal")
    for engine in (CountingIndex, FilterTable, CompiledMatchEngine, CachedMatchEngine):
        for attr in ("match", "match_batch"):
            if attr in vars(engine):
                tracer.patch(engine, attr, "filters.match")
        for attr in ("insert", "remove", "remove_destination"):
            if attr in vars(engine):
                tracer.patch(engine, attr, "filters.write")
    tracer.patch(BrokerNode, "receive", "overlay.broker")
    tracer.patch(subscriber.SubscriberRuntime, "receive", "overlay.subscriber")
    tracer.patch(Network, "send", "sim.send")
    tracer.patch(Simulator, "step", "sim.kernel")
    tracer.patch(
        asyncio_backend,
        "encode_frame",
        "runtime.encode",
        measure=("runtime.wire_bytes", lambda payload: len(payload) + 4),
    )
    tracer.patch(asyncio_backend, "decode_frame", "runtime.decode")
    tracer.patch(asyncio_backend.TcpTransport, "send", "runtime.send")
    tracer.patch(EventLog, "append", "log.append")
    tracer.patch(WindowState, "on_event", "streams.on_event")
    tracer.patch(WindowState, "on_timer", "streams.on_timer")
    tracer.patch(MultiStageEventSystem, "subscribe", "core.subscribe")
    tracer.patch(subscriber.SubscriberRuntime, "unsubscribe", "core.unsubscribe")
