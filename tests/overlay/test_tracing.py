"""Trace-path tests: the control-plane spans of a traced run."""

from repro.core.engine import MultiStageEventSystem


class Quote:
    def __init__(self, symbol):
        self._symbol = symbol

    def get_symbol(self):
        return self._symbol


def traced_system():
    system = MultiStageEventSystem(stage_sizes=(3, 1), seed=51, tracing=True)
    system.advertise("Quote", schema=("class", "symbol"))
    return system


def test_advertisements_are_traced_per_node():
    system = traced_system()
    system.drain()
    spans = system.tracer.kinds("advertise")
    assert len(spans) == len(system.hierarchy.nodes())


def test_join_path_is_traced():
    system = traced_system()
    subscriber = system.create_subscriber()
    system.subscribe(subscriber, 'class = "Quote" and symbol = "A"')
    system.drain()
    inserts = system.tracer.kinds("subscriber-insert")
    assert len(inserts) == 1
    joins = system.tracer.kinds("joined")
    assert len(joins) == 1
    assert joins[0].detail("home").startswith("N1.")


def test_covering_redirects_are_traced():
    system = traced_system()
    for i in range(2):
        subscriber = system.create_subscriber()
        system.subscribe(subscriber, 'class = "Quote" and symbol = "HOT"')
        system.drain()
    # The second similar subscription follows a stored covering filter.
    assert len(system.tracer.kinds("route-covering")) >= 1


def test_lease_expiry_is_traced():
    system = MultiStageEventSystem(stage_sizes=(2, 1), seed=52, ttl=5.0, tracing=True)
    system.advertise("Quote", schema=("class", "symbol"))
    subscriber = system.create_subscriber()
    system.subscribe(subscriber, 'class = "Quote" and symbol = "A"')
    system.drain()
    system.start_maintenance()
    subscriber.stop_maintenance()
    system.run_for(5.0 * 12)
    assert len(system.tracer.kinds("lease-expired")) >= 1
    system.stop_maintenance()


def test_disconnect_reconnect_traced():
    system = traced_system()
    subscriber = system.create_subscriber()
    system.subscribe(subscriber, 'class = "Quote" and symbol = "A"')
    system.drain()
    subscriber.disconnect(durable=True)
    system.drain()
    subscriber.reconnect()
    system.drain()
    assert len(system.tracer.kinds("disconnect")) == 1
    reconnects = system.tracer.kinds("reconnect")
    assert len(reconnects) == 1
    assert reconnects[0].detail("replayed") == 0
