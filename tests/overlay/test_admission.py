"""The flush-order rule of the broker's one admission queue.

Publishes wait in the inbound queue for the end-of-instant drain.  On an
instantaneous broker (no ``flow``, no ``service_rate``) a control message
that mutates the table flushes the queue first, so an earlier publish is
matched against the table as it was when the publish arrived — the
one-event-at-a-time order.  A finite-speed broker has no instantaneous
catch-up: the publish waits for the service loop and sees the mutation.
"""

import pickle

import pytest

from repro.events.base import PropertyEvent
from repro.events.serialization import Envelope
from repro.filters.parser import parse_filter
from repro.overlay.messages import Publish, ReqInsert, Unsubscribe
from repro.overlay.node import BrokerNode
from repro.sim.kernel import Process, Simulator
from repro.sim.network import Network

FILTER = parse_filter('class = "Quote" and symbol = "A"')


class Recorder(Process):
    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.received = []

    def receive(self, message, sender):
        self.received.append(message)


@pytest.mark.parametrize(
    "service_rate, mutation, delivered",
    [
        (None, "unsubscribe", True),
        (None, "req-insert", False),
        (1000.0, "unsubscribe", False),
        (1000.0, "req-insert", True),
    ],
)
def test_same_instant_publish_and_table_mutation(service_rate, mutation, delivered):
    sim = Simulator()
    network = Network(sim, default_latency=0.001)
    node = BrokerNode(sim, network, "root", stage=1, service_rate=service_rate)
    destination, publisher = Recorder(sim, "dest"), Recorder(sim, "pub")
    insert = ReqInsert(FILTER, "Quote", destination)
    if mutation == "unsubscribe":
        node.receive(insert, destination)
        sim.run()
        message = Unsubscribe(FILTER, destination)
    else:
        message = insert

    props = {"class": "Quote", "symbol": "A", "price": 1.0}
    event = Envelope(PropertyEvent(props), pickle.dumps(props))
    node.receive(Publish(event), publisher)
    node.receive(message, destination)
    sim.run()

    assert len(destination.received) == int(delivered)
    assert (FILTER in node.table) == (mutation == "req-insert")
