"""Routing-decision cache invalidation soundness at the overlay level.

The cache memoizes broker match results per event fingerprint, so every
table mutation path must flush it.  These tests deliberately warm the
memo with repeated publishes of the *same* event shape and then mutate
the tables through each paper mechanism — explicit unsubscribe, lease
expiry (3xTTL soft-state decay, §4.3), covering-merge compaction
rebuilds — asserting deliveries reflect the new table state, never the
stale memo.
"""

from collections import Counter

from repro.core.engine import MultiStageEventSystem

SCHEMA = ("class", "symbol", "price")


class Quote:
    def __init__(self, symbol, price):
        self._symbol = symbol
        self._price = price

    def get_symbol(self):
        return self._symbol

    def get_price(self):
        return self._price


def make_system(**kwargs):
    defaults = dict(stage_sizes=(4, 2, 1), seed=3, ttl=10.0)
    defaults.update(kwargs)
    system = MultiStageEventSystem(**defaults)
    system.advertise("Quote", schema=SCHEMA)
    system.drain()
    return system


def add_subscriber(system, name, text, deliveries):
    subscriber = system.create_subscriber(name)
    subs = system.subscribe(
        subscriber,
        text,
        event_class="Quote",
        handler=lambda e, m, s: deliveries.update([name]),
    )
    system.drain()
    return subscriber, subs[0]


def publish_quote(system, publisher, symbol="A", price=5.0, times=1):
    for _ in range(times):
        publisher.publish(Quote(symbol, price), event_class="Quote")
    system.drain()


def broker_cache_totals(system):
    hits = invalidations = 0
    for node in system.hierarchy.nodes():
        hits += node.counters.cache.hits
        invalidations += node.counters.cache.invalidations
    return hits, invalidations


def test_unsubscribe_invalidates_cached_route():
    deliveries = Counter()
    system = make_system()
    _, sub_a = add_subscriber(
        system, "a", 'class = "Quote" and symbol = "A"', deliveries
    )
    keeper, _ = add_subscriber(
        system, "b", 'class = "Quote" and symbol = "A"', deliveries
    )
    publisher = system.create_publisher()

    publish_quote(system, publisher, times=3)  # warm the broker memos
    hits, _ = broker_cache_totals(system)
    assert hits > 0, "repeated publishes must hit the cache"
    assert deliveries == Counter({"a": 3, "b": 3})

    subscriber_a = next(s for s in system.subscribers if s.name == "a")
    subscriber_a.unsubscribe(sub_a.subscription_id)
    system.drain()
    _, invalidations = broker_cache_totals(system)
    assert invalidations > 0, "unsubscribe must flush broker memos"

    publish_quote(system, publisher, times=2)
    assert deliveries["a"] == 3, "stale cached route delivered after unsubscribe"
    assert deliveries["b"] == 5, "surviving subscription must keep receiving"
    assert keeper.counters.events_delivered == 5


def test_lease_expiry_invalidates_cached_route():
    deliveries = Counter()
    system = make_system(ttl=10.0)
    subscriber, _ = add_subscriber(
        system, "a", 'class = "Quote" and symbol = "A"', deliveries
    )
    publisher = system.create_publisher()
    publish_quote(system, publisher, times=3)
    assert deliveries["a"] == 3

    system.start_maintenance()
    subscriber.stop_maintenance()  # the subscriber "crashes": no renewals
    # Decay cascades one stage at a time; allow ~3xTTL per broker stage.
    system.run_for(10 * 12)
    assert sum(len(n.table) for n in system.hierarchy.nodes()) == 0
    _, invalidations = broker_cache_totals(system)
    assert invalidations > 0, "purge must flush broker memos"

    for _ in range(2):
        publisher.publish(Quote("A", 5.0), event_class="Quote")
    system.run_for(1)  # drain() is unsafe while maintenance tasks run
    assert deliveries["a"] == 3, "stale cached route delivered after expiry"
    system.stop_maintenance()


def test_new_subscription_overrides_cached_negative_result():
    """The classic stale-negative bug: an event shape cached as
    matching-nobody must reach a subscriber who joins afterwards."""
    deliveries = Counter()
    system = make_system()
    # Someone must hold a filter so brokers route and memoize at all.
    add_subscriber(system, "other", 'class = "Quote" and symbol = "Z"', deliveries)
    publisher = system.create_publisher()
    publish_quote(system, publisher, symbol="A", times=3)  # cached: no match
    assert not deliveries

    add_subscriber(system, "late", 'class = "Quote" and symbol = "A"', deliveries)
    publish_quote(system, publisher, symbol="A", times=2)
    assert deliveries == Counter({"late": 2})


def test_compaction_rebuild_keeps_cache_honest():
    """With covering-merge compaction on, each rebuild swaps the effective
    engine; cached decisions from the old engine must not survive."""
    deliveries = Counter()
    system = make_system(stage_sizes=(2, 2, 1), seed=8, compact=True)
    publisher = system.create_publisher()

    add_subscriber(
        system, "s0", 'class = "Quote" and symbol = "DEF" and price < 10',
        deliveries,
    )
    publish_quote(system, publisher, symbol="DEF", price=10.5, times=3)
    assert not deliveries  # 10.5 not < 10; brokers memoized the decision

    # A wider filter arrives: compacted engines rebuild, memos must flush.
    add_subscriber(
        system, "s1", 'class = "Quote" and symbol = "DEF" and price < 13',
        deliveries,
    )
    publish_quote(system, publisher, symbol="DEF", price=10.5, times=2)
    assert deliveries == Counter({"s1": 2})

    # And the narrower original still works alongside, post-rebuild.
    publish_quote(system, publisher, symbol="DEF", price=9.0, times=1)
    assert deliveries == Counter({"s1": 3, "s0": 1})
