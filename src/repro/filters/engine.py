"""Shared match-engine interface and the routing-decision cache.

All three matching engines — the naive Figure-6 :class:`~repro.filters.
table.FilterTable`, the :class:`~repro.filters.index.CountingIndex` and the
bitmap :class:`~repro.filters.compiled.CompiledMatchEngine` — implement the
:class:`MatchEngine` surface so broker nodes (and the caching layer below)
treat them interchangeably.  Brokers match every wakeup's run of events
through one ``match_batch`` call.

:class:`CachedMatchEngine` wraps any engine with a memo of routing
decisions keyed by a canonical *fingerprint* of the event's property set.
Real event streams are highly repetitive (identical property-set shapes
recur constantly — Gryphon's information-flow brokering and Shi et al.'s
subscription aggregation both exploit this), so a per-node memo converts
most matches into a single dict lookup.

Soundness rests on two facts:

1. A match result depends only on the values of attributes some stored
   filter actually constrains (the *relevant* attributes): every other
   attribute is never probed by any engine.  The fingerprint therefore
   restricts the event to its relevant attributes — two events that agree
   there are routed identically — and encodes attribute *absence* by
   omission (constraints never match absent attributes).
2. Every mutation path — ``insert``, ``remove``, ``remove_destination``
   (lease expiry and unsubscription route through these), and the
   covering-merge compaction rebuild (which constructs a fresh wrapped
   engine) — flushes the memo and the relevant-attribute set, so a stale
   decision can never survive a table change.

Values are keyed with the same bool-vs-number discrimination the counting
index uses for its equality buckets: ``1 == 1.0`` may share a decision
(every engine treats them identically under every operator) but ``True``
may not.
"""

from abc import ABC, abstractmethod
from collections import OrderedDict
from typing import (
    Any,
    FrozenSet,
    Hashable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.filters.filter import Filter
from repro.filters.operators import ALL
from repro.metrics.counters import CacheStats


class MatchEngine(ABC):
    """The surface broker nodes require from a matching engine.

    Engines keep cumulative work counters that callers read as deltas
    around a match call: ``evaluations`` (constraint probes, the LC
    bookkeeping), and for the compiled engine ``rebuilds`` (dirty
    recompiles) and ``residual_evaluations`` (residual predicates run).
    An engine without such work leaves the last two at zero.
    """

    evaluations: int = 0
    rebuilds: int = 0
    residual_evaluations: int = 0

    @abstractmethod
    def insert(self, filter_: Filter, destination: Hashable) -> None:
        """Associate ``destination`` with ``filter_``."""

    @abstractmethod
    def remove(self, filter_: Filter, destination: Hashable) -> bool:
        """Drop one (filter, destination) pair; True when it existed."""

    @abstractmethod
    def remove_destination(self, destination: Hashable) -> int:
        """Drop ``destination`` everywhere; returns entries affected."""

    @abstractmethod
    def match(self, event: Any) -> List[Tuple[Filter, Tuple[Hashable, ...]]]:
        """Matching ``(filter, ids)`` entries in filter insertion order."""

    @abstractmethod
    def destinations_for(self, filter_: Filter) -> Tuple[Hashable, ...]:
        """The ids currently associated with exactly this filter."""

    @abstractmethod
    def filters(self) -> Iterator[Filter]:
        """Iterate the distinct stored filters."""

    @abstractmethod
    def entries(self) -> Iterator[Tuple[Filter, Tuple[Hashable, ...]]]:
        """Iterate ``(filter, ids)`` pairs."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of distinct filters held."""

    @abstractmethod
    def __contains__(self, filter_: Filter) -> bool:
        """Whether this exact filter is stored."""

    def destinations(self, event: Any) -> Set[Hashable]:
        """Union of ids over all filters matching ``event``."""
        result: Set[Hashable] = set()
        for _, ids in self.match(event):
            result.update(ids)
        return result

    def match_batch(
        self, events: Sequence[Any], probes: Optional[List[Optional[int]]] = None
    ) -> List[List[Tuple[Filter, Tuple[Hashable, ...]]]]:
        """Match a run of events; result ``i`` is ``match(events[i])``.

        When ``probes`` is a list, the constraint probes each event cost
        are appended to it, one entry per event.  The default loops;
        :class:`~repro.filters.compiled.CompiledMatchEngine` overrides it
        to amortize recompilation and vectorize lookups across the run,
        and :class:`CachedMatchEngine` to answer repeats from its memo.
        """
        results = []
        for event in events:
            before = self.evaluations
            results.append(self.match(event))
            if probes is not None:
                probes.append(self.evaluations - before)
        return results


def value_key(value: Any) -> Any:
    """Canonical key separating bools from numbers (1 != True for matching)."""
    return (type(value) is bool, value)


def event_fingerprint(
    event: Any, relevant: FrozenSet[str]
) -> Optional[Tuple[Tuple[str, Any], ...]]:
    """Canonical fingerprint of an event's property set.

    Only attributes in ``relevant`` (those some stored filter constrains)
    participate; absence is encoded by omission.  Returns ``None`` when a
    participating value is unhashable — such events bypass the cache.
    """
    properties: Mapping[str, Any] = getattr(event, "properties", event)
    items = [
        (attribute, (type(value) is bool, value))  # value_key, inlined
        for attribute, value in properties.items()
        if attribute in relevant
    ]
    items.sort()  # attribute names are distinct: values never compared
    key = tuple(items)
    try:
        hash(key)
    except TypeError:
        return None
    return key


class CachedMatchEngine(MatchEngine):
    """A :class:`MatchEngine` wrapper memoizing routing decisions.

    ``stats`` may be shared (a node passes its counters' ``CacheStats`` so
    hit/miss/invalidation totals survive compaction rebuilds); by default
    the wrapper owns a private one.  The memo is a bounded LRU so a
    high-cardinality stream cannot grow it without limit.
    """

    def __init__(
        self,
        inner: MatchEngine,
        stats: Optional[CacheStats] = None,
        max_entries: int = 8192,
    ):
        if max_entries < 1:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        self.inner = inner
        self.stats = stats if stats is not None else CacheStats()
        self.max_entries = max_entries
        self._cache: "OrderedDict[Tuple, Tuple]" = OrderedDict()
        self._relevant: Optional[FrozenSet[str]] = None

    # -- mutation paths (every one invalidates) -------------------------

    def insert(self, filter_: Filter, destination: Hashable) -> None:
        self.inner.insert(filter_, destination)
        self._invalidate()

    def remove(self, filter_: Filter, destination: Hashable) -> bool:
        removed = self.inner.remove(filter_, destination)
        if removed:
            self._invalidate()
        return removed

    def remove_destination(self, destination: Hashable) -> int:
        removed = self.inner.remove_destination(destination)
        if removed:
            self._invalidate()
        return removed

    def _invalidate(self) -> None:
        if self._cache:
            self._cache.clear()
            self.stats.invalidations += 1
        self._relevant = None

    # -- the hot path ----------------------------------------------------

    def _relevant_attributes(self) -> FrozenSet[str]:
        if self._relevant is None:
            attributes = set()
            for filter_ in self.inner.filters():
                for constraint in filter_.constraints:
                    if constraint.operator is not ALL:
                        attributes.add(constraint.attribute)
            self._relevant = frozenset(attributes)
        return self._relevant

    def match(self, event: Any) -> List[Tuple[Filter, Tuple[Hashable, ...]]]:
        return self.match_batch((event,))[0]

    def match_batch(
        self, events: Sequence[Any], probes: Optional[List[Optional[int]]] = None
    ) -> List[List[Tuple[Filter, Tuple[Hashable, ...]]]]:
        """Match a run of events through the memo, in event order.

        Each event takes exactly the verdict a sequential :meth:`match`
        would give it, even with the memo at capacity: a hit moves its
        fingerprint to the LRU tail, and a miss inserts a placeholder
        there (its index among the run's misses), evicting the head if
        the memo overflows.  A later repeat of a pending fingerprint in
        the same run is therefore a hit, and an evicted one a miss
        again.  Every miss (and every unhashable-fingerprint event)
        then runs once through the inner engine's ``match_batch``; its
        result replaces its placeholder in place when still memoized.

        When ``probes`` is a list, one entry per event is appended:
        ``None`` for a memo hit, else the constraint probes the inner
        engine spent on that event.
        """
        relevant = self._relevant_attributes()
        cache = self._cache
        stats = self.stats
        # Per event: the memoized result tuple, or the index of the miss
        # whose result answers it.
        slots: List[Any] = []
        misses: List[Tuple[Optional[Tuple], Any, int]] = []
        for position, event in enumerate(events):
            key = event_fingerprint(event, relevant)
            if key is not None:
                cached = cache.get(key)
                if cached is not None:
                    cache.move_to_end(key)
                    stats.hits += 1
                    slots.append(cached)
                    continue
                cache[key] = len(misses)
                if len(cache) > self.max_entries:
                    cache.popitem(last=False)
            stats.misses += 1
            slots.append(len(misses))
            misses.append((key, event, position))
        inner_probes: Optional[List[int]] = None
        if probes is not None:
            first = len(probes)
            probes.extend([None] * len(slots))
            inner_probes = []
        if not misses:
            return [list(slot) for slot in slots]
        try:
            computed = self.inner.match_batch(
                [event for _, event, _ in misses], inner_probes
            )
        except BaseException:
            cache.clear()  # never leave an unresolved placeholder behind
            raise
        for index, (key, _, position) in enumerate(misses):
            if key is not None and cache.get(key) == index:
                cache[key] = tuple(computed[index])
            if inner_probes is not None:
                probes[first + position] = inner_probes[index]
        return [
            list(computed[slot]) if type(slot) is int else list(slot)
            for slot in slots
        ]

    # -- read-only delegation -------------------------------------------

    @property
    def evaluations(self) -> int:
        """Constraint probes performed by the inner engine (hits add 0)."""
        return self.inner.evaluations

    @evaluations.setter
    def evaluations(self, value: int) -> None:
        self.inner.evaluations = value

    @property
    def rebuilds(self) -> int:
        return self.inner.rebuilds

    @property
    def residual_evaluations(self) -> int:
        return self.inner.residual_evaluations

    def destinations_for(self, filter_: Filter) -> Tuple[Hashable, ...]:
        return self.inner.destinations_for(filter_)

    def filters(self) -> Iterator[Filter]:
        return self.inner.filters()

    def entries(self) -> Iterator[Tuple[Filter, Tuple[Hashable, ...]]]:
        return self.inner.entries()

    def cached_decisions(self) -> int:
        """Number of fingerprints currently memoized (for tests/reports)."""
        return len(self._cache)

    def __len__(self) -> int:
        return len(self.inner)

    def __contains__(self, filter_: Filter) -> bool:
        return filter_ in self.inner

    def __repr__(self) -> str:
        return (
            f"CachedMatchEngine({self.inner!r}, {len(self._cache)} cached, "
            f"hits={self.stats.hits}, misses={self.stats.misses})"
        )
