"""Bounded queues with explicit, observable shedding policies.

Every queue the overlay grows under load — broker inbound queues,
per-link outbound (credit-blocked) queues, publisher local queues,
durable offline buffers — is bounded by a :class:`BoundedQueue`.  On
overflow the queue *returns* what it shed instead of discarding it
silently; the owner counts the loss and emits a ``shed`` tracing span.

Policies:

- ``drop_tail``: reject the arriving item (protects established work).
- ``drop_oldest``: evict the head to admit the arrival (freshness wins —
  the semantics durable offline buffers have always had, now explicit).
- ``priority_by_selectivity``: evict the lowest-priority item, where
  priority comes from a caller-supplied estimator — brokers use the
  covering index's per-form match counts, so the event predicted to
  reach the fewest subscribers is shed first.  Ties evict the oldest
  (deterministic: no hash order, no randomness).
"""

from collections import deque
from typing import Any, Callable, Deque, Iterator, List, Optional, Sequence, Tuple

#: The recognised shedding policies.
POLICIES = ("drop_tail", "drop_oldest", "priority_by_selectivity")


class BoundedQueue:
    """FIFO queue with a capacity and a shedding policy.

    ``capacity=None`` means unbounded (``offer`` never sheds) — the
    uncontrolled baseline the overload experiments compare against.
    ``priority`` maps an item to a number (higher = keep longer); it is
    only consulted by ``priority_by_selectivity`` and is evaluated once
    per item, at admission.
    """

    __slots__ = ("capacity", "policy", "priority", "_items", "_priorities")

    def __init__(
        self,
        capacity: Optional[int],
        policy: str = "drop_tail",
        priority: Optional[Callable[[Any], float]] = None,
    ):
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        if policy not in POLICIES:
            raise ValueError(f"unknown shedding policy {policy!r}; have {POLICIES}")
        self.capacity = capacity
        self.policy = policy
        self.priority = priority
        self._items: Deque[Any] = deque()
        self._priorities: Optional[Deque[float]] = (
            deque() if policy == "priority_by_selectivity" else None
        )

    def offer(
        self, item: Any, capacity: Optional[int] = None
    ) -> Tuple[bool, List[Any]]:
        """Try to enqueue ``item``; returns ``(accepted, shed_items)``.

        ``capacity`` overrides the configured bound for this call (the
        overload detector shrinks a broker's effective capacity while it
        is in shedding mode).
        """
        limit = self.capacity if capacity is None else capacity
        if limit is None or len(self._items) < limit:
            self._append(item)
            return True, []
        if self.policy == "drop_tail":
            return False, [item]
        if self.policy == "drop_oldest":
            shed = self._pop_index(0)
            self._append(item)
            return True, [shed]
        # priority_by_selectivity: evict the lowest-priority entry; the
        # arrival itself loses ties against the queue (oldest-first scan
        # already prefers evicting older equal-priority entries).
        arriving = self.priority(item) if self.priority is not None else 0.0
        assert self._priorities is not None
        victim_index = 0
        victim_priority = self._priorities[0]
        for index, value in enumerate(self._priorities):
            if value < victim_priority:
                victim_index = index
                victim_priority = value
        if arriving <= victim_priority:
            return False, [item]
        shed = self._pop_index(victim_index)
        self._append(item, arriving)
        return True, [shed]

    def extend(
        self, items: Sequence[Any], capacity: Optional[int] = None
    ) -> List[Any]:
        """:meth:`offer` each item in order; returns everything shed.

        An unbounded queue without priorities takes the run in one
        ``deque.extend`` (the admission hot path of an uncontrolled
        broker).
        """
        if capacity is None and self.capacity is None and self._priorities is None:
            self._items.extend(items)
            return []
        shed: List[Any] = []
        for item in items:
            shed.extend(self.offer(item, capacity)[1])
        return shed

    def popleft(self) -> Any:
        item = self._items.popleft()
        if self._priorities is not None:
            self._priorities.popleft()
        return item

    def drain(self) -> List[Any]:
        """Remove and return everything (e.g. sheds on a peer reset)."""
        items = list(self._items)
        self.clear()
        return items

    def clear(self) -> None:
        self._items.clear()
        if self._priorities is not None:
            self._priorities.clear()

    def _append(self, item: Any, priority: Optional[float] = None) -> None:
        self._items.append(item)
        if self._priorities is not None:
            if priority is None:
                priority = self.priority(item) if self.priority is not None else 0.0
            self._priorities.append(priority)

    def _pop_index(self, index: int) -> Any:
        if index == 0:
            return self.popleft()
        item = self._items[index]
        del self._items[index]
        if self._priorities is not None:
            del self._priorities[index]
        return item

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._items)

    def __repr__(self) -> str:
        bound = "inf" if self.capacity is None else str(self.capacity)
        return f"BoundedQueue({len(self._items)}/{bound}, {self.policy})"
