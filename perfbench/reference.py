"""Expected deliveries, computed without brokers, and the comparison.

Every subscription that is active when an event is published is
evaluated directly on the event's attributes with ``Filter.matches``
(the filter's own Definition-1 semantics, no routing, no match engine).
A delivery is the pair ``(subscription id, event sequence number)``; the
program's deliveries must equal the expected ones as a multiset.
"""

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Tuple

from repro.filters.filter import Filter
from repro.filters.operators import EQ


@dataclass
class ActiveSubscription:
    """A subscription and the event sequence numbers it is active for
    (``start <= seq < end``)."""

    subscription_id: int
    filter: Filter
    start: int = 0
    end: int = 1 << 62


def _bucket_key(filter_: Filter, attribute: str) -> Optional[Hashable]:
    """The operand of the filter's equality constraint on ``attribute``,
    or None when it has none.  Used only to skip filters that cannot
    match (an event whose value differs fails that constraint)."""
    for constraint in filter_.constraints:
        if constraint.attribute == attribute and constraint.operator is EQ:
            return constraint.operand
    return None


def expected_deliveries(
    subscriptions: Iterable[ActiveSubscription],
    events: Iterable[Tuple[int, Mapping]],
    bucket_attribute: str,
) -> Counter:
    """Multiset of ``(subscription id, seq)`` the events should produce.

    ``events`` yields ``(seq, attributes)``.  Filters are grouped by
    their equality operand on ``bucket_attribute`` so each event is only
    tested against filters that can accept it; every candidate is then
    decided by ``Filter.matches``.
    """
    buckets: Dict[Hashable, List[ActiveSubscription]] = {}
    for active in subscriptions:
        key = _bucket_key(active.filter, bucket_attribute)
        buckets.setdefault(key, []).append(active)
    anywhere = buckets.get(None, [])
    expected: Counter = Counter()
    for seq, attributes in events:
        bucket = buckets.get(attributes.get(bucket_attribute), [])
        for candidates in (bucket, anywhere):
            for active in candidates:
                if active.start <= seq < active.end and active.filter.matches(
                    attributes
                ):
                    expected[(active.subscription_id, seq)] += 1
    return expected


@dataclass
class Mismatch:
    """Delivery errors of one round, by kind."""

    missing: int = 0
    duplicate: int = 0
    spurious: int = 0
    #: Derived events whose values differ from the reference.
    wrong_value: int = 0

    @property
    def total(self) -> int:
        return self.missing + self.duplicate + self.spurious + self.wrong_value

    def add(self, other: "Mismatch") -> None:
        self.missing += other.missing
        self.duplicate += other.duplicate
        self.spurious += other.spurious
        self.wrong_value += other.wrong_value


def compare(expected: Counter, delivered: Counter) -> Mismatch:
    """Classify the difference between two delivery multisets."""
    mismatch = Mismatch()
    for key in expected.keys() | delivered.keys():
        want = expected.get(key, 0)
        got = delivered.get(key, 0)
        if got < want:
            mismatch.missing += want - got
        elif got > want:
            if want:
                mismatch.duplicate += got - want
            else:
                mismatch.spurious += got
    return mismatch


def window_rollups(
    readings: Iterable[Tuple[float, str, float]], window: float
) -> Dict[Tuple[str, int], Tuple[int, float]]:
    """Per-(region, window index) reading count and average.

    ``readings`` yields ``(time, region, reading)`` in publish order; the
    sum runs in the same order the broker accumulates in.
    """
    sums: Dict[Tuple[str, int], List] = {}
    for time, region, value in readings:
        key = (region, int(time // window))
        acc = sums.setdefault(key, [0, 0.0])
        acc[0] += 1
        acc[1] += value
    return {key: (n, total / n) for key, (n, total) in sums.items()}


def compare_rollups(
    expected: Mapping[Tuple[str, int], Tuple[int, float]],
    received: Iterable[Tuple[str, int, int, float]],
    tolerance: float = 1e-9,
) -> Mismatch:
    """Check one dashboard's rollups ``(region, window index, n, avg)``
    against the reference for the regions it watches."""
    mismatch = Mismatch()
    seen: Counter = Counter()
    for region, index, n, avg in received:
        key = (region, index)
        seen[key] += 1
        if key not in expected:
            mismatch.spurious += 1
        elif seen[key] > 1:
            mismatch.duplicate += 1
        else:
            want_n, want_avg = expected[key]
            if n != want_n or abs(avg - want_avg) > tolerance * max(1.0, abs(want_avg)):
                mismatch.wrong_value += 1
    mismatch.missing += sum(1 for key in expected if key not in seen)
    return mismatch
