"""Filter and event weakening (Section 3.3 and 4.1).

Two weakening mechanisms appear in the paper:

1. **Attribute removal** (the automated scheme of §4.1): at stage ``i``
   keep only the constraints on ``A_i``, the stage's attribute set from
   the ``Gc`` association.  Removing conjuncts can only weaken a
   conjunction, so the result covers the original (Proposition 1 holds by
   construction).
2. **Bound relaxation / covering merges** (§4's Example 5, where ``g1``
   covers both ``f1`` and ``f2``): several filters that agree on all
   non-ordering constraints collapse into one filter whose ordering
   bounds are the weakest among them.

Event weakening (Proposition 2) is attribute removal on the property
representation; :func:`weaken_event` mirrors :func:`weaken_filter` so
that transformed events cover originals for every transformed filter.
"""

from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.stages import AttributeStageAssociation
from repro.events.base import PropertyEvent
from repro.filters.constraints import AttributeConstraint
from repro.filters.filter import Filter
from repro.filters.operators import GE, GT, LE, LT, values_comparable
from repro.filters.standard import standardize


def weaken_filter(
    filter_: Filter,
    association: AttributeStageAssociation,
    stage: int,
    keep_wildcards: bool = False,
) -> Filter:
    """Weaken a (standard-form) filter for use at ``stage``.

    Constraints on attributes outside ``A_stage`` are removed; the result
    covers ``filter_`` (Proposition 1).  Wildcard (``ALL``) constraints
    are dropped by default — they carry no selectivity — unless
    ``keep_wildcards`` asks for the positional standard form.

    >>> from repro.filters import parse_filter
    >>> assoc = AttributeStageAssociation.uniform(
    ...     ["class", "symbol", "price"], stages=3)
    >>> f1 = parse_filter('class = "Stock" and symbol = "DEF" and price < 10.0')
    >>> str(weaken_filter(f1, assoc, stage=1))
    "(class, 'Stock', =) (symbol, 'DEF', =)"
    >>> str(weaken_filter(f1, assoc, stage=2))
    "(class, 'Stock', =)"
    """
    if filter_.matches_nothing:
        return filter_
    weakened = filter_.restricted_to(association.attributes_for_stage(stage))
    if not keep_wildcards:
        weakened = weakened.without_wildcards()
    return weakened


def weakening_chain(
    filter_: Filter,
    association: AttributeStageAssociation,
    schema_standardize: bool = True,
) -> List[Filter]:
    """The full ladder of weakened filters, stage 0 up to the top stage.

    Element ``i`` is the filter a stage-``i`` location uses; element 0 is
    the (standardized) original.  Each element covers all elements below
    it, which the property tests assert.
    """
    if schema_standardize and not filter_.matches_nothing:
        filter_ = standardize(filter_, association.schema, strict=False)
    return [
        weaken_filter(filter_, association, stage)
        for stage in range(association.num_stages)
    ]


def weaken_event(
    event: PropertyEvent,
    association: AttributeStageAssociation,
    stage: int,
) -> PropertyEvent:
    """Weaken an event's property representation for ``stage``.

    Keeps exactly the attributes stage-``stage`` filters may test, so the
    result covers the original for every filter weakened to that stage
    (Proposition 2): those filters never probe removed attributes.
    """
    return event.restricted_to(association.attributes_for_stage(stage))


_UPPER_OPS = (LT, LE)
_LOWER_OPS = (GT, GE)


def _split_for_merge(
    filter_: Filter,
) -> Optional[Tuple[Tuple[AttributeConstraint, ...], Dict[str, List[AttributeConstraint]]]]:
    """Split a filter into (rigid constraints, per-attribute ordering bounds).

    Returns None for filters the merge cannot handle (fF).
    """
    if filter_.matches_nothing:
        return None
    rigid: List[AttributeConstraint] = []
    bounds: Dict[str, List[AttributeConstraint]] = {}
    for constraint in filter_.constraints:
        if constraint.operator in _UPPER_OPS or constraint.operator in _LOWER_OPS:
            bounds.setdefault(constraint.attribute, []).append(constraint)
        else:
            rigid.append(constraint)
    return tuple(rigid), bounds


def _weakest_bound(
    constraints: List[AttributeConstraint], upper: bool
) -> Optional[AttributeConstraint]:
    """The single weakest upper (or lower) bound among ``constraints``.

    Returns None when any pair is incomparable or when no bound of the
    requested direction exists — meaning that direction is unbounded in
    at least one filter, so the merge must drop it entirely.
    """
    side = [c for c in constraints if (c.operator in _UPPER_OPS) == upper]
    if not side:
        return None
    weakest = side[0]
    for candidate in side[1:]:
        # The filters' own notion of comparable, not Python's: False < 1
        # holds in Python, but no ordering constraint relates the two.
        if not values_comparable(candidate.operand, weakest.operand):
            return None
        if upper:
            looser = candidate.operand > weakest.operand or (
                candidate.operand == weakest.operand and candidate.operator is LE
            )
        else:
            looser = candidate.operand < weakest.operand or (
                candidate.operand == weakest.operand and candidate.operator is GE
            )
        if looser:
            weakest = candidate
    return weakest


def merge_covering(filters: Iterable[Filter]) -> List[Filter]:
    """Collapse filters into fewer covering filters (Example 5's g1).

    Filters that share identical *rigid* constraints (everything except
    ``<``, ``<=``, ``>``, ``>=`` bounds) merge into a single filter whose
    per-attribute bounds are the weakest of the group — and a bound
    direction missing from *any* member is dropped from the merge, since
    that member accepts arbitrarily large/small values there.

    Every input filter is covered by some output filter; the output is
    never larger than the input.

    >>> from repro.filters import parse_filter
    >>> merged = merge_covering([
    ...     parse_filter('symbol = "DEF" and price < 10.0'),
    ...     parse_filter('symbol = "DEF" and price < 11.0'),
    ... ])
    >>> [str(f) for f in merged]
    ["(symbol, 'DEF', =) (price, 11.0, <)"]
    """
    groups: Dict[Tuple[AttributeConstraint, ...], List[Filter]] = {}
    passthrough: List[Filter] = []
    for filter_ in filters:
        split = _split_for_merge(filter_)
        if split is None:
            passthrough.append(filter_)
            continue
        rigid, _ = split
        groups.setdefault(rigid, []).append(filter_)

    merged: List[Filter] = []
    for rigid, members in groups.items():
        if len(members) == 1:
            merged.append(members[0])
            continue
        per_attribute: Dict[str, List[List[AttributeConstraint]]] = {}
        for member in members:
            _, bounds = _split_for_merge(member)  # type: ignore[misc]
            for attribute, constraints in bounds.items():
                per_attribute.setdefault(attribute, []).append(constraints)
        combined: List[AttributeConstraint] = list(rigid)
        for attribute, member_bounds in per_attribute.items():
            if len(member_bounds) != len(members):
                # Some member has no bound at all on this attribute:
                # the merge must not constrain it.
                continue
            for upper in (True, False):
                directional = [
                    [c for c in constraints if (c.operator in _UPPER_OPS) == upper]
                    for constraints in member_bounds
                ]
                if any(not group for group in directional):
                    continue
                weakest_per_member = [
                    _weakest_bound(group, upper) for group in directional
                ]
                # Within one member, multiple same-direction bounds form a
                # conjunction; the *strongest* represents it.  Taking the
                # weakest instead stays sound (it covers the conjunction).
                if any(bound is None for bound in weakest_per_member):
                    continue
                overall = _weakest_bound(
                    [b for b in weakest_per_member if b is not None], upper
                )
                if overall is not None:
                    combined.append(overall)
        merged.append(Filter(combined))
    merged.extend(passthrough)
    return merged
