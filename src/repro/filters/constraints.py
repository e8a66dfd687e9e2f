"""Attribute constraints — the name-value-operator tuples of the paper.

A constraint such as ``(price, 5.0, >)`` is modelled by
:class:`AttributeConstraint`.  Besides evaluation, this module implements
*conjunction implication*: deciding whether a set of constraints on one
attribute guarantees another constraint on that attribute.  That is the
per-attribute core of filter covering (Definition 2).

Two proof strategies are combined:

1. pairwise — some single constraint implies the target
   (:meth:`Operator.implies`);
2. interval analysis — ordering/equality constraints are condensed into
   an interval whose bounds are checked against the target, which proves
   facts like ``(price > 5 and price < 10)  implies  (price < 12)`` that
   no single constraint proves alone.
"""

from dataclasses import dataclass, field
from typing import Any, Iterable, Optional, Tuple

from repro.filters.operators import (
    ALL,
    EQ,
    EXISTS,
    GE,
    GT,
    LE,
    LT,
    NE,
    Operator,
    values_comparable,
)


@dataclass(frozen=True)
class AttributeConstraint:
    """A single constraint on one attribute: ``attribute operator operand``.

    ``operand`` is ignored (and should be ``None``) for the nullary
    operators ``EXISTS`` and ``ALL``.

    >>> from repro.filters.operators import GT
    >>> c = AttributeConstraint("price", GT, 5.0)
    >>> c.matches_value(10.0, present=True)
    True
    >>> c.matches_value(3.0, present=True)
    False
    """

    attribute: str
    operator: Operator
    operand: Any = field(default=None)

    def __post_init__(self) -> None:
        if self.operator.nullary and self.operand is not None:
            raise ValueError(
                f"operator {self.operator.symbol!r} takes no operand, "
                f"got {self.operand!r}"
            )

    @property
    def is_wildcard(self) -> bool:
        """True for the ``(attr, ALL)`` wildcard constraints of §4.4."""
        return self.operator is ALL

    def matches_value(self, value: Any, present: bool) -> bool:
        """Evaluate against one attribute value."""
        return self.operator.evaluate(value, self.operand, present)

    def matches(self, properties: Any) -> bool:
        """Evaluate against a mapping of attribute name to value."""
        present = self.attribute in properties
        value = properties[self.attribute] if present else None
        return self.operator.evaluate(value, self.operand, present)

    def implies(self, other: "AttributeConstraint") -> bool:
        """Sound check: every value satisfying ``self`` satisfies ``other``.

        Constraints on different attributes never imply each other (the
        conjunction level handles cross-attribute structure).
        """
        if self.attribute != other.attribute:
            return False
        return self.operator.implies(self.operand, other.operator, other.operand)

    def __str__(self) -> str:
        if self.operator.nullary:
            return f"({self.attribute}, {self.operator.symbol})"
        return f"({self.attribute}, {self.operand!r}, {self.operator.symbol})"


class _Interval:
    """Interval abstraction of ordering/equality constraints on one attribute."""

    def __init__(self) -> None:
        self.lower: Optional[Tuple[Any, bool]] = None  # (value, strict)
        self.upper: Optional[Tuple[Any, bool]] = None
        self.equal: Optional[Any] = None
        self.has_eq = False
        self.unsatisfiable = False

    def _tighten_lower(self, value: Any, strict: bool) -> None:
        if self.lower is None:
            self.lower = (value, strict)
            return
        cur, cur_strict = self.lower
        if not values_comparable(cur, value):
            return
        if value > cur or (value == cur and strict and not cur_strict):
            self.lower = (value, strict)

    def _tighten_upper(self, value: Any, strict: bool) -> None:
        if self.upper is None:
            self.upper = (value, strict)
            return
        cur, cur_strict = self.upper
        if not values_comparable(cur, value):
            return
        if value < cur or (value == cur and strict and not cur_strict):
            self.upper = (value, strict)

    def add(self, constraint: AttributeConstraint) -> bool:
        """Fold one constraint in; returns False when not representable."""
        op, x = constraint.operator, constraint.operand
        if op is EQ:
            if self.has_eq and not (
                values_comparable(self.equal, x) and self.equal == x
            ):
                self.unsatisfiable = True
            self.has_eq = True
            self.equal = x
            self._tighten_lower(x, strict=False)
            self._tighten_upper(x, strict=False)
            return True
        if op is LT:
            self._tighten_upper(x, strict=True)
            return True
        if op is LE:
            self._tighten_upper(x, strict=False)
            return True
        if op is GT:
            self._tighten_lower(x, strict=True)
            return True
        if op is GE:
            self._tighten_lower(x, strict=False)
            return True
        return False

    def _check_empty(self) -> None:
        if self.lower is None or self.upper is None:
            return
        lo, lo_strict = self.lower
        hi, hi_strict = self.upper
        if not values_comparable(lo, hi):
            return
        if lo > hi or (lo == hi and (lo_strict or hi_strict)):
            self.unsatisfiable = True

    def guarantees(self, target: AttributeConstraint) -> bool:
        """Sound check that every value in the interval satisfies ``target``."""
        self._check_empty()
        if self.unsatisfiable:
            # Empty set of values: implication holds vacuously.
            return True
        op, y = target.operator, target.operand
        if op is ALL:
            return True
        if op is EXISTS:
            # Reaching the interval path means some ordering/equality
            # constraint exists, so any satisfying value is present.
            return self.lower is not None or self.upper is not None
        if self.has_eq:
            return target.matches_value(self.equal, present=True)
        if op is LT or op is LE:
            if self.upper is None:
                return False
            hi, strict = self.upper
            if not values_comparable(hi, y):
                return False
            if op is LT:
                return hi < y or (hi == y and strict)
            return hi <= y
        if op is GT or op is GE:
            if self.lower is None:
                return False
            lo, strict = self.lower
            if not values_comparable(lo, y):
                return False
            if op is GT:
                return lo > y or (lo == y and strict)
            return lo >= y
        if op is NE:
            if self.upper is not None:
                hi, strict = self.upper
                if values_comparable(hi, y) and (y > hi or (y == hi and strict)):
                    return True
            if self.lower is not None:
                lo, strict = self.lower
                if values_comparable(lo, y) and (y < lo or (y == lo and strict)):
                    return True
            return False
        if op is EQ:
            if self.lower is None or self.upper is None:
                return False
            lo, lo_strict = self.lower
            hi, hi_strict = self.upper
            return (
                not lo_strict
                and not hi_strict
                and values_comparable(lo, hi)
                and lo == hi
                and values_comparable(lo, y)
                and lo == y
            )
        return False


def conjunction_implies(
    constraints: Iterable[AttributeConstraint], target: AttributeConstraint
) -> bool:
    """Sound check that a conjunction of same-attribute constraints implies
    ``target``.

    Used by :meth:`repro.filters.filter.Filter.covers`: the covering filter's
    constraint ``target`` must be guaranteed by the covered filter's
    constraints on the same attribute.
    """
    constraints = [c for c in constraints if c.attribute == target.attribute]
    if target.operator is ALL:
        return True
    for constraint in constraints:
        if constraint.implies(target):
            return True
    # Interval proof from the ordering/equality subset.  Dropping the
    # non-representable constraints only *widens* the interval, so a proof
    # from the subset remains sound for the full conjunction.
    interval = _Interval()
    added_any = False
    for constraint in constraints:
        if interval.add(constraint):
            added_any = True
    return added_any and interval.guarantees(target)
