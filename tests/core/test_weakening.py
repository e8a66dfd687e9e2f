"""Unit tests for filter/event weakening and covering merges (§3.3, §4.1)."""

from repro.core.stages import AttributeStageAssociation
from repro.core.weakening import (
    merge_covering,
    weaken_event,
    weaken_filter,
    weakening_chain,
)
from repro.events.base import PropertyEvent
from repro.filters.filter import Filter
from repro.filters.parser import parse_filter

SCHEMA = ("class", "symbol", "price")
ASSOC = AttributeStageAssociation.from_prefixes(SCHEMA, [3, 2, 1])

F1 = parse_filter('class = "Stock" and symbol = "DEF" and price < 10.0')


class TestWeakenFilter:
    def test_stage_zero_is_identity(self):
        assert weaken_filter(F1, ASSOC, 0) == F1

    def test_stage_one_drops_price(self):
        weakened = weaken_filter(F1, ASSOC, 1)
        assert weakened.attributes() == ["class", "symbol"]

    def test_stage_two_keeps_only_class(self):
        weakened = weaken_filter(F1, ASSOC, 2)
        assert weakened.attributes() == ["class"]

    def test_every_weakening_covers_the_original(self):
        for stage in range(3):
            assert weaken_filter(F1, ASSOC, stage).covers(F1)

    def test_wildcards_dropped_by_default(self):
        f = parse_filter('class = "Stock" and symbol = *')
        weakened = weaken_filter(f, ASSOC, 1)
        assert weakened.attributes() == ["class"]

    def test_wildcards_kept_on_request(self):
        f = parse_filter('class = "Stock" and symbol = *')
        weakened = weaken_filter(f, ASSOC, 1, keep_wildcards=True)
        assert weakened.attributes() == ["class", "symbol"]

    def test_bottom_passes_through(self):
        assert weaken_filter(Filter.bottom(), ASSOC, 1).is_bottom


class TestWeakeningChain:
    def test_chain_length_equals_stages(self):
        chain = weakening_chain(F1, ASSOC)
        assert len(chain) == 3

    def test_chain_is_monotonically_weaker(self):
        chain = weakening_chain(F1, ASSOC)
        for higher in range(len(chain)):
            for lower in range(higher):
                assert chain[higher].covers(chain[lower])

    def test_chain_standardizes_partial_filters(self):
        partial = parse_filter('class = "Stock" and price < 10')
        chain = weakening_chain(partial, ASSOC)
        # Stage 0 holds the standard form with wildcards stripped (a
        # matching-equivalent filter): schema order, symbol dropped.
        assert chain[0].attributes() == ["class", "price"]
        assert chain[0].covers(partial) and partial.covers(chain[0])

    def test_chain_without_standardization(self):
        partial = parse_filter('class = "Stock" and price < 10')
        chain = weakening_chain(partial, ASSOC, schema_standardize=False)
        assert chain[0] == partial


class TestWeakenEvent:
    def test_keeps_stage_attributes_only(self):
        event = PropertyEvent({"class": "Stock", "symbol": "DEF", "price": 9.0})
        weakened = weaken_event(event, ASSOC, 1)
        assert dict(weakened) == {"class": "Stock", "symbol": "DEF"}

    def test_proposition2_coordination(self):
        """Weakened events cover originals for every same-stage-weakened
        filter: the stage-s filter never probes attributes the stage-s
        event dropped."""
        event = PropertyEvent({"class": "Stock", "symbol": "DEF", "price": 9.0})
        for stage in range(3):
            f_weak = weaken_filter(F1, ASSOC, stage)
            e_weak = weaken_event(event, ASSOC, stage)
            assert f_weak.matches(e_weak) == f_weak.matches(event)


class TestMergeCovering:
    def test_example5_g1_merge(self):
        """f1 and f2 of Example 5 merge into g1 (the weaker price bound)."""
        f1 = parse_filter('class = "Stock" and symbol = "DEF" and price < 10.0')
        f2 = parse_filter('class = "Stock" and symbol = "DEF" and price < 11.0')
        merged = merge_covering([f1, f2])
        assert len(merged) == 1
        g1 = merged[0]
        assert g1.covers(f1) and g1.covers(f2)
        assert g1.constraints_on("price")[0].operand == 11.0

    def test_different_rigid_parts_do_not_merge(self):
        f1 = parse_filter('symbol = "DEF" and price < 10')
        f3 = parse_filter('symbol = "GHI" and price < 8')
        assert len(merge_covering([f1, f3])) == 2

    def test_lower_bounds_take_the_loosest(self):
        a = parse_filter('symbol = "X" and price > 5')
        b = parse_filter('symbol = "X" and price > 2')
        merged = merge_covering([a, b])
        assert len(merged) == 1
        assert merged[0].constraints_on("price")[0].operand == 2

    def test_two_sided_bounds(self):
        a = parse_filter('symbol = "X" and price > 2 and price < 10')
        b = parse_filter('symbol = "X" and price > 4 and price < 12')
        merged = merge_covering([a, b])
        assert len(merged) == 1
        assert merged[0].covers(a) and merged[0].covers(b)

    def test_member_without_bound_drops_the_bound(self):
        bounded = parse_filter('symbol = "X" and price < 10')
        unbounded = parse_filter('symbol = "X"')
        merged = merge_covering([bounded, unbounded])
        assert len(merged) == 1
        assert merged[0].constraints_on("price") == ()
        assert merged[0].covers(bounded) and merged[0].covers(unbounded)

    def test_le_at_equal_value_is_weaker_than_lt(self):
        lt = parse_filter('symbol = "X" and price < 10')
        le = parse_filter('symbol = "X" and price <= 10')
        merged = merge_covering([lt, le])
        assert len(merged) == 1
        assert merged[0].covers(lt) and merged[0].covers(le)
        constraint = merged[0].constraints_on("price")[0]
        assert constraint.operator.symbol == "<="

    def test_incomparable_bounds_dropped_not_crashed(self):
        numeric = parse_filter('symbol = "X" and price < 10')
        stringy = parse_filter('symbol = "X" and price < "ten"')
        merged = merge_covering([numeric, stringy])
        assert len(merged) == 1
        assert merged[0].covers(numeric) and merged[0].covers(stringy)

    def test_boolean_and_numeric_bounds_are_incomparable(self):
        # False < 1 in Python, but filters never order a boolean against
        # a number: merging into (a < 1) used to lose the event a=False.
        numeric = parse_filter("a < 1")
        boolean = parse_filter("a <= false")
        event = PropertyEvent(a=False)
        assert boolean.matches(event)
        merged = merge_covering([numeric, boolean])
        assert any(m.matches(event) for m in merged)
        assert all(m.covers(numeric) or m.covers(boolean) for m in merged)

    def test_bottom_passes_through(self):
        merged = merge_covering([Filter.bottom(), parse_filter("a = 1")])
        assert Filter.bottom() in merged

    def test_empty_input(self):
        assert merge_covering([]) == []

    def test_identical_filters_merge_to_one(self):
        f = parse_filter('symbol = "X" and price < 10')
        assert len(merge_covering([f, f, f])) == 1
