"""Per-class reflection plans.

``reflect_attributes`` discovers a class's accessors and properties once,
when the class's first event is reflected, and reads every later event of
that class through the stored plan.  These cases pin the discovery rules
the plan must keep: ``dir()`` order, both accessor spellings, the
zero-required-argument check, accessors winning over properties, and
underscore names never being read.
"""

import inspect

from repro.events.typed import reflect_attributes


class Quote:
    def __init__(self, price, symbol="ACME"):
        self._price_value = price
        self._symbol = symbol
        self.private_reads = 0

    # ``getPrice`` sorts before ``get_price`` in dir(), so it wins.
    def getPrice(self):
        return self._price_value

    def get_price(self):
        return -1.0

    @property
    def volume(self):
        return 32300

    # An accessor already supplies ``symbol``: the property is not read.
    def get_symbol(self):
        return self._symbol

    @property
    def symbol(self):
        return "from-property"

    def get_scaled(self, factor):
        return self._price_value * factor

    def get_rounded(self, digits=1):
        return round(self._price_value, digits)

    @staticmethod
    def get_exchange():
        return "NYSE"

    @property
    def _private(self):
        self.private_reads += 1
        return "secret"


class LondonQuote(Quote):
    @staticmethod
    def get_exchange():
        return "LSE"


def test_plan_applies_every_discovery_rule():
    quote = Quote(10.26)
    assert reflect_attributes(quote) == {
        "exchange": "NYSE",
        "price": 10.26,
        "rounded": 10.3,
        "symbol": "ACME",
        "volume": 32300,
    }
    assert quote.private_reads == 0


def test_values_are_read_live_per_event():
    reflect_attributes(Quote(1.0))
    assert reflect_attributes(Quote(2.04, symbol="XYZ")) == {
        "exchange": "NYSE",
        "price": 2.04,
        "rounded": 2.0,
        "symbol": "XYZ",
        "volume": 32300,
    }


def test_attribute_order_is_accessors_then_properties():
    # dir() order of the accessors (``getPrice`` sorts first), then the
    # properties.
    assert list(reflect_attributes(Quote(3.0))) == [
        "price",
        "exchange",
        "rounded",
        "symbol",
        "volume",
    ]


def test_subclass_overriding_an_accessor_gets_its_own_plan():
    assert reflect_attributes(Quote(5.0))["exchange"] == "NYSE"
    assert reflect_attributes(LondonQuote(5.0)) == {
        "exchange": "LSE",
        "price": 5.0,
        "rounded": 5.0,
        "symbol": "ACME",
        "volume": 32300,
    }
    assert reflect_attributes(Quote(5.0))["exchange"] == "NYSE"


def test_signature_is_inspected_only_for_a_class_first_event(monkeypatch):
    class Tick:
        def __init__(self, n):
            self._n = n

        def get_n(self):
            return self._n

        def get_label(self, prefix="t"):
            return f"{prefix}{self._n}"

    calls = []
    real_signature = inspect.signature

    def counting_signature(obj, *args, **kwargs):
        calls.append(obj)
        return real_signature(obj, *args, **kwargs)

    monkeypatch.setattr(inspect, "signature", counting_signature)
    assert reflect_attributes(Tick(0)) == {"label": "t0", "n": 0}
    first_event_calls = len(calls)
    assert first_event_calls > 0
    for n in range(1, 100):
        assert reflect_attributes(Tick(n)) == {"label": f"t{n}", "n": n}
    assert len(calls) == first_event_calls
