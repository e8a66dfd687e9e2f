"""Typed events and reflection-based meta-data extraction (Section 3.4).

The paper's convention: *"for each attribute (used for filtering), the
type offers an access method (used for expressing filters), whose name
corresponds to the attribute's name prefixed with ``get``"*.  The event
system uses reflection to extract these attributes into the low-level
:class:`~repro.events.base.PropertyEvent` representation that brokers
filter on — without ever executing application code on broker nodes.

Both Java-style (``getSymbol``) and Python-style (``get_symbol``)
accessor names are recognised, as are read-only ``property`` members.
Methods taking parameters are deliberately ignored: per the paper, such
behaviour is "only applied locally" (residual predicates, see
:mod:`repro.events.closures`), never used for routing.
"""

import inspect
import weakref
from typing import Any, Dict, Optional, Tuple, Type

from repro.events.base import CLASS_ATTRIBUTE, PropertyEvent


class TypedEvent:
    """Optional convenience base class for application event types.

    Subclassing is *not* required for reflection — any object following
    the accessor convention works — but the base class gives events a
    uniform ``repr`` and a direct ``to_property_event`` shortcut.
    """

    def attributes(self) -> Dict[str, Any]:
        """The reflected attribute dictionary of this event."""
        return reflect_attributes(self)

    def to_property_event(self, class_name: Optional[str] = None) -> PropertyEvent:
        """The covering low-level representation of this event."""
        return to_property_event(self, class_name=class_name)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in sorted(self.attributes().items()))
        return f"{type(self).__name__}({inner})"


def _accessor_attribute_name(method_name: str) -> Optional[str]:
    """Map an accessor method name to its attribute name, or None.

    ``get_symbol`` -> ``symbol``; ``getSymbol`` -> ``symbol``; anything
    else (including plain ``get``) -> None.
    """
    if method_name.startswith("get_") and len(method_name) > 4:
        return method_name[4:]
    if (
        method_name.startswith("get")
        and len(method_name) > 3
        and method_name[3].isupper()
    ):
        return method_name[3].lower() + method_name[4:]
    return None


def _takes_no_arguments(method: Any) -> bool:
    """True for bound methods callable without arguments."""
    try:
        signature = inspect.signature(method)
    except (TypeError, ValueError):
        return False
    for parameter in signature.parameters.values():
        if parameter.default is inspect.Parameter.empty and parameter.kind in (
            inspect.Parameter.POSITIONAL_ONLY,
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
            inspect.Parameter.KEYWORD_ONLY,
        ):
            return False
    return True


#: A class's reflection plan: ``(attribute, accessor name)`` pairs in
#: discovery order, then the names of the properties it reflects.
_Plan = Tuple[Tuple[Tuple[str, str], ...], Tuple[str, ...]]

#: Plans by event class, built when a class's first event is reflected.
#: Weak keys, so a class that goes away takes its plan with it.
_PLANS: "weakref.WeakKeyDictionary[type, _Plan]" = weakref.WeakKeyDictionary()


def _reflection_plan(event: Any) -> _Plan:
    """Discover which members of ``type(event)`` carry attributes.

    Discovery order (later sources do not override earlier ones):

    1. zero-argument accessor methods named ``get_<attr>`` / ``get<Attr>``,
       in ``dir()`` order;
    2. read-only ``property`` members of the class.

    Underscore-prefixed names are skipped.  The plan names members only;
    building it calls no accessor.
    """
    cls = type(event)
    accessors = []
    seen = set()
    for name in dir(cls):
        if name.startswith("_"):
            continue
        attribute = _accessor_attribute_name(name)
        if attribute is None or attribute in seen:
            continue
        member = getattr(event, name, None)
        if callable(member) and _takes_no_arguments(member):
            accessors.append((attribute, name))
            seen.add(attribute)
    properties = tuple(
        name
        for name in dir(cls)
        if not name.startswith("_")
        and name not in seen
        and isinstance(getattr(cls, name, None), property)
    )
    return tuple(accessors), properties


def reflect_attributes(event: Any) -> Dict[str, Any]:
    """Extract the filterable attributes of an event object.

    Which members to read comes from the class's reflection plan
    (:func:`_reflection_plan`), built when the class's first event is
    reflected; the values are read live from this event.  Private state
    (underscore-prefixed) is never read directly — only through
    accessors, preserving encapsulation exactly as the paper's
    reflection scheme does.
    """
    cls = type(event)
    plan = _PLANS.get(cls)
    if plan is None:
        plan = _PLANS[cls] = _reflection_plan(event)
    accessors, properties = plan
    attributes = {attribute: getattr(event, name)() for attribute, name in accessors}
    for name in properties:
        attributes[name] = getattr(event, name)
    return attributes


def to_property_event(
    event: Any, class_name: Optional[str] = None
) -> PropertyEvent:
    """Transform an event object into its covering property representation.

    The result carries the reserved ``class`` attribute (the event's type
    name, or ``class_name`` when given — the registry passes the
    registered name) plus every reflected attribute.  This is the event
    transformation of Section 3.3 applied at the publisher boundary.
    """
    if isinstance(event, PropertyEvent):
        return event
    properties = reflect_attributes(event)
    properties[CLASS_ATTRIBUTE] = class_name or type(event).__name__
    return PropertyEvent(properties)


def event_type_of(event: Any) -> Type:
    """The Python class of a typed event (helper for the registry)."""
    return type(event)
