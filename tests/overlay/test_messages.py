"""Wire messages are immutable.

``Network.send`` sizes a message object once and reuses the size while
consecutive sends carry the same object, which is only sound when no
message can change after it is built.
"""

import dataclasses
import inspect

from repro.overlay import messages


def test_all_wire_messages_are_frozen():
    classes = [
        cls
        for _, cls in inspect.getmembers(messages, inspect.isclass)
        if cls.__module__ == messages.__name__ and dataclasses.is_dataclass(cls)
    ]
    assert len(classes) >= 20
    mutable = [cls.__name__ for cls in classes if not cls.__dataclass_params__.frozen]
    assert mutable == []
