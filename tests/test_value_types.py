"""The engine's small value types: frozen, slotted, compared by value."""

import dataclasses

import pytest

import listcolor as lc


def _chain():
    return lc.Chain((3, 1, 4), (0, 5, 6, 7))


# (constructor of a fresh instance, a field to try to set)
VALUES = {
    "Chain": (_chain, "edges"),
}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_value_type_is_frozen_slotted_and_compared_by_value(name):
    make, field = VALUES[name]
    a, b = make(), make()
    assert a is not b
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(a, field, getattr(b, field))
    assert a == b
    assert hash(a) == hash(b)
    assert not hasattr(a, "__dict__")
    assert type(a).__slots__ == tuple(f.name for f in dataclasses.fields(a))
