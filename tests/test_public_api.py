"""The package's public names: every name in ``ramify.__all__`` resolves and
none repeats, so a deleted class cannot leave a dangling export behind."""

import ramify


def test_every_exported_name_resolves_once():
    names = ramify.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(ramify, name)] == []
    namespace = {}
    exec("from ramify import *", namespace)
    assert set(names) <= namespace.keys()
