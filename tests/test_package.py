from __future__ import annotations

from types import ModuleType

import usigns


def test_all_names_resolve_and_hold_no_module():
    assert usigns.__all__ == sorted(set(usigns.__all__))
    for name in usigns.__all__:
        assert not isinstance(getattr(usigns, name), ModuleType), name
    namespace: dict = {}
    exec("from usigns import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(usigns.__all__)
    assert "points_from_u" in namespace and "relations" not in namespace
