"""The package's public names."""

import commonground


def test_every_exported_name_exists():
    missing = [name for name in commonground.__all__ if not hasattr(commonground, name)]
    assert missing == []
    namespace = {}
    exec("from commonground import *", namespace)
    assert set(commonground.__all__) <= namespace.keys()
