"""The package's export list: each name once, and each one defined."""

from collections import Counter

import binopt


def test_every_exported_name_is_defined_once():
    twice = [name for name, k in Counter(binopt.__all__).items() if k > 1]
    assert twice == []
    assert [name for name in binopt.__all__ if not hasattr(binopt, name)] == []
