from __future__ import annotations

import ftmd


def test_every_exported_name_exists():
    missing = [name for name in ftmd.__all__ if not hasattr(ftmd, name)]
    assert missing == []


def test_exports_are_sorted_and_distinct():
    assert ftmd.__all__ == sorted(set(ftmd.__all__))
