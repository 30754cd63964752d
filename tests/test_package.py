"""The package's public names."""

import cloudtrack


def test_public_names_resolve_without_duplicates():
    missing = [name for name in cloudtrack.__all__ if not hasattr(cloudtrack, name)]
    assert missing == []
    assert len(set(cloudtrack.__all__)) == len(cloudtrack.__all__)
