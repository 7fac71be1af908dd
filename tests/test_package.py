import aprfm


def test_every_export_resolves():
    missing = [name for name in aprfm.__all__ if not hasattr(aprfm, name)]
    assert not missing
