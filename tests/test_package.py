import previsions


def test_every_export_resolves():
    missing = [name for name in previsions.__all__ if not hasattr(previsions, name)]
    assert missing == []
