import liaison


def test_every_public_name_resolves():
    for name in liaison.__all__:
        assert hasattr(liaison, name), name
