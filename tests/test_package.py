import handmcq


def test_every_public_name_resolves():
    for name in handmcq.__all__:
        assert hasattr(handmcq, name), name
    assert len(set(handmcq.__all__)) == len(handmcq.__all__)


def test_star_import():
    namespace: dict = {}
    exec("from handmcq import *", namespace)
    assert set(handmcq.__all__) <= set(namespace)
