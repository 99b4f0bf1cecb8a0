import qibench


def test_public_names_resolve():
    names = qibench.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(qibench, name)] == []
    namespace = {}
    exec("from qibench import *", namespace)
    assert set(names) <= namespace.keys()
