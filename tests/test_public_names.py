import wallclimber


def test_all_lists_each_public_name_once_and_star_import_binds_exactly_them():
    names = wallclimber.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(wallclimber, name)] == []
    namespace = {}
    exec("from wallclimber import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(names)
