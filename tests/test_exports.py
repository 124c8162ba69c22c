"""The public export list of the ``spinport`` package."""

import spinport


def test_every_exported_name_resolves():
    assert [name for name in spinport.__all__ if not hasattr(spinport, name)] == []


def test_exports_have_no_duplicates():
    assert len(set(spinport.__all__)) == len(spinport.__all__)


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from spinport import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(spinport.__all__)
