"""The public export lists of the ``spinport`` package and of its four library modules."""

import importlib

import pytest

import spinport

MODULES = ("spinalg", "bellkit", "teleport", "reaction")


def star_import(module: str) -> list[str]:
    namespace: dict = {}
    exec(f"from {module} import *", namespace)
    del namespace["__builtins__"]
    return sorted(namespace)


def test_every_exported_name_resolves():
    assert [name for name in spinport.__all__ if not hasattr(spinport, name)] == []


def test_exports_have_no_duplicates():
    assert len(set(spinport.__all__)) == len(spinport.__all__)


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from spinport import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(spinport.__all__)


def test_package_exports_are_the_module_lists_in_order():
    modules = [importlib.import_module(f"spinport.{name}") for name in MODULES]
    assert spinport.__all__ == ["__version__", *(name for module in modules for name in module.__all__)]


@pytest.mark.parametrize("name", MODULES)
class TestModuleExports:
    def test_star_import_binds_exactly_all(self, name):
        module = importlib.import_module(f"spinport.{name}")
        assert star_import(f"spinport.{name}") == sorted(module.__all__)

    def test_every_exported_name_resolves(self, name):
        module = importlib.import_module(f"spinport.{name}")
        assert [export for export in module.__all__ if not hasattr(module, export)] == []

    def test_package_binds_the_module_objects(self, name):
        module = importlib.import_module(f"spinport.{name}")
        assert all(getattr(spinport, export) is getattr(module, export) for export in module.__all__)
