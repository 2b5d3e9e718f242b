import importlib
import pkgutil

import pytest

import ghcodes

MODULES = sorted(info.name for info in pkgutil.iter_modules(ghcodes.__path__))


def test_package_imports_without_reexports():
    assert ghcodes.__doc__
    assert not hasattr(ghcodes, "__all__")
    assert MODULES == ["bits", "cli", "fibcodec", "ghcodec", "oracle", "sequences", "stream"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"ghcodes.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
