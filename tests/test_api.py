import importlib
import pkgutil

import pytest

import prodfade

MODULES = ["prodfade"] + [
    "prodfade." + info.name for info in pkgutil.iter_modules(prodfade.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_export_list_resolves(name):
    # A name deleted from a module must leave its export lists too.
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing
