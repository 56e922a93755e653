import importlib
import pkgutil

import pytest

import qhowe

MODULES = ["qhowe"] + [f"qhowe.{info.name}" for info in pkgutil.iter_modules(qhowe.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [attr for attr in exported if not hasattr(module, attr)] == []
