"""Every name a syklab module exports in ``__all__`` exists in it."""

import importlib
import pkgutil

import pytest

import syklab

MODULES = ["syklab"] + [
    f"syklab.{info.name}" for info in pkgutil.iter_modules(syklab.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    assert [n for n in exported if not hasattr(module, n)] == []
