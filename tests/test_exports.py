"""Every name a public ``dmtlink`` module exports in ``__all__`` exists there."""

import importlib
import pkgutil

import pytest

import dmtlink

MODULES = ["dmtlink"] + [
    f"dmtlink.{info.name}"
    for info in pkgutil.iter_modules(dmtlink.__path__)
    if not info.name.startswith("_")
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(exported) == len(set(exported)), "a name is listed twice"
    assert [attr for attr in exported if not hasattr(module, attr)] == []
