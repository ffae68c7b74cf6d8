"""Every name a public ``dmtlink`` module exports in ``__all__`` exists there,
every exported function or class of a layer is used by the package, and so
is every public member of a layer's classes."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import dmtlink

MODULES = ["dmtlink"] + [
    f"dmtlink.{info.name}"
    for info in pkgutil.iter_modules(dmtlink.__path__)
    if not info.name.startswith("_")
]

LAYERS = ("core", "txdsp", "channel", "rxdsp", "loading", "harness")

UNUSED_BY_DESIGN = {
    "core.demap_symbols": "the hard decision on points; rxdsp slices a whole frame with _slicer",
    "txdsp.dac": "the DAC as a RealWaveform; compose runs dac_samples in its launch buffer",
    "txdsp.symbols_to_waveform": "IFFT plus prefix; modulate_frame splices _symbol_rows",
    "harness.ScenarioConfig.single_channel": "the README's library entry point",
}
"""Exported names and class members nothing in the package calls, each with
its reason to stay."""


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(exported) == len(set(exported)), "a name is listed twice"
    assert [attr for attr in exported if not hasattr(module, attr)] == []


def _statements():
    """(module, top-level statement, the names and attributes it uses) of
    every source file of ``dmtlink``."""
    return [
        (path.stem, stmt, {
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(stmt)
            if isinstance(node, (ast.Name, ast.Attribute))
        })
        for path in sorted(Path(dmtlink.__file__).parent.glob("*.py"))
        for stmt in ast.parse(path.read_text()).body
    ]


def _named_elsewhere(statements, stmt) -> bool:
    return any(stmt.name in used for _, other, used in statements if other is not stmt)


def test_every_exported_function_and_class_is_used_by_the_package():
    """Outside its own definition, some source file of ``dmtlink`` names it."""
    statements = _statements()
    unused = []
    for layer in LAYERS:
        exported = set(importlib.import_module(f"dmtlink.{layer}").__all__)
        for module, stmt, _ in statements:
            defines = isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
            if module == layer and defines and stmt.name in exported:
                if not _named_elsewhere(statements, stmt):
                    unused.append(f"{layer}.{stmt.name}")
    assert sorted(set(unused) - set(UNUSED_BY_DESIGN)) == []


def test_every_private_function_is_used_by_the_package():
    """A module-level private function is named by some other statement of
    ``dmtlink``: one that only tests or references call is dead code."""
    statements = _statements()
    unused = [
        f"{module}.{stmt.name}"
        for module, stmt, _ in statements
        if isinstance(stmt, ast.FunctionDef) and stmt.name.startswith("_")
        and not _named_elsewhere(statements, stmt)
    ]
    assert unused == []


def test_every_public_class_member_of_a_layer_is_read_by_the_package():
    """Each public method or property of a layer's classes is read as ``x.name``."""
    trees = {
        path.stem: ast.parse(path.read_text())
        for path in sorted(Path(dmtlink.__file__).parent.glob("*.py"))
    }
    read = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unused = [
        f"{layer}.{cls.name}.{member.name}"
        for layer in LAYERS
        for cls in trees[layer].body
        if isinstance(cls, ast.ClassDef)
        for member in cls.body
        if isinstance(member, ast.FunctionDef)
        and not member.name.startswith("_")
        and member.name not in read
    ]
    assert sorted(set(unused) - set(UNUSED_BY_DESIGN)) == []
