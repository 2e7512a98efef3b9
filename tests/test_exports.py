"""Every exported name resolves, so a deletion cannot leave a stale entry
that fails only under ``from gkhyper.<module> import *``."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import gkhyper

MODULES = sorted(info.name for info in pkgutil.iter_modules(gkhyper.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"gkhyper.{name}")
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_reexports_resolve():
    # the names gkhyper/__init__.py imports from its modules, read from its source
    tree = ast.parse(Path(gkhyper.__file__).read_text())
    reexports = [(node.module, alias.name) for node in tree.body
                 if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert reexports
    for home, name in reexports:
        module = importlib.import_module(f"gkhyper.{home}")
        assert name in module.__all__, f"{home}.{name}"
        assert getattr(gkhyper, name) is getattr(module, name)
