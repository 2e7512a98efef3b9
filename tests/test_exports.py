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


def _scoped_nodes(tree, scope=()):
    # every node below tree, in source order, with its enclosing class/def path
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _scoped_nodes(child, scope + (child.name,))
            continue
        yield scope, child
        yield from _scoped_nodes(child, scope)


def _name_reads(tree, name):
    # the enclosing class/def path of every read of name, as a plain name or
    # as an attribute; an assignment to it is not a read
    return [".".join(scope) for scope, node in _scoped_nodes(tree)
            if (isinstance(node, ast.Name) and node.id == name
                or isinstance(node, ast.Attribute) and node.attr == name)
            and isinstance(node.ctx, ast.Load)]


def _package_reads(name):
    # module.scope of every read of name in the package's modules
    return [f"{path.stem}.{scope}"
            for path in sorted(Path(gkhyper.__file__).parent.glob("*.py"))
            for scope in _name_reads(ast.parse(path.read_text()), name)]


def _package_calls(name):
    # module.scope of every call of name, as a plain name or as an attribute;
    # an annotation reads the name but does not call it
    return [f"{path.stem}.{'.'.join(scope)}"
            for path in sorted(Path(gkhyper.__file__).parent.glob("*.py"))
            for scope, node in _scoped_nodes(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]


def test_gengk_bidiag_is_called_only_in_factorize():
    # every factorization is taken by MarginalModel.factorize, which holds the
    # min(k, m, n) clamp; imports of the name are not reads
    assert _package_reads("gengk_bidiag") == ["marginal.MarginalModel.factorize"]


def test_gengk_gradient_is_taken_at_one_site():
    # objective_gengk takes it on the first read of .gradient; nothing else
    # assembles a genGK gradient
    assert _package_reads("_gengk_gradient") == ["marginal.objective_gengk.take_gradient"]


def test_every_objective_record_is_built_by_one_constructor():
    # marginal._evaluation adds the hyperprior term and builds each record;
    # _assemble_gradient adds the hyperprior's gradient to each gradient
    assert sorted(_package_reads("neglog")) == ["marginal._assemble_gradient",
                                                "marginal._evaluation"]
    assert _package_calls("ObjectiveEvaluation") == ["marginal._evaluation"]


def test_theta3_derivative_is_applied_only_by_the_products_and_the_dense_assembly():
    # a factorization caches its dQ V products, which its truncations share,
    # and the dense oracles read one assembly; no other path applies dQ/dtheta3
    assert _package_reads("apply_block_with_theta3_derivative") == [
        "gengk.GenGKFactorization._products", "marginal._dense_assembly"]


def test_the_count_rule_has_one_home():
    # every owner of a count (a size, a step or probe count, an iteration
    # limit) calls operators._check_count instead of writing the rule again
    assert _package_reads("Integral") == ["operators._check_count"]


def test_structured_applies_share_one_chunk_loop_and_one_inverse_real_fft():
    # the Toeplitz convolution and every FFT covariance apply their blocks in
    # one chunk loop, and the 1-d circulants take one real-FFT pair
    assert set(_package_reads("_BLOCK_COLUMNS")) == {"operators._apply_chunks"}
    assert _package_reads("irfft") == ["operators._irfft_block"]


def test_operators_define_only_block_hooks():
    # every operator implements its block apply, one hook per direction; the
    # vector apply is the one-column block apply of LinearOperatorHandle
    defined = [f"{path.stem}.{node.name}.{item.name}"
               for path in sorted(Path(gkhyper.__file__).parent.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ClassDef) for item in node.body
               if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
               and item.name in ("_apply", "_apply_adjoint")]
    assert defined == []


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
