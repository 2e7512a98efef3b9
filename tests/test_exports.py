"""Every exported name resolves, so a deletion cannot leave a stale entry
that fails only under ``from gkhyper.<module> import *``, and every exported
function has a reader outside its own module and the unit tests."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import gkhyper

MODULES = sorted(info.name for info in pkgutil.iter_modules(gkhyper.__path__))

ROOT = Path(__file__).resolve().parents[1]


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


def test_theta3_derivative_is_applied_only_by_the_products_and_the_exact_gradient():
    # each factorization caches its own dQ V products, and the dense oracle
    # takes dQ/dtheta3 A' on its gradient's first read; the dense assembly
    # takes values only, and no other path applies dQ/dtheta3
    assert _package_reads("apply_block_with_theta3_derivative") == [
        "gengk.GenGKFactorization.dq_basis"]
    assert _package_reads("apply_theta3_derivative_block") == [
        "marginal.objective_exact.take_gradient"]


def test_a_supplied_factorization_is_read_at_k_by_one_rule():
    # objective_gengk and map_reconstruct read a supplied factorization at k
    # through truncate_factorization; nothing else in the package truncates
    assert _package_calls("truncate_factorization") == ["estimate.map_reconstruct",
                                                        "marginal.objective_gengk"]


def test_the_count_rule_has_one_home():
    # every owner of a count (a size, a step or probe count, an iteration
    # limit) calls operators._check_count instead of writing the rule again
    assert _package_reads("Integral") == ["operators._check_count"]


def test_structured_applies_share_one_chunk_loop_and_one_inverse_real_fft():
    # the Toeplitz convolution and every FFT covariance apply their blocks in
    # one chunk loop, and the 1-d circulants take one real-FFT pair
    assert set(_package_reads("_BLOCK_COLUMNS")) == {"operators._apply_chunks"}
    assert _package_reads("irfft") == ["operators._irfft_block"]


def _scipy_imports(subpackages):
    # module.scope of every import of one of the subpackages, as a module
    # (import scipy.fft) or from it (from scipy.fft import ..., from scipy
    # import fft); a module-level import has the empty scope
    found = {name: [] for name in subpackages}
    for path in sorted(Path(gkhyper.__file__).parent.glob("*.py")):
        for scope, node in _scoped_nodes(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            for module in set(modules) & set(subpackages):
                found[module].append(f"{path.stem}.{'.'.join(scope)}")
    return found


def test_optimizer_fft_and_bessel_load_only_where_they_are_called():
    # scipy.optimize, scipy.fft and scipy.special hold 19 MB that a monitor
    # or a reconstruction never reads: none is imported at module level, and
    # each only in the function that calls it
    assert _scipy_imports(("scipy.optimize", "scipy.fft", "scipy.special")) == {
        "scipy.optimize": ["estimate._run_lbfgsb"],
        "scipy.fft": ["operators.LowerToeplitzOperator.__init__"],
        "scipy.special": ["covariance.matern_eval", "covariance._matern_deriv"],
    }


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


def _reexports():
    # (home module, name) of every name gkhyper/__init__.py imports, read
    # from its source
    tree = ast.parse(Path(gkhyper.__file__).read_text())
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def test_package_reexports_resolve():
    reexports = _reexports()
    assert reexports
    for home, name in reexports:
        module = importlib.import_module(f"gkhyper.{home}")
        assert name in module.__all__, f"{home}.{name}"
        assert getattr(gkhyper, name) is getattr(module, name)


def _strings(node):
    # the strings an assigned value joins, each f-string field read as None
    if isinstance(node, ast.BinOp):
        return _strings(node.left) + _strings(node.right)
    if isinstance(node, ast.JoinedStr):
        return ["".join(part.value if isinstance(part, ast.Constant) else "None"
                        for part in node.values)]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    return []


def _digest_programs():
    # the programs scripts/output_digest.py runs in its subprocesses, which
    # it holds as module-level strings (SHOW and the scripts built on it)
    tree = ast.parse((ROOT / "scripts" / "output_digest.py").read_text())
    return [ast.parse(text) for node in tree.body if isinstance(node, ast.Assign)
            for text in _strings(node.value)]


def _reads(tree, name) -> bool:
    # a load of name, or name as a string of its own (perfbench's tracer
    # wraps functions by getattr); a docstring that mentions it is neither
    return bool(_name_reads(tree, name)) or any(
        isinstance(node, ast.Constant) and node.value == name for node in ast.walk(tree))


def test_every_reexported_function_is_read_outside_its_module_and_the_unit_tests():
    # a reader is another package module, a perfbench file, a program the
    # output digest runs or the acceptance tests; a function that only its own
    # module and the unit tests read is private, or gone
    programs = _digest_programs()
    assert programs
    readers = [ast.parse(path.read_text()) for path in sorted((ROOT / "perfbench").glob("*.py"))]
    readers += [*programs, ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())]
    unread = [f"{home}.{name}" for home, name in _reexports()
              if inspect.isfunction(getattr(gkhyper, name))
              and not any(read.split(".")[0] != home for read in _package_reads(name))
              and not any(_reads(tree, name) for tree in readers)]
    assert unread == []
