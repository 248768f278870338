import ast
from pathlib import Path

import fractalfit
from fractalfit import analysis, baseline_quadratic, cli, collage_fit, datasets, ifs_core

SUBMODULES = (ifs_core, collage_fit, baseline_quadratic, datasets, analysis)


def test_package_reexports_every_submodule_name():
    for module in SUBMODULES:
        for name in module.__all__:
            assert getattr(fractalfit, name) is getattr(module, name), (module.__name__, name)
            assert name in fractalfit.__all__, (module.__name__, name)


def test_package_names_are_unique():
    assert len(set(fractalfit.__all__)) == len(fractalfit.__all__)


def test_cli_names_resolve():
    # cli is not re-exported by the package, so its __all__ is checked here
    for name in cli.__all__:
        assert hasattr(cli, name), name


def package_imports(module) -> set[str]:
    """The fractalfit modules ``module`` imports, read from its import
    statements (relative or absolute)."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:  # from .x import ..., from . import x
            found.update([node.module] if node.module else [alias.name for alias in node.names])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("fractalfit"):
            found.add(node.module.removeprefix("fractalfit."))
        elif isinstance(node, ast.Import):
            found.update(a.name.removeprefix("fractalfit.") for a in node.names if a.name.startswith("fractalfit"))
    return found


def test_fits_build_only_on_ifs_core():
    # both fits share one frame and one least-squares step, in ifs_core
    for module in (collage_fit, baseline_quadratic):
        assert package_imports(module) == {"ifs_core"}, module.__name__


BLAS_CALLS = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum"}


def spelled_names(node) -> set[str]:
    """The identifiers a node spells: a name, an attribute, or the dotted
    parts of an imported module."""
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.alias):
        return set(node.name.split("."))
    if isinstance(node, ast.ImportFrom):
        return set((node.module or "").split("."))
    return set()


def blas_uses(source: str) -> list[str]:
    """Every ``@``, BLAS-backed product call and use of ``linalg`` in
    ``source``: their summation order may follow the BLAS thread count."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"line {node.lineno}: @")
        elif isinstance(node, ast.Call) and spelled_names(node.func) & BLAS_CALLS:
            found.append(f"line {node.lineno}: {spelled_names(node.func).pop()}()")
        elif "linalg" in spelled_names(node):
            found.append(f"line {node.lineno}: linalg")
    return found


def test_no_blas_ordered_sums():
    # CLI artifacts are byte-identical whatever the number of usable CPUs
    for path in sorted(Path(fractalfit.__file__).parent.glob("*.py")):
        assert blas_uses(path.read_text(encoding="utf-8")) == [], path.name


def test_blas_guard_sees_each_form():
    samples = ["r @ r", "r @= r", "np.dot(r, r)", "r.dot(r)", "vdot(r, r)", "np.inner(r, r)",
               "np.matmul(r, r)", "np.tensordot(r, r, 1)", "np.einsum('i,i', r, r)",
               "np.linalg.norm(r)", "from numpy import linalg", "from numpy.linalg import norm",
               "import numpy.linalg"]
    for sample in samples:
        assert blas_uses(sample), sample
    assert blas_uses("np.sum(np.square(r, out=r))") == []


def path_messages(source: str) -> list[str]:
    """``line N`` for each ``raise`` in ``source`` whose exception reads a
    name ``path``: an f-string, ``%`` or ``.format`` message that formats it."""
    return [f"line {node.lineno}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Raise) and node.exc is not None
            and any(isinstance(n, ast.Name) and n.id == "path" for n in ast.walk(node.exc))]


def test_only_cli_names_a_file():
    # cli._read puts the file in front of every input error; a library
    # message that named it too would name it twice
    for path in sorted(Path(fractalfit.__file__).parent.glob("*.py")):
        if path.stem != "cli":
            assert path_messages(path.read_text(encoding="utf-8")) == [], path.name


def test_path_guard_sees_each_form():
    samples = ['raise ValueError(f"{path}: bad")', 'raise ValueError("%s: bad" % path)',
               'raise ValueError("{}: bad".format(path))', 'raise OSError(str(path) + ": bad")']
    for sample in samples:
        assert path_messages(sample), sample
    assert path_messages('raise ValueError(f"bad line {lineno}") from None') == []
    assert path_messages("raise") == []


def used_names(tree) -> set[str]:
    """The names ``tree`` reads: bare names and attributes."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def unused_names(sources: dict[str, str]) -> list[str]:
    """``module: name`` for each name that a module of ``sources`` (module
    name: source) imports but never uses itself, and each private
    module-level function, class or constant it defines that no module of
    ``sources`` uses.  ``__future__`` imports, ``__all__`` names and
    ``__init__``'s re-exports are exempt."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    used = set().union(*map(used_names, trees.values()))
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and "__all__" in [getattr(t, "id", None) for t in node.targets]:
                used.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
    found = []
    for module, tree in trees.items():
        if module != "__init__":
            imported = [(alias.asname or alias.name).split(".")[0] for node in ast.walk(tree)
                        if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and node.module != "__future__"
                        for alias in node.names]
            found += [f"{module}: {name}" for name in imported if name not in used_names(tree)]
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            found += [f"{module}: {name}" for name in names
                      if name.startswith("_") and not name.startswith("__") and name not in used]
    return found


def test_no_unused_imports_or_private_names():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(Path(fractalfit.__file__).parent.glob("*.py"))}
    assert unused_names(sources) == []


def test_unused_guard_sees_each_form():
    sample = """
from __future__ import annotations
import os
import sys
from dataclasses import dataclass, fields
__all__ = ["public", "_exported"]
_LIMIT = 3
_SPARE: int = 4

def public():
    return _used(sys.argv) + _LIMIT + len(fields(public))

def _used(argv):
    return _used(argv[1:]) if argv else 0

def _unused():
    return public()

def _exported():
    pass

class _Kind:
    pass
"""
    assert unused_names({"sample": sample}) == [
        "sample: os", "sample: dataclass", "sample: _SPARE", "sample: _unused", "sample: _Kind",
    ]
    # a name one module uses is used
    assert unused_names({"sample": sample, "other": "from .sample import _unused\n_unused()\n"}) == [
        "sample: os", "sample: dataclass", "sample: _SPARE", "sample: _Kind",
    ]
