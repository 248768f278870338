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
