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
