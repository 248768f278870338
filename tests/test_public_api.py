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
