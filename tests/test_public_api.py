import fractalfit
from fractalfit import analysis, baseline_quadratic, collage_fit, datasets, ifs_core

SUBMODULES = (ifs_core, collage_fit, baseline_quadratic, datasets, analysis)


def test_package_reexports_every_submodule_name():
    for module in SUBMODULES:
        for name in module.__all__:
            assert getattr(fractalfit, name) is getattr(module, name), (module.__name__, name)
            assert name in fractalfit.__all__, (module.__name__, name)


def test_package_names_are_unique():
    assert len(set(fractalfit.__all__)) == len(fractalfit.__all__)
