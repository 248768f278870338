"""Fractal interpolation of 1-D discrete series.

Fits the vertical scalings of an affine iterated function system to data in
closed form via the collage theorem, evaluates the resulting fractal
interpolation function, and compares its error against a parameter-matched
piecewise-quadratic baseline.
"""

from . import ifs_core, collage_fit, baseline_quadratic, datasets, analysis
from .ifs_core import *
from .collage_fit import *
from .baseline_quadratic import *
from .datasets import *
from .analysis import *

__version__ = "0.1.0"

__all__ = [
    *ifs_core.__all__,
    *collage_fit.__all__,
    *baseline_quadratic.__all__,
    *datasets.__all__,
    *analysis.__all__,
    "__version__",
]
