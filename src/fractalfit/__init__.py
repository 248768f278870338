"""Fractal interpolation of 1-D discrete series.

Fits the vertical scalings of an affine iterated function system to data in
closed form via the collage theorem, evaluates the resulting fractal
interpolation function, and compares its error against a parameter-matched
piecewise-quadratic baseline.
"""

from .ifs_core import (
    FifModel,
    Knots,
    SampledFunction,
    build_model,
    default_depth,
    evaluate_fif,
    fixed_point_residual,
    hutchinson_apply,
    segment_indices,
)
from .collage_fit import (
    D_MAX_DEFAULT,
    FitReport,
    Series,
    collage_residual,
    fit_d_discrete,
    piecewise_constant_extension,
)
from .baseline_quadratic import QuadModel, evaluate_quad, fit_quadratic
from .datasets import (
    NormalizationParams,
    gen_dna_walk,
    gen_polynomial,
    gen_random_walk,
    load_series_csv,
    normalize,
    select_knots,
)
from .analysis import ComparisonRow, compare, rms_error

__version__ = "0.1.0"

__all__ = [
    "Knots",
    "FifModel",
    "SampledFunction",
    "build_model",
    "segment_indices",
    "hutchinson_apply",
    "evaluate_fif",
    "default_depth",
    "fixed_point_residual",
    "Series",
    "FitReport",
    "D_MAX_DEFAULT",
    "piecewise_constant_extension",
    "fit_d_discrete",
    "collage_residual",
    "QuadModel",
    "fit_quadratic",
    "evaluate_quad",
    "NormalizationParams",
    "gen_polynomial",
    "gen_dna_walk",
    "gen_random_walk",
    "load_series_csv",
    "normalize",
    "select_knots",
    "ComparisonRow",
    "rms_error",
    "compare",
    "__version__",
]
