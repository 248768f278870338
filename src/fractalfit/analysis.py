"""Error metrics and the fractal-vs-quadratic comparison harness."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .baseline_quadratic import fit_quadratic
from .collage_fit import D_MAX_DEFAULT, fit_d_discrete
from .ifs_core import Knots, Series, _rss, build_model, default_depth

__all__ = ["ComparisonRow", "rms_error", "compare"]


@dataclass(frozen=True)
class ComparisonRow:
    """One dataset's error summary.

    collage_bound is the fit's discrete collage estimate (see
    :class:`~fractalfit.collage_fit.FitReport`), not a bound: fractal_rms can
    exceed it even with no scaling factor clamped.  eval_depth is the
    explicit depth, else default_depth.
    """

    name: str
    fractal_rms: float
    quadratic_rms: float
    collage_bound: float
    contraction_factor: float
    eval_depth: int


def rms_error(h, series: Series) -> float:
    """Root-mean-square error against the series of ``h``, a model or any
    callable mapping an abscissa array to values."""
    values = np.broadcast_to(np.asarray(h(series.z), dtype=float), series.z.shape)
    return float(np.sqrt(_rss(series.w, lambda r: values[r]) / series.m_count))


def compare(
    series: Series,
    knots: Knots,
    *,
    name: str = "",
    depth: int | None = None,
    d_max: float = D_MAX_DEFAULT,
) -> ComparisonRow:
    """Fit both models on identical (series, knots) and measure both errors.

    Pure function of its arguments: same inputs, same row.
    """
    report = fit_d_discrete(series, knots, d_max)
    model = build_model(knots, report.d)
    return ComparisonRow(
        name=name,
        fractal_rms=rms_error(lambda z: model(z, depth), series),
        quadratic_rms=rms_error(fit_quadratic(series, knots), series),
        collage_bound=report.collage_bound,
        contraction_factor=report.contraction_factor,
        eval_depth=default_depth(model) if depth is None else depth,
    )
