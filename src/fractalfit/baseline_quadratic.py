"""Parameter-matched piecewise-quadratic baseline.

On each knot segment the baseline is the quadratic q_i(x) = k_i x^2 + r_i x
+ l_i constrained to interpolate both endpoint knot values, leaving exactly
one free scalar per segment -- the same parameter budget as the fractal
model's d_i, which is what makes the error comparison fair.

Internally the family is parametrized as chord plus bubble,

    q_i(x) = L_i(x) + s * B_i(x),   B_i(x) = (x - x_{i-1}) (x - x_i),

where L_i is the chord through the endpoint knots.  B_i vanishes at both
endpoints, so the constraints hold for every s, and the least-squares fit of
s is a 1-D projection.  This is numerically far better behaved than solving
for (k, r, l) directly: with abscissae up to 1e4 the monomial normal
equations live at scale 1e8.  The monomial coefficients are still reported
(``QuadModel.coeffs``) for inspection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ifs_core import (
    Knots, Series, _blocks, _chord, _domain_points, _frozen_array, _project, _segment_slices,
    segment_indices,
)

__all__ = ["QuadModel", "fit_quadratic", "evaluate_quad"]


@dataclass(frozen=True)
class QuadModel:
    """Per-segment quadratics through the knot values.

    ``curvature[i]`` is the bubble coefficient s of segment i (equal to the
    monomial coefficient k_i); ``chord_fallback[i]`` marks segments that had
    no interior samples to fit, where s defaults to 0 (the chord).
    """

    knots: Knots
    curvature: np.ndarray
    chord_fallback: np.ndarray

    def __post_init__(self):
        for name, noun, dtype in (("curvature", "curvatures", float),
                                  ("chord_fallback", "chord fallback flags", bool)):
            object.__setattr__(self, name, _frozen_array(getattr(self, name), noun, dtype, self.knots.n_segments))

    def __call__(self, x):
        return evaluate_quad(self, x)

    @property
    def coeffs(self) -> np.ndarray:
        """Monomial coefficients (k_i, r_i, l_i), one row per segment."""
        x, y, s = self.knots.x, self.knots.y, self.curvature
        xl, xr = x[:-1], x[1:]
        slope = np.diff(y) / (xr - xl)
        return np.column_stack(
            (s, slope - s * (xl + xr), y[:-1] - slope * xl + s * xl * xr)
        )


def fit_quadratic(series: Series, knots: Knots) -> QuadModel:
    """Least-squares fit of each segment's free quadratic parameter.

    Minimizes sum (w_m - L_i(z_m) - s B_i(z_m))^2 over the segment's samples;
    B_i vanishes at the endpoints, so only samples strictly inside the
    segment contribute.  A segment with no interior samples keeps the chord
    (s = 0) and is flagged rather than failed.
    """
    starts, seg = _segment_slices(series, knots)
    z, w, x = series.z, series.w, knots.x

    def terms(rows):
        zs, segs = z[rows], seg[rows]
        _, chord = _chord(knots, segs, zs)
        bubble = (zs - x.take(segs)) * (zs - x.take(segs + 1))
        return np.subtract(w[rows], chord, out=chord), bubble

    curvature, fallback = _project(terms, starts, z.size, 0.0)
    return QuadModel(knots=knots, curvature=curvature, chord_fallback=fallback)


def evaluate_quad(model: QuadModel, x):
    """Evaluate the baseline at ``x`` (scalar or array) inside [a, b].

    Uses the chord-plus-bubble form, so knot values are reproduced exactly;
    segment membership follows the same half-open convention as the fractal
    evaluator.
    """
    knots = model.knots
    xs = _domain_points(knots, x)
    flat, out = xs.ravel(), np.empty(xs.size)
    for rows in _blocks(xs.size):
        q = flat[rows]
        seg = segment_indices(knots, q)
        _, chord = _chord(knots, seg, q)
        bubble = model.curvature.take(seg) * (q - knots.x.take(seg)) * (q - knots.x.take(seg + 1))
        np.add(chord, bubble, out=out[rows])
    return float(out[0]) if np.ndim(x) == 0 else out.reshape(xs.shape)
