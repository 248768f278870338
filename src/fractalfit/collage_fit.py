"""Closed-form fitting of the vertical scalings d_i to discrete data.

Rather than minimizing the distance between the data and the attractor
itself (which depends on d in a complicated way), we minimize the collage
residual

    R(d) = sum_m (w_m - (Phi g)(z_m))^2,

where g is the piecewise-constant (nearest-neighbor) extension of the data.
The collage theorem bounds the distance from g to the attractor by
||g - Phi g|| / (1 - contraction factor) over all of [a, b].  R samples
g - Phi g only at the z_m, so the same quotient of R is the paper's
estimate of the fit's error, not a bound on it.

R separates over segments, and each segment's term is an ordinary 1-D least
squares problem in d_i with the closed-form solution

    d_i = sum (alpha_i(z_m) - w_m)(beta_i(z_m) - g(gamma_i(z_m)))
          / sum (beta_i(z_m) - g(gamma_i(z_m)))^2,

the sums running over the samples of segment i (half-open, last segment
closed, so every sample contributes exactly once).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .ifs_core import (Knots, Series, _abg_values, _blocks, _bucket_table, _count_breaks, _frozen_array,
                       _project, _rss, _segment_slices)

__all__ = [
    "FitReport",
    "D_MAX_DEFAULT",
    "piecewise_constant_extension",
    "fit_d_discrete",
    "collage_residual",
]

#: Fitted |d_i| are clamped to this magnitude unless the caller overrides it;
#: the closed form can exceed 1 on adversarial data, which would break the
#: contraction the whole construction rests on.
D_MAX_DEFAULT = 0.99


@dataclass(frozen=True)
class FitReport:
    """Result of a collage fit.

    ``clamped[i]`` marks segments whose closed-form d_i exceeded the allowed
    magnitude and was clamped; ``degenerate[i]`` marks segments where the
    denominator vanished (the objective is flat in d_i) and d_i was set to 0.
    ``collage_bound`` is the paper's discrete collage estimate
    sqrt(collage_rss / M) / (1 - contraction_factor) of the RMS distance
    between the data and the attractor.  It is not a bound: the collage
    residual samples Phi g only at the data abscissae, and a segment whose
    few interior samples the fit meets exactly adds nothing to it.
    """

    d: np.ndarray
    clamped: np.ndarray
    degenerate: np.ndarray
    collage_rss: float
    contraction_factor: float
    collage_bound: float

    def __post_init__(self):
        object.__setattr__(self, "d", _frozen_array(self.d, "scaling factors"))
        for name in ("clamped", "degenerate"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name), f"{name} flags", bool, self.d.size))


def piecewise_constant_extension(series: Series) -> Callable:
    """Nearest-neighbor extension of the series to a function on [a, b].

    Returns a vectorized callable with g(z) = w_m for the sample z_m closest
    to z; a point exactly midway between two samples takes the left one.  Its
    index is the number of midpoints below z, counted in a bucket table: exact
    for any series, O(1) per query on an evenly spaced one."""
    z, w = series.z, series.w
    with np.errstate(over="ignore"):
        midpoints = (z[:-1] + z[1:]) / 2.0
    far = np.isinf(midpoints)  # the sum overflowed; halving first is exact there
    midpoints[far] = z[:-1][far] / 2.0 + z[1:][far] / 2.0
    table = _bucket_table(midpoints, z[0], z[-1])
    return lambda q: w.take(_count_breaks(table, q, np.greater))


def _collage_terms(series: Series, knots: Knots):
    """Slice starts, segment labels, and the per-sample alpha and
    beta - g(gamma) of the collage residual, one block at a time."""
    starts, seg = _segment_slices(series, knots)
    extension = piecewise_constant_extension(series)
    alpha, basis = np.empty(series.m_count), np.empty(series.m_count)
    for rows in _blocks(series.m_count):
        alpha[rows], beta, gamma = _abg_values(knots, seg[rows], series.z[rows])
        np.subtract(beta, extension(gamma), out=basis[rows])
    return starts, seg, alpha, basis


def fit_d_discrete(
    series: Series, knots: Knots, d_max: float = D_MAX_DEFAULT
) -> FitReport:
    """Fit all vertical scalings in closed form and report safeguards.

    Each segment solves its own least-squares problem (see module docstring).
    A denominator at or below eps_den = 1e-12 * M * (max|w| + max|y|)^2 is
    treated as degenerate (flat objective) and yields d_i = 0; a solution
    with |d_i| > d_max is clamped to sign(d_i) * d_max and flagged, never
    silently altered.
    """
    if not 0.0 < d_max < 1.0:
        raise ValueError("d_max must lie in (0, 1)")
    starts, seg, alpha, basis = _collage_terms(series, knots)
    w = series.w
    eps_den = 1e-12 * series.m_count * (np.max(np.abs(w)) + np.max(np.abs(knots.y))) ** 2
    d, degenerate = _project(lambda r: (alpha[r] - w[r], basis[r]), starts, w.size, eps_den)
    clamped = np.abs(d) > d_max
    d[clamped] = np.sign(d[clamped]) * d_max

    rss = _rss(w, lambda r: alpha[r] - d.take(seg[r]) * basis[r])
    contraction = float(np.max(np.abs(d)))
    bound = float(np.sqrt(rss / series.m_count) / (1.0 - contraction))
    return FitReport(d=d, clamped=clamped, degenerate=degenerate, collage_rss=rss,
                     contraction_factor=contraction, collage_bound=bound)


def collage_residual(series: Series, knots: Knots, d: Sequence[float]) -> float:
    """The objective R(d) = sum_m (w_m - (Phi g)(z_m))^2 for given scalings."""
    d_arr = _frozen_array(d, "scaling factors", size=knots.n_segments)
    _, seg, alpha, basis = _collage_terms(series, knots)
    return _rss(series.w, lambda r: alpha[r] - d_arr.take(seg[r]) * basis[r])
