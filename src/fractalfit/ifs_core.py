"""Affine iterated function systems for 1-D fractal interpolation.

An interpolation model over knots (x_0,y_0), ..., (x_N,y_N) is a family of
N affine maps

    A_i(x, y) = (a_i x + e_i,  c_i x + d_i y + f_i),        i = 1..N,

each constrained to send the graph endpoints (x_0,y_0), (x_N,y_N) to the
segment endpoints (x_{i-1},y_{i-1}), (x_i,y_i).  The vertical scalings d_i
(|d_i| < 1) remain free and control the roughness of the attractor.  The
associated operator on functions,

    (Phi g)(x) = alpha_i(x) - d_i * (beta_i(x) - g(gamma_i(x)))  on segment i,

is a sup-norm contraction with factor max|d_i|; its unique fixed point is the
fractal interpolation function passing through every knot.

Here alpha_i interpolates the segment endpoints, beta_i carries the segment
endpoints to (y_0, y_N), and gamma_i maps [x_{i-1}, x_i] onto the full domain
[a, b] (the inverse of x -> a_i x + e_i).

Segment membership is half-open: segment i covers [x_{i-1}, x_i), and the
last segment additionally includes b.  Segments are indexed 0..N-1 in code.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from typing import Sequence

import numpy as np

__all__ = [
    "Knots",
    "FifModel",
    "Series",
    "build_model",
    "segment_indices",
    "hutchinson_apply",
    "evaluate_fif",
    "default_depth",
    "fixed_point_residual",
]

TOL = 1e-9  # distance to the attractor at which default evaluation stops a point
MAX_LEVELS = 10_000  # most levels default_depth allows before refusing a model
_CHUNK = 1 << 14  # samples per block of a per-sample pass: its arrays (128 KiB each) stay in cache


def _frozen_array(values, name: str, dtype=float, size: int | None = None) -> np.ndarray:
    """A read-only one-dimensional copy of ``values``, checked finite and ``size`` long if given."""
    arr = np.array(values, dtype=dtype)
    if dtype is bool and np.asarray(values).dtype != bool:
        raise ValueError(f"{name} must be booleans")
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if size is not None and arr.size != size:
        raise ValueError(f"expected {size} {name}, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    arr.setflags(write=False)
    return arr


class _SortedPairs:
    """The sample frame that :class:`Knots` and :class:`Series` share: two
    finite one-dimensional arrays of equal length, at least ``_MIN_COUNT``
    long, with strictly increasing abscissae, frozen after the checks; no
    difference of two entries of either array may overflow a double."""

    _NOUN: str
    _MIN_COUNT: int
    _TOO_FEW: str

    def __post_init__(self):
        xname, yname = (field.name for field in fields(self))
        x = _frozen_array(getattr(self, xname), f"{self._NOUN} abscissae")
        y = _frozen_array(getattr(self, yname), f"{self._NOUN} ordinates", size=x.size)
        if x.size < self._MIN_COUNT:
            raise ValueError(self._TOO_FEW)
        with np.errstate(over="ignore"):  # an overflowing difference is reported below
            if not np.all(np.diff(x) > 0):
                raise ValueError(f"{self._NOUN} abscissae must be strictly increasing")
            for arr, name in ((x, "abscissae"), (y, "ordinates")):
                if not np.isfinite(np.ptp(arr)):
                    raise ValueError(f"{self._NOUN} {name} span more than the largest double")
        object.__setattr__(self, xname, x)
        object.__setattr__(self, yname, y)

    @classmethod
    def from_points(cls, points: Sequence[tuple[float, float]]):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError(f"{cls._NOUN} points must be (x, y) pairs")
        return cls(pts[:, 0], pts[:, 1])


@dataclass(frozen=True)
class Knots(_SortedPairs):
    """Interpolation points (x_i, y_i), i = 0..N, with strictly increasing x.

    N = len(x) - 1 is the number of segments; at least two segments are
    required so that every horizontal contraction factor a_i is < 1.
    """

    x: np.ndarray
    y: np.ndarray

    _NOUN = "knot"
    _MIN_COUNT = 3
    _TOO_FEW = "need at least 3 knots (2 segments)"

    @property
    def n_segments(self) -> int:
        return self.x.size - 1

    @property
    def a(self) -> float:
        return float(self.x[0])

    @property
    def b(self) -> float:
        return float(self.x[-1])

    @cached_property
    def _buckets(self):  # the table of segment_indices: interior knots over [a, b]
        return _bucket_table(self.x[1:-1], self.x[0], self.x[-1])

    @cached_property
    def _gaps(self):  # per-segment width and rise, for _chord
        return np.diff(self.x), np.diff(self.y)


@dataclass(frozen=True)
class Series(_SortedPairs):
    """Discrete data (z_m, w_m), m = 1..M, with strictly increasing z: the
    series being fitted, and the sampled functions the Hutchinson operator
    maps."""

    z: np.ndarray
    w: np.ndarray

    _NOUN = "series"
    _MIN_COUNT = 2
    _TOO_FEW = "need at least 2 samples"

    @property
    def m_count(self) -> int:
        return self.z.size


def _segment_slices(series: Series, knots: Knots):
    """Check the fitting preconditions (knots drawn from the series,
    endpoints shared); return each segment's first sample index and every
    sample's segment label.

    Samples are sorted and knots are samples, so segment i is the slice
    ``starts[i]:starts[i + 1]`` of the series (the last one runs to the end,
    so it holds b), and per-segment sums are one ``np.add.reduceat`` over
    ``starts``.  The labels agree with :func:`segment_indices`.
    """
    z = series.z
    pos = np.searchsorted(z, knots.x)
    ok = (pos < z.size) & (z[np.minimum(pos, z.size - 1)] == knots.x)
    if not np.all(ok):
        raise ValueError("knot abscissae must be a subset of series abscissae")
    if knots.x[0] != z[0] or knots.x[-1] != z[-1]:
        raise ValueError("knots must span the series (endpoint abscissae differ)")
    if knots.y[0] != series.w[0] or knots.y[-1] != series.w[-1]:
        raise ValueError("endpoint knot ordinates must equal the series values")
    starts = pos[:-1]
    seg = np.repeat(np.arange(starts.size), np.diff(np.append(starts, z.size)))
    return starts, seg


def _blocks(size: int) -> list[slice]:
    """Slices of ``_CHUNK`` consecutive indices (the last may be shorter)
    that cover range(size) in order.  A per-sample pass run one slice at a
    time keeps its temporaries in cache and writes each result once."""
    return [slice(start, start + _CHUNK) for start in range(0, size, _CHUNK)]


def _project(terms, starts, size: int, floor: float):
    """The one-parameter least squares both fits solve on each slice
    ``starts[i]:starts[i + 1]`` of ``size`` samples (see :func:`_segment_slices`):
    returns p, with p_i = sum(residual * basis) / sum(basis^2), and ``flat``, the
    segments with sum(basis^2) <= ``floor`` (at a ``floor`` of 0, exactly 0), where
    p_i = 0.  ``terms(rows)`` gives residual and basis on each slice ``rows`` of
    :func:`_blocks`; each sum is still one ``np.add.reduceat`` over all samples."""
    products = np.empty((2, size))
    for rows in _blocks(size):
        residual, basis = terms(rows)
        np.multiply(residual, basis, out=products[0, rows])
        np.multiply(basis, basis, out=products[1, rows])
    numerator = np.add.reduceat(products[0], starts)
    denominator = np.add.reduceat(products[1], starts)
    flat = denominator <= floor
    return np.divide(numerator, denominator, out=np.zeros(starts.size), where=~flat), flat


def _rss(w: np.ndarray, predicted) -> float:
    """sum_m (w_m - predicted_m)^2, ``predicted(rows)`` being the model's values
    on each slice ``rows`` of :func:`_blocks`.  One ``np.sum`` over all squares:
    its order does not depend on the slices, and no BLAS dot rounds it."""
    squares = np.empty(w.size)
    for rows in _blocks(w.size):
        np.square(w[rows] - predicted(rows), out=squares[rows])
    return float(np.sum(squares))


@dataclass(frozen=True)
class FifModel:
    """A fractal interpolation model: knots plus one vertical scaling per
    segment.

    The maps' remaining coefficients follow from the endpoint conditions
    A_i(x_0, y_0) = (x_{i-1}, y_{i-1}) and A_i(x_N, y_N) = (x_i, y_i), and
    are exposed as arrays over the segments:

        a_i = (x_i - x_{i-1}) / (b - a)
        e_i = (b x_{i-1} - a x_i) / (b - a)
        c_i = (y_i - y_{i-1} - d_i (y_N - y_0)) / (b - a)
        f_i = (b y_{i-1} - a y_i - d_i (b y_0 - a y_N)) / (b - a)

    Raises ValueError if ``len(d) != N`` or any |d_i| >= 1 (the maps must be
    contractive for the attractor to exist).  Calling the model evaluates it
    (see :func:`evaluate_fif`).
    """

    knots: Knots
    d: np.ndarray

    def __post_init__(self):
        d = _frozen_array(self.d, "scaling factors", size=self.knots.n_segments)
        if np.any(np.abs(d) >= 1.0):
            raise ValueError("vertical scalings must satisfy |d_i| < 1")
        object.__setattr__(self, "d", d)

    def __call__(self, x, depth: int | None = None):
        return evaluate_fif(self, x, depth)

    @property
    def contraction_factor(self) -> float:
        return float(np.max(np.abs(self.d)))

    @property
    def a(self) -> np.ndarray:
        x = self.knots.x
        return np.diff(x) / (x[-1] - x[0])

    @property
    def e(self) -> np.ndarray:
        x = self.knots.x
        return (x[-1] * x[:-1] - x[0] * x[1:]) / (x[-1] - x[0])

    @property
    def c(self) -> np.ndarray:
        x, y = self.knots.x, self.knots.y
        return (np.diff(y) - self.d * (y[-1] - y[0])) / (x[-1] - x[0])

    @property
    def f(self) -> np.ndarray:
        x, y = self.knots.x, self.knots.y
        a, b = x[0], x[-1]
        return (b * y[:-1] - a * y[1:] - self.d * (b * y[0] - a * y[-1])) / (b - a)


def build_model(knots: Knots, d: Sequence[float]) -> FifModel:
    """Assemble the IFS whose attractor interpolates ``knots``; see
    :class:`FifModel` for the map coefficients and the checks on ``d``."""
    return FifModel(knots, d)


def _bucket_table(breaks: np.ndarray, lo, hi):
    """The table of :func:`_count_breaks` for sorted ``breaks`` in [lo, hi]:
    equal buckets, 8 per point of the frame lo, breaks, hi and at most 2^20,
    ``first[j]`` = the breaks in buckets below j, the breaks behind one
    unread slot and padded with +inf, and the bisection steps."""
    buckets = min(8 * (breaks.size + 2), 1 << 20)  # 8 MiB of first at most
    scale = min(buckets / float(hi - lo), np.finfo(float).max)  # subnormal spans too
    keys = ((breaks - lo) * scale).astype(np.intp) + 1  # keys as in _count_breaks, shifted by one
    first = np.bincount(keys, minlength=int((hi - lo) * scale) + 1)  # so its cumsum counts keys < j
    steps = [1 << k for k in reversed(range(int(first.max()).bit_length()))]
    np.cumsum(first, out=first)
    pad = np.concatenate([[lo], breaks, np.full(2 * steps[0] - 1, np.inf)])
    return lo, hi, scale, first, pad, steps


def _count_breaks(table, x, above) -> np.ndarray:
    """The number of breaks b of ``table`` with ``above(q, b)`` for each q of
    ``x`` clamped into [lo, hi] (NaN to hi): ``np.greater_equal`` counts b <= q,
    ``np.greater`` b < q.  Bucket trunc((q - lo) * scale) is monotone in q, so
    only the breaks in q's bucket need a (branch-free) bisection."""
    lo, hi, scale, first, pad, steps = table
    q = np.fmax(np.fmin(np.asarray(x, dtype=float), hi), lo)
    count = first.take(((q - lo) * scale).astype(np.intp))
    for step in steps:
        count += step * above(q, pad.take(count + step))
    return count


def segment_indices(knots: Knots, x) -> np.ndarray:
    """Indices of the segments containing ``x`` (half-open, last closed);
    points below a label 0, points above b (and NaN) label N - 1.  Exact: the
    number of interior knots <= x, from a bucket table built once per knot set,
    one step per query for spread-out knots, floor(log2 N) + 1 at most."""
    return _count_breaks(knots._buckets, x, np.greater_equal)


def _chord(knots: Knots, seg: np.ndarray, x: np.ndarray):
    """Position t = (x - x_l)/(x_r - x_l) of ``x`` in its segment ``seg``,
    and alpha(x), the chord through the segment's endpoint knots.

    The chord is taken in the anchored form y_l + (y_r - y_l) * t, which
    returns segment endpoint values exactly (no slope/intercept cancellation
    even for abscissae ~1e4).
    """
    width, rise = knots._gaps
    t = x - knots.x.take(seg)
    t /= width.take(seg)
    alpha = rise.take(seg) * t
    return t, np.add(knots.y.take(seg), alpha, out=alpha)


def _abg_values(knots: Knots, seg: np.ndarray, x: np.ndarray):
    """Values of alpha, beta, gamma at ``x``, given segment indices ``seg``,
    all in the anchored form of :func:`_chord`."""
    kx, ky = knots.x, knots.y
    t, alpha = _chord(knots, seg, x)
    beta = t * (ky[-1] - ky[0])
    t *= kx[-1] - kx[0]  # t becomes gamma
    return alpha, np.add(ky[0], beta, out=beta), np.add(kx[0], t, out=t)


def _domain_points(knots: Knots, x) -> np.ndarray:
    """``x``, a scalar or an array, as a 1-D float array; raises ValueError
    if any point is NaN or lies outside [a, b]."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all((xs >= knots.x[0]) & (xs <= knots.x[-1])):  # False for NaN
        raise ValueError(f"abscissae outside model domain [{knots.a}, {knots.b}] or NaN")
    return xs


def hutchinson_apply(model: FifModel, g: Series) -> Series:
    """One application of the function-space operator Phi to ``g``.

    Returns Phi(g) sampled on the same grid; g(gamma_i(x)) is obtained by
    linear interpolation between the grid samples.  The grid must span the
    model domain [a, b] exactly, since gamma stretches every segment onto
    the whole of it.
    """
    knots = model.knots
    if g.z[0] != knots.x[0] or g.z[-1] != knots.x[-1]:
        raise ValueError("grid endpoints must coincide with the model domain")
    seg = segment_indices(knots, g.z)
    alpha, beta, gamma = _abg_values(knots, seg, g.z)
    d = model.d
    g_at_gamma = np.interp(gamma, g.z, g.w)
    return Series(g.z, alpha - d[seg] * (beta - g_at_gamma))


def evaluate_fif(model: FifModel, x, depth: int | None = None):
    """Evaluate the attractor of the model at ``x`` to within ``TOL``, or with
    an explicit ``depth`` its pre-fractal (Phi^depth b0)(x), b0 the chord
    through the endpoint knots, by unrolling the recursion

        g(x) = alpha_i(x) - d_i * (beta_i(x) - g(gamma_i(x)))

    into an accumulated affine transform s * b0 + offset.  A point is then
    within |s| * B of the attractor and stops once |s| is at most the floor
    TOL / B of :func:`_certificate`; at a given depth it stops early only at
    s == 0.  Every pre-fractal from depth 1 on passes through all knots
    (depth 0 is b0, which passes through the endpoint knots only).

    A stopped point keeps its slot, marked by a NaN s, which no later
    ``<= floor`` test passes, until half of its block has stopped; then one
    ``take`` compacts the block's working arrays.

    Accepts a scalar or an array; raises ValueError at NaN or outside [a, b].
    """
    depth, floor = _certificate(model) if depth is None else (depth, 0.0)
    if depth < 0:
        raise ValueError("depth must be >= 0")
    knots, d = model.knots, model.d
    xs = _domain_points(knots, x)
    flat, out = xs.ravel(), np.empty(xs.size)
    for rows in _blocks(xs.size):
        values, cur = out[rows], flat[rows]
        slot, offset, scale = np.arange(cur.size), np.zeros(cur.size), np.ones(cur.size)
        stopped = 0
        for _ in range(depth):
            if not slot.size:
                break
            seg = segment_indices(knots, cur)
            alpha, beta, gamma = _abg_values(knots, seg, cur)
            di = d.take(seg)
            alpha -= np.multiply(di, beta, out=beta)
            offset += np.multiply(scale, alpha, out=alpha)
            scale *= di
            # gamma is exact at segment endpoints but may drift out by one ulp
            # strictly inside; clamp so the next level's lookup stays in domain.
            cur = np.clip(gamma, knots.x[0], knots.x[-1], out=gamma)
            done = np.flatnonzero(np.abs(scale) <= floor)
            if done.size:
                leaf = _chord_b0(knots, cur.take(done))
                values[slot.take(done)] = offset.take(done) + scale.take(done) * leaf
                scale[done] = np.nan
                stopped += done.size
                if 2 * stopped >= slot.size:
                    keep = np.flatnonzero(scale == scale)
                    slot, cur, offset, scale = (v.take(keep) for v in (slot, cur, offset, scale))
                    stopped = 0
        live = scale == scale
        values[slot[live]] = (offset + scale * _chord_b0(knots, cur))[live]
    return float(out[0]) if np.ndim(x) == 0 else out.reshape(xs.shape)


def _chord_b0(knots: Knots, x):
    """b0(x), the chord through the endpoint knots, anchored as beta in
    :func:`_abg_values`: t = (x - a)/(b - a) is in [0, 1], so nothing overflows."""
    kx, ky = knots.x, knots.y
    t = (x - kx[0]) / (kx[-1] - kx[0])
    return ky[0] + t * (ky[-1] - ky[0])


def _certificate(model: FifModel) -> tuple[int, float]:
    """The depth and stop floor of default evaluation.  For c = max|d_i| and
    gap = ||Phi b0 - b0||_inf = max_k |y_k - b0(x_k)| (beta_i is b0 o gamma_i,
    so Phi b0 is the polyline through the knots), b0 lies within
    B = gap / (1 - c) of the attractor g* (Barnsley, Constr. Approx. 1986).
    D is 0 at gap = 0, where b0 is the attractor, else the smallest D >= 1
    with c^D * B <= TOL, taken in logs; the floor TOL * (1 - c) / gap is
    TOL / B without forming B; D over ``MAX_LEVELS`` raises ValueError."""
    knots, c = model.knots, model.contraction_factor
    gap = float(np.max(np.abs(knots.y - _chord_b0(knots, knots.x))))
    if gap == 0.0:
        return 0, 0.0
    with np.errstate(divide="ignore"):  # log(0) = -inf: c == 0 takes max(1, 0) = 1 level
        depth = max(1, int(np.ceil((np.log(gap) - np.log1p(-c) - np.log(TOL)) / -np.log(c))))
    if depth > MAX_LEVELS:
        raise ValueError(f"max|d_i| = {c:.10g} needs {depth} evaluation levels, "
                         f"more than {MAX_LEVELS}; pass an explicit --depth")
    return depth, TOL * (1.0 - c) / gap


def default_depth(model: FifModel) -> int:
    """Levels that bring every point within ``TOL`` of the attractor: the
    depth D of :func:`_certificate`.  Raises ValueError when D exceeds
    ``MAX_LEVELS``; only an explicit depth evaluates then."""
    return _certificate(model)[0]


def fixed_point_residual(
    model: FifModel, grid_resolution: int, depth: int | None = None
) -> float:
    """Self-consistency diagnostic: sup-norm of Phi(g) - g for g sampled
    from :func:`evaluate_fif` on a uniform grid.

    Near zero when the evaluation depth has converged and the grid resolves
    the attractor (gamma maps grid points to grid points whenever the knots
    are uniform and the interval count divides the grid's, making the
    interpolation step in Phi exact).
    """
    if grid_resolution < 2:
        raise ValueError("grid resolution must be >= 2")
    grid = np.linspace(model.knots.a, model.knots.b, grid_resolution)
    values = evaluate_fif(model, grid, depth)
    image = hutchinson_apply(model, Series(grid, values))
    return float(np.max(np.abs(image.w - values)))
