"""Independent oracle for the benchmark's output checks.

Nothing here calls into ``fractalfit``: the fit, the quadratic baseline and
the attractor are recomputed from their defining formulas, so a change to
the program that alters a printed number shows up as a mismatch.

Segments are half-open [x_i, x_{i+1}), the last one closed, and knots are
samples, so every segment of a series is one contiguous slice and every
per-segment sum is one ``np.add.reduceat``.
"""

from __future__ import annotations

import numpy as np

#: The per-point stopping tolerance of the reference attractor.
REF_TOL = 1e-13
#: The tolerance whose still-needed levels ``needed_level_share`` counts.
NEEDED_TOL = 1e-9
#: Clamp the program applies to fitted |d_i| (``D_MAX_DEFAULT``).
D_MAX = 0.99
#: Cap on reference levels; reaching it raises rather than truncating.
MAX_LEVELS = 20_000


def _anchored(kx, ky, x):
    """Segment index, alpha, beta and gamma at ``x`` in the anchored form."""
    seg = np.clip(np.searchsorted(kx, x, side="right") - 1, 0, kx.size - 2)
    xl = kx[seg]
    t = (x - xl) / (kx[seg + 1] - xl)
    alpha = ky[seg] + (ky[seg + 1] - ky[seg]) * t
    beta = ky[0] + (ky[-1] - ky[0]) * t
    gamma = kx[0] + (kx[-1] - kx[0]) * t
    return seg, alpha, beta, gamma


def chord(kx, ky, x):
    """b0, the chord through the endpoint knots."""
    return ky[0] + (ky[-1] - ky[0]) * (x - kx[0]) / (kx[-1] - kx[0])


def tail_bound(kx, ky, d) -> float:
    """B = ||Phi b0 - b0||_inf / (1 - c), which bounds ||g* - b0||_inf.

    beta_i equals b0 o gamma_i, so Phi b0 is the polyline through the knots
    and its largest distance from the chord is attained at a knot.
    """
    c = float(np.max(np.abs(d)))
    return float(np.max(np.abs(ky - chord(kx, ky, kx)))) / (1.0 - c)


def attractor(kx, ky, d, x, tol: float = REF_TOL) -> np.ndarray:
    """The attractor at ``x`` by the plain recursion g = alpha - d (beta - g o gamma).

    Each point runs until |prod d| * B < ``tol``, so the result is within
    ``tol`` of the fixed point.
    """
    kx, ky, d = (np.asarray(v, dtype=float) for v in (kx, ky, d))
    cur = np.array(x, dtype=float)
    bound = tail_bound(kx, ky, d)
    offset = np.zeros_like(cur)
    scale = np.ones_like(cur)
    active = np.arange(cur.size) if bound >= tol else np.zeros(0, dtype=np.int64)
    for _ in range(MAX_LEVELS):
        if not active.size:
            return offset + scale * chord(kx, ky, cur)
        seg, alpha, beta, gamma = _anchored(kx, ky, cur[active])
        offset[active] += scale[active] * (alpha - d[seg] * beta)
        scale[active] *= d[seg]
        cur[active] = np.clip(gamma, kx[0], kx[-1])
        active = active[np.abs(scale[active]) * bound >= tol]
    raise RuntimeError("reference attractor did not converge")


def needed_levels(kx, ky, d, x, depth: int, tol: float = NEEDED_TOL) -> int:
    """Point-levels among ``x.size * depth`` at which |prod d| * B >= ``tol``.

    Level l of a point is needed when stopping before it could leave an
    error of ``tol`` or more; the products only shrink, so every later level
    of a point that stops being needed is unneeded too.
    """
    kx, ky, d = (np.asarray(v, dtype=float) for v in (kx, ky, d))
    bound = tail_bound(kx, ky, d)
    cur = np.array(x, dtype=float)
    scale = np.ones_like(cur)
    total = 0
    for _ in range(depth):
        keep = np.abs(scale) * bound >= tol
        total += int(np.count_nonzero(keep))
        if not keep.any():
            break
        cur, scale = cur[keep], scale[keep]
        seg, _, _, gamma = _anchored(kx, ky, cur)
        scale *= d[seg]
        cur = np.clip(gamma, kx[0], kx[-1])
    return total


def _segments(z, kx):
    """Start index of each segment's slice of the samples ``z``."""
    starts = np.searchsorted(z, kx[:-1])
    if not np.array_equal(z[starts], kx[:-1]) or z[-1] != kx[-1]:
        raise ValueError("knots are not samples of the series")
    return starts


def _collage(z, w, kx, ky):
    """Per-segment collage least squares (Mazel and Hayes, IEEE TSP 1992).

    g is the nearest-sample extension of the data; d_i minimizes the
    segment's sum of (w - alpha + d_i (beta - g o gamma))^2, with the
    program's degeneracy threshold and clamp.
    """
    starts = _segments(z, kx)
    seg = np.repeat(np.arange(starts.size), np.diff(np.append(starts, z.size)))
    _, alpha, beta, gamma = _anchored(kx, ky, z)
    # nearest sample, midway ties to the left
    g_gamma = w[np.searchsorted((z[:-1] + z[1:]) / 2.0, gamma, side="left")]
    basis = beta - g_gamma
    num = np.add.reduceat((alpha - w) * basis, starts)
    den = np.add.reduceat(basis * basis, starts)
    eps_den = 1e-12 * z.size * (np.max(np.abs(w)) + np.max(np.abs(ky))) ** 2
    degenerate = den <= eps_den
    d = np.where(degenerate, 0.0, num / np.where(degenerate, 1.0, den))
    clamped = np.abs(d) > D_MAX
    d = np.where(clamped, np.sign(d) * D_MAX, d)
    return starts, seg, alpha, basis, d, clamped


def collage_d(z, w, kx, ky) -> np.ndarray:
    """The fitted scalings d_i of ``fit_d_discrete``."""
    return _collage(*(np.asarray(v, dtype=float) for v in (z, w, kx, ky)))[4]


def expected_row(z, w, kx, ky) -> dict:
    """fractal_rms, quadratic_rms and collage_bound of ``analysis.compare``.

    The baseline is the knot-interpolating quadratic with one free
    curvature per segment, fitted on the samples strictly inside it.
    """
    z, w, kx, ky = (np.asarray(v, dtype=float) for v in (z, w, kx, ky))
    starts, seg, alpha, basis, d, clamped = _collage(z, w, kx, ky)
    resid = w - (alpha - d[seg] * basis)
    c = float(np.max(np.abs(d)))

    xl, xr = kx[seg], kx[seg + 1]
    line = ky[seg] + (ky[seg + 1] - ky[seg]) * (z - xl) / (xr - xl)
    bubble = (z - xl) * (z - xr)
    inner = (z > xl) & (z < xr)
    bb = np.add.reduceat(np.where(inner, bubble * bubble, 0.0), starts)
    bw = np.add.reduceat(np.where(inner, (w - line) * bubble, 0.0), starts)
    fallback = bb == 0.0
    curvature = np.where(fallback, 0.0, bw / np.where(fallback, 1.0, bb))
    quad = line + curvature[seg] * bubble

    fif = attractor(kx, ky, d, z)
    return {
        "fractal_rms": float(np.sqrt(np.mean((fif - w) ** 2))),
        "quadratic_rms": float(np.sqrt(np.mean((quad - w) ** 2))),
        "collage_bound": float(np.sqrt((resid @ resid) / z.size) / (1.0 - c)),
        "clamped": int(np.count_nonzero(clamped)),
    }
