"""Seeded inputs of the three workloads, made with numpy alone.

The program never sees a seed: it receives the files and arrays made here.
The same seed gives byte-identical inputs.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from reference import collage_d

M_LARGE = 1_000_000
M_SMALL = 1_000


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def random_walk(m_count: int, seed: int, stream: int) -> tuple[np.ndarray, np.ndarray]:
    """A normalized Gaussian random walk on abscissae 1..M.

    Normalized to mean 0 and mean square 1, as ``fractalfit gen`` writes it.
    """
    v = np.concatenate(([0.0], np.cumsum(_rng(seed, stream).standard_normal(m_count - 1))))
    w = (v - np.mean(v)) / np.std(v)
    return np.arange(1, m_count + 1, dtype=float), w


def write_series_csv(path: Path, z: np.ndarray, w: np.ndarray) -> None:
    """The ``z,w`` CSV with repr floats, byte for byte as ``write_series_csv``."""
    lines = ["z,w"]
    lines.extend(f"{a!r},{b!r}" for a, b in zip(z.tolist(), w.tolist()))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def compare_walk(work: Path, seed: int) -> tuple[Path, Path, list[int], np.ndarray, np.ndarray]:
    """compare-1m: the north-star command on a 10^6-row CSV.

    Exists because end-to-end time there goes to interpreter start, import
    and CSV ingestion, not to the math: with 4 segments the fit and the
    evaluation are small.  The knot triple is the one of 64 seeded triples
    whose fitted contraction, on every 8th sample, is closest to 0.2.  So
    every seed evaluates at depth 13 or 14 and the math keeps the same small
    share of the run (free triples give contractions of 0.1 to 0.7, that is
    depths of 9 to 48); deep evaluation is what eval-rough measures.

    Returns the large CSV, a 1000-row CSV for set-up, the 1-based interior
    knot indices, and the large series.
    """
    z, w = random_walk(M_LARGE, seed, 1)
    rng = _rng(seed, 2)
    zs, ws = z[::8], w[::8]
    tenth = zs.size // 10
    best, indices = np.inf, None
    tried = 0
    while tried < 64:
        j = np.sort(rng.integers(tenth, 9 * tenth, 3))
        if np.min(np.diff(j)) < tenth:
            continue
        tried += 1
        full = np.concatenate(([0], j, [zs.size - 1]))
        c = float(np.max(np.abs(collage_d(zs, ws, zs[full], ws[full]))))
        if abs(c - 0.2) < best:
            best, indices = abs(c - 0.2), 8 * j + 1
    large = work / "walk.csv"
    write_series_csv(large, z, w)
    small = work / "walk_small.csv"
    write_series_csv(small, *random_walk(M_SMALL, seed, 3))
    return large, small, [int(i) for i in indices], z, w


def wide_walk(work: Path, seed: int) -> tuple[np.ndarray, np.ndarray, Path]:
    """fit-wide: 1023 extrema knots on an in-memory 10^6-sample walk.

    Exists because the fit dominates here: the per-segment mask loops of
    ``fit_d_discrete`` and ``fit_quadratic`` cost O(N M), the uneven
    segments (about 100 to 10^4 samples) keep any per-segment shortcut
    honest, and the evaluation depth stays under 10.  No import or CSV is
    timed.  Also writes the 1000-sample walk that set-up runs on.
    """
    z, w = random_walk(M_LARGE, seed, 4)
    small = work / "walk_small.npy"
    np.save(small, np.stack(random_walk(M_SMALL, seed, 5)))
    return z, w, small


#: Domain of the rough model: the 1000001-point grid is then the integers.
ROUGH_B = 1_000_000
ROUGH_SEGMENTS = 16
#: |alpha_k - beta_k| at the fixed point x* of the d = 0.95 segment.
ROUGH_GAP = 0.25


def rough_model(work: Path, seed: int) -> tuple[Path, dict]:
    """eval-rough: a 16-segment model whose default depth hits its cap of 48.

    Exists because evaluation and the 10^6-row curve CSV dominate here, and
    because it is where adaptive evaluation shows: d is uniform in +-0.6, so
    most point-levels are negligible at 1e-9, except one segment with
    d = 0.95.  That segment is [14601 m, 14601 m + 65536], whose map fixes
    the grid point x* = 15625 m with t = m / 64 exact in binary, so the
    evaluation path of x* stays in it at every level.  There the depth-48
    truncation error is 0.95^48 / (1 - 0.95) * ROUGH_GAP, about 0.43, on
    every seed: the knot ordinate y_k is set to give that gap.

    Returns the model JSON path and a dict of the arrays the checks need.
    """
    rng = _rng(seed, 6)
    m = int(rng.integers(16, 49))
    left, right, fixed = 14601 * m, 14601 * m + 65536, 15625 * m
    inner: list[int] = []
    while len(inner) < ROUGH_SEGMENTS - 3:
        cand = int(rng.integers(2000, ROUGH_B - 2000))
        if left - 2000 < cand < right + 2000 or any(abs(cand - o) < 2000 for o in inner):
            continue
        inner.append(cand)
    kx = np.array(sorted(inner + [0, left, right, ROUGH_B]), dtype=float)
    k = int(np.searchsorted(kx, left))
    ky = rng.uniform(-1.0, 1.0, kx.size)
    t = m / 64
    beta = ky[0] + (ky[-1] - ky[0]) * t
    ky[k + 1] = ky[k] + (beta + ROUGH_GAP * rng.choice([-1.0, 1.0]) - ky[k]) / t
    d = rng.uniform(-0.6, 0.6, ROUGH_SEGMENTS)
    d[k] = 0.95
    payload = {
        "schema_version": "1",
        "kind": "fractal",
        "domain": [0.0, float(ROUGH_B)],
        "knots": [[float(x), float(y)] for x, y in zip(kx, ky)],
        "parameters": {
            "d": [float(v) for v in d],
            "clamped": [False] * ROUGH_SEGMENTS,
            "degenerate": [False] * ROUGH_SEGMENTS,
        },
        "normalization": None,
        "provenance": {"input_sha256": None, "seed": None, "tool_version": "0.1.0"},
    }
    path = work / "rough.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path, {"kx": kx, "ky": ky, "d": d, "fixed": fixed}
