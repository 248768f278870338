"""Series generators, ingestion, normalization, and knot selection.

Three built-in generators produce the raw series used throughout:

* a quintic polynomial sampled uniformly (its argument sweeps [-1, 2.5]),
* a DNA walk (+1 for purines A/G, -1 for pyrimidines C/T, cumulated),
* a seeded Gaussian random walk.

Raw series are normalized to mean 0 and mean-square 1 before fitting, so
errors are comparable across datasets.  Knots are chosen either manually
(1-based interior sample indices) or automatically at the most prominent
local extrema of a smoothed copy of the data.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from os import PathLike
from pathlib import Path
from typing import Sequence

import numpy as np

from .ifs_core import Knots, Series

__all__ = [
    "NormalizationParams",
    "gen_polynomial",
    "gen_dna_walk",
    "gen_random_walk",
    "load_series_csv",
    "normalize",
    "select_knots",
]


@dataclass(frozen=True)
class NormalizationParams:
    """Mean s1 and population standard deviation s2 used to normalize."""

    s1: float
    s2: float

    def __post_init__(self):
        if not self.s2 > 0:
            raise ValueError("standard deviation must be positive")


def gen_polynomial(m_count: int) -> Series:
    """Raw quintic series: v_m = f(7 (m-1) / (2 (M-1)) - 1), z_m = m.

    f(x) = -6x + 5x^2 + 5x^3 - 5x^4 + x^5, evaluated in Horner form so the
    result is bit-for-bit reproducible across platforms.
    """
    if m_count < 2:
        raise ValueError("need at least 2 samples")
    m = np.arange(1, m_count + 1, dtype=float)
    arg = 7.0 * (m - 1.0) / (2.0 * (m_count - 1.0)) - 1.0
    v = arg * (-6.0 + arg * (5.0 + arg * (5.0 + arg * (-5.0 + arg))))
    return Series(m, v)


def gen_dna_walk(text: str) -> Series:
    """Walk representation of a nucleotide sequence.

    Accepts plain sequence text or FASTA (lines starting with '>' are
    ignored); whitespace is stripped and case folded.  The walk starts at
    v_1 = 0 on the first nucleotide and steps by +1 for A/G and -1 for C/T
    from the second nucleotide on.
    """
    lines = [ln for ln in text.splitlines() if not ln.lstrip().startswith(">")]
    sequence = "".join("".join(lines).split()).upper()
    if not sequence:
        raise ValueError("empty nucleotide sequence")
    if bad := re.search("[^ACGT]", sequence):
        raise ValueError(f"invalid nucleotide {bad[0]!r} at position {bad.start() + 1}")
    steps = np.where(np.isin(np.frombuffer(sequence.encode("ascii"), np.uint8), tuple(b"AG")), 1.0, -1.0)
    v = np.concatenate([[0.0], np.cumsum(steps[1:])])
    return Series(np.arange(1, v.size + 1, dtype=float), v)


def gen_random_walk(m_count: int, seed: int) -> Series:
    """Gaussian random walk v_1 = 0, v_m = v_{m-1} + xi_m, xi ~ N(0, 1).

    The same (m_count, seed) always produces the identical series.
    """
    if m_count < 2:
        raise ValueError("need at least 2 samples")
    rng = np.random.default_rng(seed)
    v = np.concatenate([[0.0], np.cumsum(rng.standard_normal(m_count - 1))])
    return Series(np.arange(1, m_count + 1, dtype=float), v)


def load_series_csv(path: str | PathLike) -> Series:
    """Read a series from CSV: one numeric column (abscissae become 1..M)
    or two columns (z, w).  An optional single header line is detected by a
    non-numeric first field.  Blank lines are skipped; line numbers in error
    messages count every line of the file."""
    return Series(*_read_columns(path))


def _read_columns(path, raw: bytes | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The (z, w) columns of one or more finite rows, by the rules of
    :func:`load_series_csv` bar the order of z and the sample count; ``raw``
    is the file's bytes when the caller has read them.  numpy's reader takes
    a subset of the spellings of ``float()``, to the same values; the scan
    reads what it declines.  No message names the file: the caller does."""
    text = (Path(path).read_bytes() if raw is None else raw).decode("utf-8")
    data = _fast_rows(path, text)
    if data is None or data.shape[1] > 2:
        data = _scan_rows(text)
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        lineno, _ = _numbered_data_lines(text)[int(np.argmin(finite))]
        raise ValueError(f"non-finite value on line {lineno}")
    if data.shape[1] == 1:
        return np.arange(1, data.shape[0] + 1, dtype=float), data[:, 0]
    return data[:, 0], data[:, 1]


def _is_header(line: str) -> bool:
    try:
        float(line.split(",", 1)[0])
    except ValueError:
        return True
    return False


def _fast_rows(path, text: str) -> np.ndarray | None:
    """The cells of ``text``, read by ``np.loadtxt`` from ``path`` if it is a
    regular file (faster), else from the lines of ``text`` (a pipe is drained);
    None if numpy raises or warns, or where its rules and the scan's part: at
    the line breaks of ``str.splitlines`` that numpy does not know, and at
    U+001F, which numpy strips from a line's end and ``float()`` refuses.  The
    first line is skipped if blank or a header; numpy raises at a later header."""
    if any(char in text for char in "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029\x1f"):
        return None
    skip = int(_is_header(re.match("[^\r\n]*", text)[0]))
    source = path if Path(path).is_file() else text.splitlines()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # "input contained no data"
            return np.loadtxt(source, encoding="utf-8", delimiter=",", comments=None,
                              skiprows=skip, ndmin=2)
    except (ValueError, UserWarning):
        return None


def _numbered_data_lines(text: str) -> list[tuple[int, str]]:
    """(1-based file line number, line) of each data line: non-blank, past
    the header if there is one."""
    numbered = [(n, line) for n, line in enumerate(text.splitlines(), start=1) if line.strip()]
    if numbered and _is_header(numbered[0][1]):
        del numbered[0]
    return numbered


def _scan_rows(text: str) -> np.ndarray:
    """The cells of ``text``, one Python ``float()`` each, as a (rows, 1 or
    2) array.  Raises for the first data line with a non-numeric cell or a
    bad column count, then for no rows at all."""
    values: list[float] = []
    columns = None
    for lineno, line in _numbered_data_lines(text):
        cells = line.split(",")
        try:
            values.extend(map(float, cells))
        except ValueError:
            raise ValueError(f"non-numeric value on line {lineno}") from None
        if len(cells) not in (1, 2) or columns not in (None, len(cells)):
            raise ValueError(f"expected 1 or 2 columns, got {len(cells)} on line {lineno}")
        columns = len(cells)
    if not values:
        raise ValueError("no data rows")
    return np.array(values).reshape(-1, columns)


def normalize(series: Series) -> tuple[Series, NormalizationParams]:
    """Center and scale to mean 0, mean-square 1: w = (v - s1) / s2.

    s2 is the population standard deviation (divide by M) -- the sample
    convention would leave the mean square at M/(M-1), not 1.
    """
    s1 = float(np.mean(series.w))
    s2 = float(np.std(series.w))
    if s2 == 0.0:
        raise ValueError("constant series cannot be normalized")
    return Series(series.z, (series.w - s1) / s2), NormalizationParams(s1, s2)


def _moving_average(values: np.ndarray, window: int) -> np.ndarray:
    padded = np.pad(values, window // 2, mode="edge")
    return np.convolve(padded, np.full(window, 1.0 / window), mode="valid")


def _prominent_peaks(s: np.ndarray, prominence: float,
                     signs: tuple[float, ...] = (1.0,)) -> tuple[np.ndarray, np.ndarray]:
    """Indices and prominences of the maxima of ``sign * s`` with at least
    ``prominence``, as ``select_knots`` defines both, in index order for
    each of ``signs`` in turn: ``(1.0, -1.0)`` gives maxima, then minima.

    A peak is a run of equal samples higher than the runs either side.  On
    each side, every sample from the nearest strictly higher peak (or the
    end of ``s``) to the first strictly higher sample is higher than the
    peak, or a higher peak would lie in between.  So a base minimum is the
    lowest of the gaps between neighbouring peaks out to that nearest higher
    peak, which :func:`_base_minima` finds on each side.  Peaks and troughs
    alternate with monotone runs between them, so each gap is the lowest of
    the turning and end runs it spans, and the signs share one decomposition.
    """
    starts = np.flatnonzero(np.concatenate([[True], s[1:] != s[:-1]]))
    runs = s[starts]
    rise = np.diff(runs) > 0
    turn = np.flatnonzero(rise[:-1] != rise[1:]) + 1
    middles = (starts[turn] + starts[turn + 1] - 1) // 2
    # the first run, the turning runs and the last run, up and down in turn
    zigzag = runs[np.concatenate([[0], turn, [runs.size - 1]])]
    found = []
    for sign in signs:
        top = np.flatnonzero(rise[turn - 1] == (sign > 0))  # the peaks of sign * s
        heights = sign * zigzag[top + 1]
        # gaps[k] is the lowest value before peak k (back to peak k - 1); gaps[-1] follows the last
        gaps = np.minimum.reduceat(sign * zigzag, np.append(0, top + 1))
        left = _base_minima(heights, gaps[:-1])
        right = _base_minima(heights[::-1], gaps[:0:-1])[::-1]
        prominences = heights - np.maximum(left, right)
        keep = prominences >= prominence
        found.append((middles[top][keep], prominences[keep]))
    return tuple(map(np.concatenate, zip(*found)))


def _base_minima(heights: np.ndarray, gaps: np.ndarray) -> np.ndarray:
    """For each peak k, the lowest of ``gaps[j + 1 .. k]``, where j is the
    nearest earlier peak strictly higher than peak k (all of ``gaps[:k + 1]``
    if there is none).  Doubling tables make both O(n log n): lifting over
    range maxima of ``heights`` finds j + 1, and the two power-of-two blocks
    that cover j + 1 .. k give the minimum, exactly (only min and max)."""
    peak = np.arange(heights.size)
    highest, lowest = _doubling(heights, np.maximum), _doubling(gaps, np.minimum)
    start = peak.copy()
    for level in reversed(range(len(highest))):
        below = start - (1 << level)  # peaks below[k] .. start[k] - 1, if none is higher
        step = (below >= 0) & (highest[level].take(np.maximum(below, 0)) <= heights)
        start = np.where(step, below, start)
    level = np.frexp(peak - start + 1)[1] - 1  # floor(log2(length)) of j + 1 .. k
    return np.minimum(lowest[level, start], lowest[level, peak + 1 - (1 << level)])


def _doubling(values: np.ndarray, op) -> np.ndarray:
    """``table[p, i]`` = ``op`` over ``values[i : i + 2**p]``, the window cut
    short at the end of ``values``, for every p with 2**p <= len(values)."""
    table = [values]
    for level in range(1, values.size.bit_length()):
        half, prev = 1 << (level - 1), table[-1]
        table.append(np.concatenate([op(prev[:-half], prev[half:]), prev[-half:]]))
    return np.array(table)


def select_knots(
    series: Series,
    mode: str = "manual",
    *,
    indices: Sequence[int] | None = None,
    n_interior: int | None = None,
    window: int = 101,
    prominence: float = 0.05,
) -> Knots:
    """Choose interpolation knots on the series; ordinates always come from
    the series itself, and both endpoints are always knots.

    Mode ``manual`` takes 1-based interior sample ``indices`` (1 and M are
    reserved for the endpoints).  Mode ``extrema`` smooths the series with a
    centered moving average of odd ``window`` length below 2M - 1 (a longer
    one makes every series a straight line), finds local maxima and minima
    with at least ``prominence``, and keeps the ``n_interior`` most
    prominent ones (ties broken toward smaller index).  If fewer candidates
    than requested are found, the fit proceeds with what exists, except that
    fewer than 2 candidates against a request of >= 2 is an error.

    A maximum's prominence is its height minus the higher of its two base
    minima; each base minimum is the lowest sample between the maximum and
    the first strictly higher sample on that side, or the end of the series
    if there is none.  A flat top counts once, at its middle sample rounded
    down, and never at either end.  Minima are the maxima of the negated
    series.  These are the definitions of ``signal.find_peaks``, which
    ``tests/test_datasets.py`` checks against; see the docstring of
    ``signal.peak_prominences``.
    """
    m_count = series.m_count
    if mode == "manual":
        if not indices:
            raise ValueError("manual mode requires interior knot indices")
        if any(isinstance(i, bool) or not isinstance(i, (int, np.integer)) for i in indices):
            raise ValueError("interior knot indices must be integers")
        chosen = sorted(int(i) for i in indices)
        if len(set(chosen)) != len(chosen):
            raise ValueError("duplicate knot indices")
        for i in chosen:
            if not 2 <= i <= m_count - 1:
                raise ValueError(
                    f"interior knot index {i} out of range 2..{m_count - 1} "
                    "(indices are 1-based; 1 and M are reserved for endpoints)"
                )
        interior = np.asarray(chosen, dtype=int) - 1
    elif mode == "extrema":
        if n_interior is None or n_interior < 1:
            raise ValueError("extrema mode requires n_interior >= 1")
        if window < 1 or window % 2 == 0 or window >= 2 * m_count - 1:
            raise ValueError(f"smoothing window {window} must be a positive odd integer below 2M - 1 = {2 * m_count - 1}")
        smoothed = _moving_average(series.w, window)
        peaks, proms = _prominent_peaks(smoothed, prominence, (1.0, -1.0))
        if peaks.size == 0 or (n_interior >= 2 and peaks.size < 2):
            raise ValueError(
                f"found only {peaks.size} interior extrema with prominence >= "
                f"{prominence} (window {window}); need at least {min(n_interior, 2)}"
            )
        interior = np.sort(peaks[np.lexsort((peaks, -proms))[:n_interior]])
    else:
        raise ValueError(f"unknown knot selection mode {mode!r}")

    full = np.concatenate([[0], interior, [m_count - 1]])
    return Knots(series.z[full], series.w[full])
