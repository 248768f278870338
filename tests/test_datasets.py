import itertools
import math
import os
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalfit import (
    NormalizationParams,
    Series,
    gen_dna_walk,
    gen_polynomial,
    gen_random_walk,
    load_series_csv,
    normalize,
    select_knots,
)
from fractalfit.datasets import _base_minima, _moving_average, _prominent_peaks


def quintic(x):
    # plain monomial form, deliberately not Horner, as an independent check
    return -6 * x + 5 * x**2 + 5 * x**3 - 5 * x**4 + x**5


def oracle_load_series_csv(path):
    """Reference loader: one Python float() per cell, line by line.

    The rules and messages of the loop are those load_series_csv keeps; the
    non-finite check after it is the one rule added to them, and it runs
    only once every line is well formed and a row exists.  No message names
    the file, and the 2-sample rule is left to Series."""
    text = Path(path).read_text(encoding="utf-8")
    rows: list[list[float]] = []
    linenos: list[int] = []
    first_line = True
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        cells = [c.strip() for c in line.split(",")]
        header_candidate = first_line
        first_line = False
        try:
            values = [float(c) for c in cells]
        except ValueError:
            try:
                float(cells[0])
            except ValueError:
                if header_candidate:
                    continue
            raise ValueError(f"non-numeric value on line {lineno}")
        if len(values) not in (1, 2) or (rows and len(values) != len(rows[-1])):
            raise ValueError(f"expected 1 or 2 columns, got {len(values)} on line {lineno}")
        rows.append(values)
        linenos.append(lineno)
    if not rows:
        raise ValueError("no data rows")
    for lineno, values in zip(linenos, rows):
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"non-finite value on line {lineno}")
    data = np.array(rows)
    if data.shape[1] == 1:
        return Series(np.arange(1, data.shape[0] + 1, dtype=float), data[:, 0])
    return Series(data[:, 0], data[:, 1])


def load_outcome(load, path):
    """The loaded arrays as bytes (bit-exact), or the error message."""
    try:
        series = load(path)
    except ValueError as exc:
        return str(exc)
    return series.z.tobytes(), series.w.tobytes()


_PADDING = st.sampled_from(["", "", " ", "\t", "\u00a0", "\u2003"])
_GOOD_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**6), 10**6).map(str),
    st.sampled_from(["1_0", "-0", ".5", "5.", "1e-400", "\u0661\u0662", "+3E2"]),
)
_SPECIAL_CELLS = st.sampled_from(
    ["nan", "-inf", "Infinity", "1e400", "", "oops", "1__0", "0x1", "#1", "1 2", "--1", "1,2"]
)


@st.composite
def csv_texts(draw):
    """CSV text near the loader's accepted format: optional header, blank
    lines, LF/CRLF/CR/form-feed line breaks, padded cells, 1 or 2 columns,
    and now and then a non-finite or malformed cell or a ragged row."""
    columns = draw(st.sampled_from([1, 2]))
    lines = []
    header = draw(st.sampled_from([None, "z,w", "value", "x, y, z", "1.0,oops", "w,1"]))
    if header is not None:
        lines.append(header)
    for i in range(draw(st.integers(0, 8))):
        value = draw(_SPECIAL_CELLS if draw(st.integers(0, 19)) == 0 else _GOOD_CELLS)
        abscissa = draw(st.sampled_from([str(i + 1), repr(i + 1.0), f"{i + 1}e0", f"{i + 1}_0"]))
        cells = [abscissa, value] if columns == 2 else [value]
        ragged = draw(st.integers(0, 29))
        if ragged == 0:
            cells.append(value)
        elif ragged == 1:
            cells.pop()
        lines.append(",".join(draw(_PADDING) + cell + draw(_PADDING) for cell in cells))
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t"])))
    breaks = [draw(st.sampled_from(["\n", "\n", "\r\n", "\r", "\x0c"])) for _ in lines]
    return "".join(line + brk for line, brk in zip(lines, breaks)) + draw(st.sampled_from(["", "\n"]))


class TestGenPolynomial:
    def test_endpoint_values_exact(self):
        series = gen_polynomial(10_000)
        assert series.m_count == 10_000
        assert series.z[0] == 1.0 and series.z[-1] == 10_000.0
        assert series.w[0] == 0.0          # f(-1) = 0, all terms dyadic
        assert series.w[-1] == -3.28125    # f(2.5), dyadic as well

    def test_midpoint_argument(self):
        # M = 3 puts the middle sample at the argument midpoint 0.75
        series = gen_polynomial(3)
        np.testing.assert_allclose(series.w[1], quintic(0.75), rtol=1e-15)

    def test_matches_monomial_form(self):
        series = gen_polynomial(257)
        args = 7.0 * (np.arange(257)) / (2.0 * 256.0) - 1.0
        np.testing.assert_allclose(series.w, quintic(args), rtol=1e-12, atol=1e-12)

    def test_deterministic(self):
        a, b = gen_polynomial(500), gen_polynomial(500)
        assert np.array_equal(a.w, b.w)

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            gen_polynomial(1)


class TestGenDnaWalk:
    def test_two_letter_walk(self):
        series = gen_dna_walk("AG")
        assert series.w.tolist() == [0.0, 1.0]
        assert series.z.tolist() == [1.0, 2.0]

    def test_acgt_trace(self):
        assert gen_dna_walk("ACGT").w.tolist() == [0.0, -1.0, 0.0, -1.0]

    def test_fasta_whitespace_and_case(self):
        text = "> some organism, chromosome 1\nac gt\nAC\n>another header\nGT\n"
        assert gen_dna_walk(text).w.tolist() == [0.0, -1.0, 0.0, -1.0, 0.0, -1.0, 0.0, -1.0]

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            gen_dna_walk("")
        with pytest.raises(ValueError, match="empty"):
            gen_dna_walk(">header only\n\n")

    def test_rejects_bad_nucleotide(self):
        with pytest.raises(ValueError, match="position 3"):
            gen_dna_walk("ACXT")

    def test_walk_steps_are_unit(self):
        rng = np.random.default_rng(0)
        seq = "".join(rng.choice(list("ACGT"), size=400))
        series = gen_dna_walk(seq)
        steps = np.diff(series.w)
        assert set(np.unique(steps)) <= {-1.0, 1.0}
        assert series.w[0] == 0.0


class TestGenRandomWalk:
    def test_deterministic_per_seed(self):
        a = gen_random_walk(1000, 7)
        b = gen_random_walk(1000, 7)
        assert np.array_equal(a.w, b.w)
        assert a.w[0] == 0.0

    def test_seeds_differ(self):
        assert not np.array_equal(gen_random_walk(100, 0).w, gen_random_walk(100, 1).w)

    def test_increment_statistics(self):
        # standard-normal increments: concentration bounds hold for nearly
        # every seed at M = 10^4
        ok = 0
        for seed in range(100):
            steps = np.diff(gen_random_walk(10_000, seed).w)
            mean_ok = abs(steps.mean()) <= 4.0 / np.sqrt(steps.size)
            var_ok = abs(steps.var() - 1.0) <= 0.1
            ok += mean_ok and var_ok
        assert ok >= 95

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            gen_random_walk(1, 0)


class TestLoadSeriesCsv:
    def test_single_column(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("1.0\n2.0\n")
        series = load_series_csv(path)
        assert series.z.tolist() == [1.0, 2.0]
        assert series.w.tolist() == [1.0, 2.0]

    def test_two_columns_with_header_and_crlf(self, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text("z,value\r\n0.5,3.0\r\n1.5,-1.0\r\n2.5,0.25\r\n")
        series = load_series_csv(path)
        assert series.z.tolist() == [0.5, 1.5, 2.5]
        assert series.w.tolist() == [3.0, -1.0, 0.25]

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("\n1.0\n\n2.0\n\n")
        assert load_series_csv(path).m_count == 2

    def test_non_numeric_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("value\n1.0\noops\n2.0\n")
        with pytest.raises(ValueError, match="line 3"):
            load_series_csv(path)

    def test_numeric_first_field_is_not_header(self, tmp_path):
        path = tmp_path / "bad2.csv"
        path.write_text("1.0,oops\n2.0,3.0\n")
        with pytest.raises(ValueError, match="line 1"):
            load_series_csv(path)

    def test_inconsistent_columns(self, tmp_path):
        path = tmp_path / "bad3.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(ValueError, match="columns"):
            load_series_csv(path)

    def test_too_few_rows(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("w\n1.0\n")
        with pytest.raises(ValueError, match="at least 2"):
            load_series_csv(path)

    def test_non_increasing_abscissae(self, tmp_path):
        path = tmp_path / "dec.csv"
        path.write_text("2.0,1.0\n1.0,5.0\n")
        with pytest.raises(ValueError, match="strictly increasing"):
            load_series_csv(path)


    @pytest.mark.parametrize(
        "text, lineno",
        [
            ("w\n1.0\n\nnan\n2.0\n", 4),
            ("1.0\n2.0\n-inf\n", 3),
            ("z,w\n1,2.0\n2,inf\n3,nan\n", 3),
            ("1,2.0\n\n1e400,3.0\n", 3),
        ],
    )
    def test_non_finite_names_line(self, tmp_path, text, lineno):
        path = tmp_path / "nonfinite.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"non-finite value on line {lineno}$"):
            load_series_csv(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("value\n1.0\noops\n", "non-numeric value on line 3"),
            ("1,2\n3\n", "expected 1 or 2 columns, got 1 on line 2"),
            ("1\ninf\n", "non-finite value on line 2"),
            ("z,w\n\n", "no data rows"),
            ("z,w\n1,2\n", "need at least 2 samples"),
        ],
    )
    def test_errors_do_not_name_the_file(self, tmp_path, text, message):
        # the CLI's input boundary names the file; the library never does
        path = tmp_path / "named.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            load_series_csv(path)
        assert str(info.value) == message

    @given(text=csv_texts())
    @settings(max_examples=400, deadline=None)
    def test_matches_per_line_oracle(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "oracle.csv"
        path.write_bytes(text.encode("utf-8"))
        assert load_outcome(load_series_csv, path) == load_outcome(oracle_load_series_csv, path)


def parent_load_series_csv(path):
    """The loader as it stood before numpy's own reader took its fast path:
    one numpy conversion of the joined cells, and the per-line scan for
    errors.  Kept as the reference the loader must match bit for bit, under
    the loader's present rules: no message names the file, and the 2-sample
    rule is left to Series."""
    text = Path(path).read_text(encoding="utf-8")
    data = _parent_parse_rows(text)
    if data is None:
        _parent_raise_line_fault(text)
        raise ValueError("no data rows")
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        lineno, _ = _parent_numbered_data_lines(text)[int(np.argmin(finite))]
        raise ValueError(f"non-finite value on line {lineno}")
    if data.shape[1] == 1:
        return Series(np.arange(1, data.shape[0] + 1, dtype=float), data[:, 0])
    return Series(data[:, 0], data[:, 1])


def _parent_is_header(line):
    try:
        float(line.split(",", 1)[0])
    except ValueError:
        return True
    return False


def _parent_parse_rows(text):
    lines = list(filter(str.strip, text.splitlines()))
    if lines and _parent_is_header(lines[0]):
        del lines[0]
    commas = set(map(str.count, lines, itertools.repeat(",")))
    if not lines or commas not in ({0}, {1}):
        return None
    cells = ",".join(lines).split(",")
    try:
        values = np.array(cells, dtype=float)
    except ValueError:
        return None
    return values.reshape(-1, commas.pop() + 1)


def _parent_numbered_data_lines(text):
    numbered = [(n, line) for n, line in enumerate(text.splitlines(), start=1) if line.strip()]
    if numbered and _parent_is_header(numbered[0][1]):
        del numbered[0]
    return numbered


def _parent_raise_line_fault(text):
    columns = None
    for lineno, line in _parent_numbered_data_lines(text):
        cells = line.split(",")
        try:
            for cell in cells:
                float(cell)
        except ValueError:
            raise ValueError(f"non-numeric value on line {lineno}") from None
        if len(cells) not in (1, 2) or columns not in (None, len(cells)):
            raise ValueError(f"expected 1 or 2 columns, got {len(cells)} on line {lineno}")
        columns = len(cells)


#: The characters where numpy's reader and Python's line and float rules part.
_PARTING = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\u2028", "\u2029"]
_WILD_CELLS = st.sampled_from(
    ["1_0", "\uff11\uff12", "nan", "inf", "-Infinity", "1e400", "#1", '"1"', "'2'", "", " ",
     "1e", "0x10", "1\x001"]
)
_WILD_PADDING = st.sampled_from(["\u00a0", "\u3000", *_PARTING])


@st.composite
def wild_csv_texts(draw):
    """CSV text mostly in the accepted format, now and then far from it:
    headers, blank and whitespace-only lines, 1 to 3 columns, ragged rows,
    trailing commas, underscores, full-width digits, comments, quotes,
    non-finite and overflowing values, and the characters where numpy's
    rules and Python's part, as padding and as line breaks; lines end in
    LF, CRLF or CR."""

    def now_and_then(wild, tame):
        return draw(wild if draw(st.integers(0, 24)) == 0 else tame)

    columns = draw(st.sampled_from([1, 2, 2, 3]))
    lines = []
    if draw(st.booleans()):
        lines.append(draw(st.sampled_from(["z,w", "value", "x, y, z", "#", "1_0,w", "\uff11,w", "\ufeffz,w"])))
    for i in range(draw(st.integers(0, 7))):
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t", "\u00a0", *_PARTING])))
        width = columns + now_and_then(st.sampled_from([-1, 1]), st.just(0))
        cells = [now_and_then(_WILD_CELLS, _GOOD_CELLS) for _ in range(max(1, width))]
        if columns > 1:
            cells[0] = draw(st.sampled_from([str(i + 1), repr(i + 1.5), f"{i + 1}e0"]))
        pad = lambda: now_and_then(_WILD_PADDING, st.sampled_from(["", "", " ", "\t"]))
        line = ",".join(pad() + cell + pad() for cell in cells)
        lines.append(line + now_and_then(st.just(","), st.just("")))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    breaks = [now_and_then(st.sampled_from(_PARTING), st.just(newline)) for _ in lines]
    return "".join(map(str.__add__, lines, breaks)) + draw(st.sampled_from(["", newline, "1"]))


def bits_or_message(load, path):
    """The loaded arrays as their bits, or the error message."""
    try:
        series = load(path)
    except ValueError as exc:
        return str(exc)
    return series.z.view(np.uint64), series.w.view(np.uint64)


@given(text=st.one_of(wild_csv_texts(), csv_texts()))
@settings(max_examples=600, deadline=None)
def test_loader_matches_parent_loader(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "differential.csv"
    path.write_bytes(text.encode("utf-8"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = bits_or_message(load_series_csv, path)
    assert not caught, [str(w.message) for w in caught]
    expected = bits_or_message(parent_load_series_csv, path)
    if isinstance(expected, str) or isinstance(got, str):
        assert got == expected
    else:
        assert all(map(np.array_equal, got, expected))


@pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="needs /dev/fd to name a pipe")
def test_pipe_loads_like_a_regular_file(tmp_path, monkeypatch):
    """numpy cannot read a drained pipe again, so a pipe is read from the
    text already read, on the fast path, to the same bits as the file."""
    values = np.random.default_rng(5).standard_normal(20_000)
    text = "z,w\n" + "".join(f"{i},{v!r}\n" for i, v in enumerate(values.tolist(), start=1))
    regular = tmp_path / "walk.csv"
    regular.write_text(text)

    def no_scan(*args):
        raise AssertionError("the per-line scan ran")

    monkeypatch.setattr("fractalfit.datasets._scan_rows", no_scan)
    expected = load_series_csv(regular)
    read_end, write_end = os.pipe()

    def write():
        with os.fdopen(write_end, "w") as pipe:
            pipe.write(text)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    try:
        got = load_series_csv(f"/dev/fd/{read_end}")
    finally:
        writer.join(timeout=30)
        os.close(read_end)
    assert not writer.is_alive()
    assert got.z.tobytes() == expected.z.tobytes() and got.w.tobytes() == expected.w.tobytes()


class TestNormalize:
    def test_two_point_example(self):
        series, params = normalize(Series.from_points([(1, 0.0), (2, 2.0)]))
        assert series.w.tolist() == [-1.0, 1.0]
        assert params.s1 == 1.0 and params.s2 == 1.0

    @given(st.lists(st.floats(-100, 100), min_size=3, max_size=60), st.data())
    @settings(max_examples=50, deadline=None)
    def test_moments(self, values, data):
        v = np.asarray(values)
        if np.std(v) < 1e-6:
            v = v + np.linspace(0, 1, v.size)  # keep the instance non-constant
        series = Series(np.arange(1.0, v.size + 1), v)
        normalized, params = normalize(series)
        assert abs(np.mean(normalized.w)) < 1e-12
        assert abs(np.mean(normalized.w**2) - 1.0) < 1e-12
        np.testing.assert_allclose(
            normalized.w * params.s2 + params.s1, v, rtol=1e-9, atol=1e-9
        )

    def test_idempotent(self):
        raw = gen_random_walk(500, 3)
        once, _ = normalize(raw)
        twice, again = normalize(once)
        np.testing.assert_allclose(twice.w, once.w, atol=1e-12)
        assert abs(again.s1) < 1e-12 and abs(again.s2 - 1.0) < 1e-12

    def test_rejects_constant(self):
        with pytest.raises(ValueError, match="constant"):
            normalize(Series(np.array([1.0, 2.0, 3.0]), np.full(3, 5.0)))

    def test_params_validate(self):
        with pytest.raises(ValueError):
            NormalizationParams(s1=0.0, s2=0.0)


class TestSelectKnotsManual:
    def test_benchmark_positions(self, poly_pipeline):
        series, knots, _ = poly_pipeline
        assert knots.x.tolist() == [1.0, 500.0, 4000.0, 7500.0, 10_000.0]
        idx = np.array([0, 499, 3999, 7499, 9999])
        assert np.array_equal(knots.y, series.w[idx])

    def test_rejects_reserved_endpoints(self):
        series = gen_random_walk(100, 0)
        with pytest.raises(ValueError, match="out of range"):
            select_knots(series, "manual", indices=[1, 50])
        with pytest.raises(ValueError, match="out of range"):
            select_knots(series, "manual", indices=[50, 100])

    def test_rejects_duplicates_and_empty(self):
        series = gen_random_walk(100, 0)
        with pytest.raises(ValueError, match="duplicate"):
            select_knots(series, "manual", indices=[50, 50])
        with pytest.raises(ValueError, match="requires interior"):
            select_knots(series, "manual", indices=[])

    @pytest.mark.parametrize("index", [2.7, 2.0, np.float64(3.0), "3", True])
    def test_indices_must_be_integers(self, index):
        # 2.7 would otherwise be cut to 2, and True read as 1
        series = gen_random_walk(10, 1)
        with pytest.raises(ValueError, match="^interior knot indices must be integers$"):
            select_knots(series, "manual", indices=[5, index])

    def test_numpy_integer_indices(self):
        series = gen_random_walk(10, 1)
        knots = select_knots(series, "manual", indices=[np.int64(3), np.uint8(7)])
        assert knots.x.tolist() == [1.0, 3.0, 7.0, 10.0]

    def test_unknown_mode(self):
        series = gen_random_walk(100, 0)
        with pytest.raises(ValueError, match="unknown"):
            select_knots(series, "nope", indices=[50])

    def test_indices_unordered_input(self):
        series = gen_random_walk(100, 0)
        knots = select_knots(series, "manual", indices=[70, 30])
        assert knots.x.tolist() == [1.0, 30.0, 70.0, 100.0]


class TestSelectKnotsExtrema:
    def sine_series(self, m_count=1000, cycles=3):
        m = np.arange(1.0, m_count + 1)
        w = np.sin(2 * np.pi * cycles * (m - 1) / (m_count - 1))
        return Series(m, w)

    def test_sine_extrema_found(self):
        series = self.sine_series()
        knots = select_knots(series, "extrema", n_interior=6, window=1)
        # interior extrema of sin(2 pi 3 t) sit at t = (2k+1)/12
        expected = 1 + 999 * np.arange(1, 12, 2) / 12.0
        interior = knots.x[1:-1]
        assert interior.size == 6
        assert np.all(np.min(np.abs(interior[:, None] - expected[None, :]), axis=1) <= 1.0)

    def test_fewer_candidates_than_requested(self):
        series = self.sine_series()
        knots = select_knots(series, "extrema", n_interior=10, window=1)
        assert knots.n_segments == 7  # only 6 interior extrema exist

    def test_most_prominent_kept(self):
        # two bumps of very different size: requesting one knot must pick the
        # bigger bump's peak
        m = np.arange(1.0, 402.0)
        w = np.exp(-((m - 100) ** 2) / 200.0) + 5.0 * np.exp(-((m - 300) ** 2) / 200.0)
        series = Series(m, w)
        knots = select_knots(series, "extrema", n_interior=1, window=1, prominence=0.01)
        assert abs(knots.x[1] - 300.0) <= 1.0

    def test_prominence_filters_noise(self):
        rng = np.random.default_rng(5)
        m = np.arange(1.0, 501.0)
        w = np.sin(2 * np.pi * (m - 1) / 499.0) + 0.01 * rng.standard_normal(500)
        series = Series(m, w)
        knots = select_knots(series, "extrema", n_interior=2, window=21, prominence=0.5)
        assert knots.x.size == 4

    def test_monotone_data_errors(self):
        series = Series(np.arange(1.0, 101.0), np.arange(1.0, 101.0) ** 1.5)
        with pytest.raises(ValueError, match="extrema"):
            select_knots(series, "extrema", n_interior=3)

    def test_window_validation(self):
        series = self.sine_series(200)
        with pytest.raises(ValueError, match="odd"):
            select_knots(series, "extrema", n_interior=2, window=10)
        # from 2M - 1 samples on, every smoothed sample averages the whole
        # series plus edge padding, a straight line: refused before smoothing
        for window in (399, 401, 10**20 + 1):
            with pytest.raises(ValueError, match=r"odd integer below 2M - 1 = 399$"):
                select_knots(series, "extrema", n_interior=2, window=window)
        with pytest.raises(ValueError, match="found only 0 interior extrema"):
            select_knots(series, "extrema", n_interior=2, window=397)
        with pytest.raises(ValueError, match="n_interior"):
            select_knots(series, "extrema")

    def test_deterministic(self):
        series = self.sine_series(800, cycles=5)
        a = select_knots(series, "extrema", n_interior=7, window=11)
        b = select_knots(series, "extrema", n_interior=7, window=11)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)

    def test_pinned_walk_knots(self):
        series, _ = normalize(gen_random_walk(5000, 11))
        knots = select_knots(series, "extrema", n_interior=8, window=51, prominence=0.05)
        assert knots.x.tolist() == [
            1.0, 967.0, 1412.0, 1841.0, 3020.0, 3581.0, 3961.0, 4119.0, 4306.0, 5000.0
        ]

    def test_ordinates_equal_series_values(self):
        series = self.sine_series(700, cycles=4)
        knots = select_knots(series, "extrema", n_interior=5, window=5)
        pos = np.searchsorted(series.z, knots.x)
        assert np.array_equal(knots.y, series.w[pos])

    def test_equal_prominences_prefer_smaller_index(self):
        # maxima at 1, 3, 5 and minima at 2, 4 all have prominence 1
        series = Series(np.arange(1.0, 8.0), np.array([0.0, 1, 0, 1, 0, 1, 0]))
        knots = select_knots(series, "extrema", n_interior=2, window=1, prominence=0)
        assert knots.x.tolist() == [1.0, 2.0, 3.0, 7.0]

    def test_too_few_candidates_errors(self):
        m = np.arange(1.0, 102.0)
        ramp = Series(m, m)
        with pytest.raises(ValueError, match=r"^found only 0 interior extrema with prominence "
                           r">= 0.05 \(window 1\); need at least 1$"):
            select_knots(ramp, "extrema", n_interior=1, window=1)
        bump = Series(m, np.exp(-((m - 40.0) ** 2) / 50.0))
        assert select_knots(bump, "extrema", n_interior=1, window=1).x.tolist() == [1.0, 40.0, 101.0]
        with pytest.raises(ValueError, match=r"^found only 1 interior extrema with prominence "
                           r">= 0.05 \(window 1\); need at least 2$"):
            select_knots(bump, "extrema", n_interior=2, window=1)


class TestProminentPeaks:
    @pytest.fixture(scope="class")
    def find_peaks(self):
        return pytest.importorskip("scipy.signal").find_peaks

    @staticmethod
    def assert_matches(find_peaks, s, prominence):
        expected, props = find_peaks(s, prominence=prominence)
        peaks, prominences = _prominent_peaks(s, prominence)
        assert np.array_equal(peaks, expected)
        assert np.array_equal(prominences, props["prominences"])

    @pytest.mark.parametrize(
        "values, prominence, peaks, prominences",
        [
            ([0, 2, 2, 2, 2, 0], 0, [2], [2]),  # even plateau: middle rounded down
            ([1, 3, 3, 3, 0], 0, [2], [2]),  # odd plateau: its middle
            ([0, 1, 3, 3], 0, [], []),  # a plateau that touches an end is no peak
            ([3, 3, 1, 2, 0], 0, [3], [1]),
            ([0, 2, 1, 3, 1, 2, 0], 1, [1, 3, 5], [1, 3, 1]),  # bases run to the ends
            ([0, 2, 1, 3, 1, 2, 0], 1.5, [3], [3]),  # the threshold is inclusive
            ([1, 4, 0, 4, 1], 0, [1, 3], [3, 3]),  # an equal peak does not stop a base
            ([5, 5, 5], 0, [], []),
            ([0, 1], 0, [], []),
        ],
    )
    def test_plateaus_and_bases(self, values, prominence, peaks, prominences):
        got_peaks, got_proms = _prominent_peaks(np.asarray(values, dtype=float), prominence)
        assert got_peaks.tolist() == peaks
        assert got_proms.tolist() == prominences

    @settings(max_examples=300, deadline=None)
    @given(
        steps=st.lists(st.integers(-2, 2), min_size=1, max_size=40),
        walk=st.booleans(),
        prominence=st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.5]),
    )
    def test_matches_find_peaks(self, find_peaks, steps, walk, prominence):
        # small integers make plateaus, equal prominences and peaks next to
        # either end common; the walk gives long rises and falls
        values = (np.cumsum(steps) if walk else np.asarray(steps)).astype(float)
        for sign in (1.0, -1.0):
            self.assert_matches(find_peaks, sign * values, prominence)

    def test_matches_find_peaks_on_a_smoothed_walk(self, find_peaks):
        series, _ = normalize(gen_random_walk(20_000, 4))
        assert np.array_equal(_moving_average(series.w, 1), series.w)
        for window in (1, 21):
            smoothed = _moving_average(series.w, window)
            for sign in (1.0, -1.0):
                self.assert_matches(find_peaks, sign * smoothed, 0.01)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(-4, 0)), max_size=70))
    def test_base_minima_match_stack_loop(self, pairs):
        # few distinct heights make ties common, where "strictly higher" counts
        heights, gaps = np.array(pairs, dtype=float).reshape(-1, 2).T
        want = base_minima_reference(heights, gaps)
        assert _base_minima(heights, gaps).tobytes() == want.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(
        steps=st.lists(st.integers(-2, 2), min_size=1, max_size=40),
        walk=st.booleans(),
        prominence=st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.5]),
    )
    def test_both_signs_match_two_passes(self, steps, walk, prominence):
        values = (np.cumsum(steps) if walk else np.asarray(steps)).astype(float)
        self.assert_matches_two_passes(values, prominence)

    def test_both_signs_match_two_passes_on_a_smoothed_walk(self):
        series, _ = normalize(gen_random_walk(20_000, 4))
        self.assert_matches_two_passes(_moving_average(series.w, 21), 0.01)

    @staticmethod
    def assert_matches_two_passes(values, prominence):
        found = [two_pass_peaks_reference(sign * values, prominence) for sign in (1.0, -1.0)]
        got = _prominent_peaks(values, prominence, (1.0, -1.0))
        for have, want in zip(got, map(np.concatenate, zip(*found))):
            assert have.dtype == want.dtype and have.tobytes() == want.tobytes()


def two_pass_peaks_reference(s, prominence):
    """``_prominent_peaks(s, prominence)`` on its own run decomposition of
    ``s``, with each gap the lowest of all the runs it spans."""
    starts = np.flatnonzero(np.concatenate([[True], s[1:] != s[:-1]]))
    ends = np.append(starts[1:], s.size) - 1
    runs = s[starts]
    rise = np.diff(runs) > 0
    top = np.flatnonzero(rise[:-1] & ~rise[1:]) + 1
    heights = runs[top]
    gaps = np.minimum.reduceat(runs, np.append(0, top))
    left = _base_minima(heights, gaps[:-1])
    right = _base_minima(heights[::-1], gaps[:0:-1])[::-1]
    prominences = heights - np.maximum(left, right)
    keep = prominences >= prominence
    return ((starts[top] + ends[top]) // 2)[keep], prominences[keep]


def base_minima_reference(heights, gaps):
    """``_base_minima`` as the monotone-stack loop: each stacked peak carries
    the lowest gap since the last peak higher than it."""
    base = np.empty(heights.size)
    stack = []  # (height, base) of the peaks not yet topped
    for k, (height, low) in enumerate(zip(heights.tolist(), gaps.tolist())):
        while stack and stack[-1][0] <= height:
            low = min(low, stack.pop()[1])
        base[k] = low
        stack.append((height, low))
    return base
