import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalfit import (
    FitReport,
    Knots,
    Series,
    collage_fit,
    collage_residual,
    fit_d_discrete,
    gen_dna_walk,
    gen_polynomial,
    gen_random_walk,
    load_series_csv,
    piecewise_constant_extension,
    select_knots,
)
from fractalfit.collage_fit import _collage_terms, _segment_slices
from fractalfit.ifs_core import _abg_values, _bucket_table, segment_indices


def walk_instance(seed, m_count=160, interior=(39, 79, 119)):
    rng = np.random.default_rng(seed)
    z = np.arange(1.0, m_count + 1)
    w = np.cumsum(rng.standard_normal(m_count))
    w = (w - w.mean()) / w.std()
    series = Series(z, w)
    return series, select_knots(series, "manual", indices=[i + 1 for i in interior])


def chord_instance(m_count=101, interior=(20, 55, 90)):
    z = np.arange(1.0, m_count + 1)
    w = -2.0 + 0.13 * (z - 1.0)
    series = Series(z, w)
    return series, select_knots(series, "manual", indices=list(interior))


class TestSeries:
    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Series(np.array([1.0, 1.0, 2.0]), np.zeros(3))

    def test_rejects_too_short_and_mismatched(self):
        with pytest.raises(ValueError, match="at least 2"):
            Series(np.array([1.0]), np.array([0.0]))
        with pytest.raises(ValueError):
            Series(np.array([1.0, 2.0]), np.zeros(3))

    def test_rejects_two_dimensional_abscissae(self):
        with pytest.raises(ValueError, match="series abscissae must be one-dimensional"):
            Series(np.array([[0.0, 1.0], [2.0, 3.0]]), np.zeros(4))

    @pytest.mark.parametrize("z, w, message", [
        ([-1e308, 1e308], [0.0, 1.0], "series abscissae span"),
        ([1.0, 2.0, 3.0], [-1e308, 1e308, -1e308], "series ordinates span"),
    ], ids=["abscissae", "ordinates"])
    def test_rejects_overflowing_range(self, z, w, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                Series(np.array(z), np.array(w))

    def test_from_points_and_m_count(self):
        series = Series.from_points([(0, 5.0), (1, 6.0), (2, 7.0)])
        assert series.m_count == 3
        assert series.w.tolist() == [5.0, 6.0, 7.0]


def test_fit_report_rejects_ragged_arrays():
    with pytest.raises(ValueError, match="^expected 2 clamped flags, got 1$"):
        FitReport(
            d=[0.1, 0.2],
            clamped=[False],
            degenerate=[False, False],
            collage_rss=0.0,
            contraction_factor=0.2,
            collage_bound=0.0,
        )


def test_fit_report_copies_and_freezes_its_arrays():
    d, clamped, degenerate = np.array([0.1, 0.2]), np.array([True, False]), np.array([False, True])
    report = FitReport(d, clamped, degenerate, collage_rss=0.0, contraction_factor=0.2, collage_bound=0.0)
    for given, kept in ((d, report.d), (clamped, report.clamped), (degenerate, report.degenerate)):
        assert given.flags.writeable and not kept.flags.writeable
        assert not np.shares_memory(given, kept)
        assert np.array_equal(given, kept)
    assert report.clamped.dtype == report.degenerate.dtype == bool


class TestExtension:
    def test_nearest_neighbor(self):
        g = piecewise_constant_extension(Series.from_points([(0, 1), (1, 2), (2, 3)]))
        assert g(0.4) == 1
        assert g(1.7) == 3
        assert g(np.array([0.0, 0.9, 1.2, 2.0])).tolist() == [1, 2, 2, 3]

    def test_midpoint_ties_resolve_left(self):
        g = piecewise_constant_extension(Series.from_points([(0, 1), (1, 2), (2, 3)]))
        assert g(0.5) == 1
        assert g(1.5) == 2


@st.composite
def extension_cases(draw):
    """A series (even integer, even decimal, random spacing, or far: random
    spacing near +-1e308, where the sum of two neighbours overflows) and
    queries at and beside every midpoint and sample, at the ends, outside,
    infinite and NaN."""
    m_count = draw(st.integers(2, 40))
    kind = draw(st.sampled_from(["integer", "decimal", "random", "far"]))
    if kind == "integer":
        start = draw(st.sampled_from([0, 1, -7, -(2**40), 2**40 - 5])) + draw(st.integers(-3, 3))
        z = start + draw(st.integers(1, 5)) * np.arange(m_count, dtype=float)
    elif kind == "decimal":
        step = draw(st.sampled_from([0.1, 0.3, 1e-3]))
        z = draw(st.sampled_from([0.0, 1.0, -3.3, 1e6])) + step * np.arange(m_count)
    elif kind == "random":
        seed = draw(st.integers(0, 2**32 - 1))
        z = np.cumsum(np.random.default_rng(seed).uniform(1e-3, 2.0, m_count)) - 1.0
    else:
        gaps = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(1e-3, 2.0, m_count)
        z = np.sort(draw(st.sampled_from([1.0, -1.0])) * (1e308 + np.cumsum(gaps) / gaps.sum() * 7e307))
    mid = z[:-1] / 2.0 + z[1:] / 2.0  # the once-rounded midpoint, which no sum overflows
    span = z[-1] - z[0]
    with np.errstate(over="ignore"):  # far from 0, z[0] - span or z[-1] + span is infinite
        outside = [z[0] - span, z[0] - 0.7, z[-1] + 0.7, z[-1] + span, np.inf, -np.inf, np.nan]
    queries = np.concatenate([
        mid, np.nextafter(mid, -np.inf), np.nextafter(mid, np.inf), z, outside,
        np.random.default_rng(m_count).uniform(z[0] - 1, z[-1] + 1, 20),
    ])
    return Series(z, np.arange(m_count) * 1.5 - 3.0), queries


@given(extension_cases())
@settings(max_examples=300, deadline=None)
def test_extension_matches_binary_search(case):
    series, queries = case
    g = piecewise_constant_extension(series)
    midpoints = series.z[:-1] / 2.0 + series.z[1:] / 2.0
    want = series.w[np.searchsorted(midpoints, queries, side="left")]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = g(queries)
        grid = g(queries[: queries.size // 2 * 2].reshape(2, -1))
        singles = [(g(q), g(np.asarray(q)), g(float(q))) for q in queries]
    assert got.shape == queries.shape and np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert grid.shape == (2, queries.size // 2) and np.array_equal(grid.ravel(), want[: grid.size])
    for single, expected in zip(singles, want):
        assert all(np.shape(v) == () and v == expected for v in single)


def test_fit_lookup_takes_one_step_on_even_spacing(tmp_path, monkeypatch):
    # every generator and every 1-column CSV gives evenly spaced abscissae;
    # no bucket of the sample table may hold two midpoints there, so each
    # lookup is O(1): a single bisection step
    csv = tmp_path / "one_column.csv"
    csv.write_text("".join(f"{v!r}\n" for v in np.sin(np.arange(2000) / 37.0).tolist()))
    bases = np.random.default_rng(5).choice(list("ACGT"), 3000)
    series_set = [gen_polynomial(5000), gen_dna_walk("".join(bases)),
                  gen_random_walk(5000, 3), load_series_csv(csv)]
    tables = []

    def spy(*args):
        tables.append(_bucket_table(*args))
        return tables[-1]

    monkeypatch.setattr(collage_fit, "_bucket_table", spy)
    for series in series_set:
        knots = select_knots(series, "extrema", n_interior=4, window=21, prominence=0.01)
        assert knots.n_segments > 2
        fit_d_discrete(series, knots)
    assert [table[-1] for table in tables] == [[1]] * len(series_set)


class TestFit:
    def test_quintic_benchmark_d_values(self, poly_pipeline):
        series, knots, _ = poly_pipeline
        report = fit_d_discrete(series, knots)
        np.testing.assert_allclose(
            report.d, [0.066, 0.156, 0.033, 0.096], atol=5e-4
        )
        assert not report.clamped.any() and not report.degenerate.any()
        assert report.contraction_factor == np.max(np.abs(report.d))
        np.testing.assert_allclose(
            report.collage_bound,
            np.sqrt(report.collage_rss / series.m_count)
            / (1 - report.contraction_factor),
            rtol=1e-15,
        )

    def test_chord_data_zero_d(self):
        series, knots = chord_instance()
        report = fit_d_discrete(series, knots)
        assert np.max(np.abs(report.d)) < 1e-9
        assert collage_residual(series, knots, np.zeros(4)) < 1e-15
        assert not report.degenerate.any()

    def test_chord_data_aligned_grid_degenerates(self):
        # knots dividing the lattice evenly make gamma land exactly on the
        # samples, so beta - g(gamma) vanishes identically on chord data and
        # the flat objective is flagged instead of divided through
        series, knots = chord_instance(interior=(26, 51, 76))
        report = fit_d_discrete(series, knots)
        assert report.degenerate.all()
        assert np.array_equal(report.d, np.zeros(4))

    def test_all_zero_data_degenerates_not_nan(self):
        # zero data makes every denominator exactly 0 and eps_den 0 as well;
        # the fit must flag, not divide
        z = np.arange(1.0, 31.0)
        series = Series(z, np.zeros(30))
        knots = select_knots(series, "manual", indices=[10, 20])
        report = fit_d_discrete(series, knots)
        assert report.degenerate.all()
        assert np.array_equal(report.d, np.zeros(3))
        assert report.collage_rss == 0.0 and report.collage_bound == 0.0

    def test_clamping_flags_and_magnitude(self):
        series, knots = walk_instance(11)
        report = fit_d_discrete(series, knots, d_max=0.01)
        assert report.clamped.any()
        assert np.all(np.abs(report.d) <= 0.01 + 1e-15)
        free = fit_d_discrete(series, knots)
        same_sign = np.sign(report.d[report.clamped]) == np.sign(free.d[report.clamped])
        assert same_sign.all()

    def test_rejects_bad_d_max(self):
        series, knots = walk_instance(0)
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError, match="d_max"):
                fit_d_discrete(series, knots, d_max=bad)

    def test_rejects_knots_off_sample(self):
        series, _ = walk_instance(1)
        knots = Knots(
            np.array([1.0, 40.5, 160.0]),
            np.array([series.w[0], 0.0, series.w[-1]]),
        )
        with pytest.raises(ValueError, match="subset"):
            fit_d_discrete(series, knots)

    def test_rejects_endpoint_mismatch(self):
        series, _ = walk_instance(2)
        inner = Knots(
            np.array([2.0, 40.0, 159.0]),
            series.w[np.array([1, 39, 158])],
        )
        with pytest.raises(ValueError, match="span"):
            fit_d_discrete(series, inner)
        bad_y = Knots(
            np.array([1.0, 40.0, 160.0]),
            np.array([series.w[0] + 0.5, series.w[39], series.w[-1]]),
        )
        with pytest.raises(ValueError, match="ordinates"):
            fit_d_discrete(series, bad_y)

    def test_optimality_of_closed_form(self):
        series, knots = walk_instance(3)
        report = fit_d_discrete(series, knots)
        base = collage_residual(series, knots, report.d)
        for i in range(knots.n_segments):
            for delta in (1e-3, -1e-3, 1e-6, -1e-6):
                d = report.d.copy()
                d[i] += delta
                perturbed = collage_residual(series, knots, d)
                assert perturbed >= base - 1e-12 * (1.0 + base)

    @pytest.mark.parametrize("seed", range(4))
    def test_slices_match_segment_indices(self, seed):
        rng = np.random.default_rng(seed)
        z = np.cumsum(rng.uniform(0.1, 2.0, 300))
        series = Series(z, rng.standard_normal(300))
        interior = np.sort(rng.choice(np.arange(2, 299), size=int(rng.integers(1, 40)), replace=False))
        knots = select_knots(series, "manual", indices=interior.tolist())
        starts, seg = _segment_slices(series, knots)
        assert np.array_equal(seg, segment_indices(knots, z))
        assert np.array_equal(z[starts], knots.x[:-1])

    @pytest.mark.parametrize("d_max", [0.99, 0.05])
    def test_matches_per_segment_loop(self, d_max):
        # the per-segment masked loop, kept as the reference for the single
        # reduceat over segment slices; the sums only change order, so d
        # agrees to rounding and every flag exactly
        for seed in range(10):
            series, knots = walk_instance(seed, m_count=300, interior=tuple(range(9, 290, 20)))
            report = fit_d_discrete(series, knots, d_max)
            seg = segment_indices(knots, series.z)
            alpha, beta, gamma = _abg_values(knots, seg, series.z)
            basis = beta - piecewise_constant_extension(series)(gamma)
            w = series.w
            eps_den = 1e-12 * series.m_count * (np.max(np.abs(w)) + np.max(np.abs(knots.y))) ** 2
            for i in range(knots.n_segments):
                mask = seg == i
                den = float(basis[mask] @ basis[mask])
                assert report.degenerate[i] == (den <= eps_den)
                want = 0.0 if den <= eps_den else float((alpha[mask] - w[mask]) @ basis[mask]) / den
                assert report.clamped[i] == (abs(want) > d_max)
                want = float(np.clip(want, -d_max, d_max))
                assert abs(report.d[i] - want) <= 1e-12
            np.testing.assert_allclose(
                report.collage_rss, collage_residual(series, knots, report.d), rtol=1e-12
            )

    def test_matches_brute_force_scan(self):
        series, knots = walk_instance(4, m_count=120, interior=(39, 79))
        report = fit_d_discrete(series, knots)
        _, seg, alpha, basis = _collage_terms(series, knots)
        grid = np.arange(-0.999, 0.999 + 1e-9, 1e-5)
        for i in range(knots.n_segments):
            mask = seg == i
            err = series.w[mask] - alpha[mask]
            best, best_r = 0.0, np.inf
            for chunk in np.array_split(grid, 20):
                r = np.sum((err[None, :] + chunk[:, None] * basis[None, mask]) ** 2, axis=1)
                k = np.argmin(r)
                if r[k] < best_r:
                    best_r, best = r[k], chunk[k]
            assert abs(best - report.d[i]) < 1e-4

    @given(st.floats(-1e3, 1e3).filter(lambda v: abs(v) > 1e-3))
    @settings(max_examples=25, deadline=None)
    def test_scale_equivariance(self, lam):
        series, _ = walk_instance(5)
        scaled = Series(series.z, series.w * lam)
        knots = select_knots(series, "manual", indices=[40, 80, 120])
        scaled_knots = select_knots(scaled, "manual", indices=[40, 80, 120])
        d0 = fit_d_discrete(series, knots).d
        d1 = fit_d_discrete(scaled, scaled_knots).d
        np.testing.assert_allclose(d1, d0, rtol=1e-9, atol=1e-12)


class TestLocality:
    def test_perturbation_reaches_only_reading_segments(self):
        # the per-segment sums are disjoint in their (alpha - w) factors, but
        # beta - g(gamma) reads samples across the whole domain: a perturbed
        # sample moves d_i exactly for the segments whose gamma-image has it
        # as nearest neighbor (plus its own), and no others
        series, knots = walk_instance(7, m_count=200, interior=(49, 99, 149))
        target = 72  # 0-based sample index, strictly inside segment 1
        assert knots.x[1] < series.z[target] < knots.x[2]

        seg = segment_indices(knots, series.z)
        midpoints = (series.z[:-1] + series.z[1:]) / 2
        readers = {int(seg[target])}
        for i in range(knots.n_segments):
            _, _, gamma = _abg_values(knots, seg[seg == i], series.z[seg == i])
            nearest = np.searchsorted(midpoints, gamma, side="left")
            if np.any(nearest == target):
                readers.add(i)

        w2 = series.w.copy()
        w2[target] += 0.25
        perturbed = Series(series.z, w2)
        knots2 = select_knots(perturbed, "manual", indices=[50, 100, 150])
        d0 = fit_d_discrete(series, knots).d
        d1 = fit_d_discrete(perturbed, knots2).d
        changed = set(np.nonzero(d1 != d0)[0].tolist())
        assert changed <= readers
        assert seg[target] in changed


class TestResidual:
    def test_matches_manual_computation(self):
        series, knots = walk_instance(8, m_count=60, interior=(19, 39))
        d = np.array([0.3, -0.2, 0.1])
        g = piecewise_constant_extension(series)
        total = 0.0
        for m in range(series.m_count):
            z = series.z[m]
            i = int(segment_indices(knots, z))
            alpha, beta, gamma = _abg_values(knots, np.array([i]), np.array([z]))
            phi = alpha[0] - d[i] * (beta[0] - g(gamma[0]))
            total += (series.w[m] - phi) ** 2
        np.testing.assert_allclose(
            collage_residual(series, knots, d), total, rtol=1e-10
        )

    def test_rejects_length_mismatch(self):
        series, knots = walk_instance(9)
        with pytest.raises(ValueError, match="expected 4"):
            collage_residual(series, knots, [0.1, 0.2])
