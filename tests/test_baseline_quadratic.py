import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalfit import (
    Knots,
    QuadModel,
    Series,
    build_model,
    evaluate_fif,
    evaluate_quad,
    fit_d_discrete,
    fit_quadratic,
    select_knots,
)


def noisy_instance(seed, m_count=150, interior=(40, 75, 110)):
    rng = np.random.default_rng(seed)
    z = np.arange(1.0, m_count + 1)
    w = np.sin(z / 9.0) + 0.2 * rng.standard_normal(m_count)
    series = Series(z, w)
    return series, select_knots(series, "manual", indices=list(interior))


def total_rss(model, series):
    return float(np.sum((evaluate_quad(model, series.z) - series.w) ** 2))


def test_recovers_exact_quadratic():
    z = np.linspace(0.0, 4.0, 81)
    series = Series(z, z**2)
    knots = select_knots(series, "manual", indices=[21, 41, 61])
    model = fit_quadratic(series, knots)
    assert np.max(np.abs(evaluate_quad(model, series.z) - series.w)) < 1e-9
    # the recovered monomial coefficients are those of x^2 itself
    for k, r, l in model.coeffs:
        np.testing.assert_allclose([k, r, l], [1.0, 0.0, 0.0], atol=1e-9)


@given(
    st.floats(-2, 2), st.floats(-3, 3), st.floats(-5, 5),
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_recovers_random_quadratics(k, r, l, seed):
    rng = np.random.default_rng(seed)
    z = np.linspace(0.0, 10.0, 60)
    z[1:-1] += rng.uniform(-0.05, 0.05, 58)  # spacing ~0.17 stays increasing
    series = Series(z, k * z**2 + r * z + l)
    interior = sorted(rng.choice(np.arange(2, 60), size=2, replace=False).tolist())
    knots = select_knots(series, "manual", indices=interior)
    model = fit_quadratic(series, knots)
    scale = 1.0 + np.max(np.abs(series.w))
    assert np.max(np.abs(evaluate_quad(model, series.z) - series.w)) < 1e-9 * scale


def test_chord_data_keeps_chord():
    z = np.arange(1.0, 61.0)
    series = Series(z, 3.0 - 0.05 * z)
    knots = select_knots(series, "manual", indices=[15, 30, 45])
    model = fit_quadratic(series, knots)
    np.testing.assert_allclose(model.curvature, 0.0, atol=1e-15)
    assert not model.chord_fallback.any()


def test_endpoint_interpolation_and_continuity():
    series, knots = noisy_instance(0)
    model = fit_quadratic(series, knots)
    np.testing.assert_allclose(
        evaluate_quad(model, knots.x), knots.y, rtol=1e-12, atol=1e-12
    )
    # the monomial form must agree from both sides of each interior knot
    coeffs = model.coeffs
    for i in range(1, knots.n_segments):
        x = knots.x[i]
        left = coeffs[i - 1][0] * x**2 + coeffs[i - 1][1] * x + coeffs[i - 1][2]
        right = coeffs[i][0] * x**2 + coeffs[i][1] * x + coeffs[i][2]
        np.testing.assert_allclose(left, knots.y[i], rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(right, knots.y[i], rtol=1e-9, atol=1e-9)


def test_monomial_coeffs_match_evaluation():
    series, knots = noisy_instance(1)
    model = fit_quadratic(series, knots)
    xs = np.linspace(knots.a, knots.b, 301)
    from fractalfit import segment_indices

    seg = segment_indices(knots, xs)
    direct = np.array(
        [model.coeffs[s][0] * x**2 + model.coeffs[s][1] * x + model.coeffs[s][2]
         for s, x in zip(seg, xs)]
    )
    np.testing.assert_allclose(evaluate_quad(model, xs), direct, rtol=1e-9, atol=1e-9)


def test_chord_fallback_on_empty_segment():
    z = np.arange(1.0, 21.0)
    rng = np.random.default_rng(2)
    series = Series(z, rng.standard_normal(20))
    cases = [
        # adjacent knots leave segment 0 with no strictly interior samples
        ([2, 10], [True, False, False]),
        # the last segment's slice holds the closing sample b as well
        ([5, 12, 19], [False, False, False, True]),
    ]
    for indices, expected in cases:
        model = fit_quadratic(series, select_knots(series, "manual", indices=indices))
        assert model.chord_fallback.tolist() == expected
        assert np.all(model.curvature[model.chord_fallback] == 0.0)


def test_optimality_perturbation():
    series, knots = noisy_instance(3)
    model = fit_quadratic(series, knots)
    base = total_rss(model, series)
    for i in range(knots.n_segments):
        for delta in (1e-3, -1e-3):
            curvature = model.curvature.copy()
            curvature[i] += delta
            worse = dataclasses.replace(model, curvature=curvature)
            assert total_rss(worse, series) >= base - 1e-12 * (1.0 + base)


def test_matches_brute_force_scan():
    series, knots = noisy_instance(4, m_count=120, interior=(40, 80))
    model = fit_quadratic(series, knots)
    from fractalfit import segment_indices

    seg = segment_indices(knots, series.z)
    grid = np.arange(-10.0, 10.0 + 1e-9, 1e-4)
    for i in range(knots.n_segments):
        mask = seg == i
        zz, ww = series.z[mask], series.w[mask]
        xl, xr = knots.x[i], knots.x[i + 1]
        chord = knots.y[i] + (knots.y[i + 1] - knots.y[i]) * (zz - xl) / (xr - xl)
        bubble = (zz - xl) * (zz - xr)
        best, best_r = 0.0, np.inf
        for chunk in np.array_split(grid, 40):
            r = np.sum(
                (ww[None, :] - chord[None, :] - chunk[:, None] * bubble[None, :]) ** 2,
                axis=1,
            )
            k = np.argmin(r)
            if r[k] < best_r:
                best_r, best = r[k], chunk[k]
        assert abs(best - model.curvature[i]) < 1e-3


def test_matches_per_segment_loop():
    # the per-segment masked loop over interior samples, kept as the
    # reference for the single reduceat over whole segment slices; the sums
    # only change order, so agreement is to rounding
    rng = np.random.default_rng(12)
    z = np.arange(1.0, 401.0)
    series = Series(z, np.cumsum(rng.standard_normal(400)))
    for _ in range(10):
        interior = np.sort(rng.choice(np.arange(2, 400), int(rng.integers(1, 60)), replace=False))
        knots = select_knots(series, "manual", indices=interior.tolist())
        model = fit_quadratic(series, knots)
        x, y = knots.x, knots.y
        for i in range(knots.n_segments):
            inner = (z > x[i]) & (z < x[i + 1])
            assert model.chord_fallback[i] == (not inner.any())
            if not inner.any():
                assert model.curvature[i] == 0.0
                continue
            zz, ww = z[inner], series.w[inner]
            chord = y[i] + (y[i + 1] - y[i]) * ((zz - x[i]) / (x[i + 1] - x[i]))
            bubble = (zz - x[i]) * (zz - x[i + 1])
            want = float((ww - chord) @ bubble) / float(bubble @ bubble)
            assert model.curvature[i] == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_parameter_budget_matches_fractal():
    series, knots = noisy_instance(5)
    quad = fit_quadratic(series, knots)
    report = fit_d_discrete(series, knots)
    assert len(quad.curvature) == len(report.d) == knots.n_segments


def test_zero_curvature_equals_zero_d_fractal():
    series, knots = noisy_instance(6)
    quad = QuadModel(
        knots=knots,
        curvature=np.zeros(knots.n_segments),
        chord_fallback=np.zeros(knots.n_segments, dtype=bool),
    )
    fif = build_model(knots, np.zeros(knots.n_segments))
    xs = np.linspace(knots.a, knots.b, 401)
    np.testing.assert_allclose(
        evaluate_quad(quad, xs), evaluate_fif(fif, xs, 5), atol=1e-12
    )


def test_refining_on_fitted_curve_never_hurts():
    # adding a knot whose ordinate lies on the coarse fit keeps the coarse
    # optimum inside the refined family, so the refined residual cannot grow
    # (with a data-valued ordinate this monotonicity does not hold: the
    # interpolation constraint can cost more than the extra parameter buys)
    for seed in range(8):
        series, knots = noisy_instance(seed, m_count=90, interior=(30, 60))
        coarse = fit_quadratic(series, knots)
        base = total_rss(coarse, series)
        rng = np.random.default_rng(seed + 100)
        for idx in rng.choice(np.arange(5, 85), size=4, replace=False):
            x_new = series.z[idx]
            if np.any(knots.x == x_new):
                continue
            xs = np.sort(np.append(knots.x, x_new))
            ys = np.interp(xs, knots.x, knots.y)
            pos = int(np.searchsorted(xs, x_new))
            ys[pos] = evaluate_quad(coarse, x_new)
            refined = fit_quadratic(series, Knots(xs, ys))
            assert total_rss(refined, series) <= base * (1 + 1e-12) + 1e-12


def test_rejects_misaligned_knots():
    series, _ = noisy_instance(7)
    knots = Knots(
        np.array([1.0, 40.5, 150.0]),
        np.array([series.w[0], 0.0, series.w[-1]]),
    )
    with pytest.raises(ValueError, match="subset"):
        fit_quadratic(series, knots)


def test_evaluate_rejects_outside_domain():
    series, knots = noisy_instance(8)
    model = fit_quadratic(series, knots)
    with pytest.raises(ValueError, match="outside"):
        evaluate_quad(model, 0.0)
    with pytest.raises(ValueError, match="outside"):
        evaluate_quad(model, np.array([2.0, 151.0]))
    with pytest.raises(ValueError, match="outside"):
        evaluate_quad(model, [np.nan])


def test_scalar_in_scalar_out():
    series, knots = noisy_instance(9)
    model = fit_quadratic(series, knots)
    assert isinstance(evaluate_quad(model, 1.0), float)
    assert model(1.0) == evaluate_quad(model, 1.0)


def test_model_validates_array_lengths():
    knots = Knots.from_points([(0, 0), (1, 1), (2, 0)])
    with pytest.raises(ValueError, match="per segment"):
        QuadModel(knots=knots, curvature=np.zeros(3), chord_fallback=np.zeros(3, bool))


def test_model_copies_and_freezes_its_arrays():
    knots = Knots.from_points([(0, 0), (1, 1), (2, 0)])
    curvature, fallback = np.array([0.5, -0.5]), np.array([False, True])
    model = QuadModel(knots, curvature, fallback)
    for given, kept in ((curvature, model.curvature), (fallback, model.chord_fallback)):
        assert given.flags.writeable and not kept.flags.writeable
        assert not np.shares_memory(given, kept)
        assert np.array_equal(given, kept)
    assert model.chord_fallback.dtype == bool
