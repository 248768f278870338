from pathlib import Path

import numpy as np

from fractalfit import (
    Knots,
    Series,
    build_model,
    compare,
    default_depth,
    evaluate_fif,
    fit_d_discrete,
    fit_quadratic,
    gen_random_walk,
    normalize,
    rms_error,
    segment_indices,
    select_knots,
)
from fractalfit.ifs_core import TOL


def walk_case(seed, m_count=400, interior=(100, 200, 300)):
    series, _ = normalize(gen_random_walk(m_count, seed))
    return series, select_knots(series, "manual", indices=list(interior))


def test_rms_of_perfect_callable_is_zero():
    series = Series(np.arange(1.0, 11.0), np.linspace(-1, 1, 10))
    assert rms_error(lambda z: np.interp(z, series.z, series.w), series) == 0.0


def test_rms_hand_computed():
    series = Series(np.array([1.0, 2.0, 3.0, 4.0]), np.zeros(4))
    assert rms_error(lambda z: np.full(z.size, 2.0), series) == 2.0
    assert rms_error(lambda z: 2.0, series) == 2.0  # a constant broadcasts


def test_rms_dispatches_on_model_type():
    series, knots = walk_case(0)
    report = fit_d_discrete(series, knots)
    model = build_model(knots, report.d)
    quad = fit_quadratic(series, knots)

    from fractalfit import evaluate_quad

    assert rms_error(model, series) == rms_error(
        lambda z: evaluate_fif(model, z), series
    )
    assert rms_error(quad, series) == rms_error(
        lambda z: evaluate_quad(quad, z), series
    )


def test_compare_chord_data_near_zero():
    z = np.arange(1.0, 201.0)
    series = Series(z, 0.4 * z - 7.0)
    knots = select_knots(series, "manual", indices=[60, 140])
    row = compare(series, knots, name="chord")
    assert row.fractal_rms <= 1e-9
    assert row.quadratic_rms <= 1e-9


def test_compare_fields_and_determinism():
    series, knots = walk_case(1)
    row1 = compare(series, knots, name="walk-1")
    row2 = compare(series, knots, name="walk-1")
    assert row1 == row2  # pure function of its inputs
    assert row1.name == "walk-1"

    report = fit_d_discrete(series, knots)
    assert row1.collage_bound == report.collage_bound
    assert row1.contraction_factor == report.contraction_factor
    assert row1.eval_depth == default_depth(build_model(knots, report.d))


def test_compare_depth_override():
    series, knots = walk_case(2)
    row = compare(series, knots, depth=3)
    assert row.eval_depth == 3


def test_compare_rms_is_of_the_attractor_at_large_contraction():
    # a series sampled from an attractor with max|d_i| = 0.97: the fitted
    # model needs hundreds of levels, and the row's RMS is the attractor's
    z = np.arange(1.0, 1202.0)
    source = Knots(np.array([1.0, 301, 601, 901, 1201]), np.array([0.0, 1.0, -0.5, 0.8, 0.2]))
    series = Series(z, build_model(source, [0.95, -0.9, 0.97, 0.6])(z))
    knots = select_knots(series, "manual", indices=[301, 601, 901])
    row = compare(series, knots)
    model = build_model(knots, fit_d_discrete(series, knots).d)
    assert row.contraction_factor > 0.95
    assert row.eval_depth == default_depth(model) > 48
    deep = rms_error(lambda x: evaluate_fif(model, x, 1500), series)
    assert abs(row.fractal_rms - deep) <= TOL


def test_collage_bound_holds_on_unclamped_fits():
    held = 0
    for seed in range(12):
        series, knots = walk_case(seed, m_count=600, interior=(150, 300, 450))
        report = fit_d_discrete(series, knots)
        if report.clamped.any():
            continue
        row = compare(series, knots)
        assert row.fractal_rms <= row.collage_bound
        held += 1
    assert held >= 10


def test_collage_bound_is_an_estimate():
    # each segment holds one interior sample, which the fit meets exactly,
    # so the discrete collage residual is 0 while the attractor misses
    series, _ = normalize(gen_random_walk(6, 5))
    knots = select_knots(series, "manual", indices=[3, 5])
    assert not fit_d_discrete(series, knots).clamped.any()
    row = compare(series, knots)
    assert row.collage_bound == 0.0
    assert f"{row.fractal_rms:.8f}" == "0.01406832"


def test_quintic_benchmark_row(poly_pipeline):
    series, knots, _ = poly_pipeline
    row = compare(series, knots, name="polynomial")
    assert row.quadratic_rms < row.fractal_rms <= row.collage_bound
    np.testing.assert_allclose(row.contraction_factor, 0.156, atol=5e-4)


def test_criterion_2_account_in_readme(poly_pipeline):
    # README's "Why criterion 2 fails": no power mean of the residual has the
    # targets' fractal / quadratic ratio, and per segment the fits set it
    series, knots, _ = poly_pipeline
    fractal = np.abs(series.w - build_model(knots, fit_d_discrete(series, knots).d)(series.z))
    quadratic = np.abs(series.w - fit_quadratic(series, knots)(series.z))

    def power_mean(e, p):
        return np.max(e) if p == np.inf else np.mean(e**p) ** (1 / p)

    powers = (0.25, 0.5, 1, 1.5, 2, 3, 4, 8, np.inf)
    ratios = [power_mean(fractal, p) / power_mean(quadratic, p) for p in powers]
    row = " | ".join(f"{r:.3f}" for r in ratios)
    assert row == "1.260 | 1.232 | 1.219 | 1.227 | 1.241 | 1.272 | 1.295 | 1.332 | 1.307"
    seg = segment_indices(knots, series.z)
    per_segment = [power_mean(fractal[seg == i], 2) / power_mean(quadratic[seg == i], 2) for i in range(4)]
    assert [f"{r:.2f}" for r in per_segment] == ["25.83", "1.24", "0.96", "2.16"]
    target = 0.0359037 / 0.0245094
    assert f"{target:.3f}" == "1.465" and all(r < 0.91 * target for r in ratios)

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    for quoted in (f"| ratio | {row} |", "0.0359037 / 0.0245094 = 1.465", "25.83, 1.24, 0.96 and 2.16"):
        assert quoted in readme
