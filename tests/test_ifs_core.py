import re
import warnings
from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalfit import (
    FifModel,
    FitReport,
    Knots,
    QuadModel,
    Series,
    build_model,
    collage_residual,
    default_depth,
    evaluate_fif,
    evaluate_quad,
    fit_d_discrete,
    fit_quadratic,
    fixed_point_residual,
    hutchinson_apply,
    ifs_core,
    rms_error,
    segment_indices,
)
from fractalfit.ifs_core import MAX_LEVELS, TOL, _abg_values, _certificate, _chord_b0


def tent_model(d=(0.5, 0.5)):
    return build_model(Knots.from_points([(0, 0), (0.5, 0.5), (1, 0)]), d)


def fixed_depth_reference(model, x, depth):
    """The depth-th pre-fractal by the plain fixed-depth loop over all
    points at once, without chunks or compaction."""
    knots = model.knots
    cur = np.asarray(x, dtype=float)
    a, b = knots.x[0], knots.x[-1]
    y0, yn = knots.y[0], knots.y[-1]
    acc_scale = np.ones_like(cur)
    acc_offset = np.zeros_like(cur)
    for _ in range(depth):
        seg = np.clip(np.searchsorted(knots.x, cur, side="right") - 1, 0, knots.n_segments - 1)
        alpha, beta, gamma = _abg_values(knots, seg, cur)
        di = model.d[seg]
        acc_offset += acc_scale * (alpha - di * beta)
        acc_scale *= di
        cur = np.clip(gamma, a, b)
    base = y0 + (cur - a) / (b - a) * (yn - y0)
    return acc_offset + acc_scale * base


def compacting_reference(model, x):
    """Default-depth values by the loop that drops the points that stop
    from its working arrays at every level, over all points at once."""
    depth, floor = _certificate(model)
    knots = model.knots
    out, live = np.empty(x.size), np.arange(x.size)
    cur, offset, scale = x.copy(), np.zeros(x.size), np.ones(x.size)
    for _ in range(depth):
        if not live.size:
            break
        seg = segment_indices(knots, cur)
        alpha, beta, gamma = _abg_values(knots, seg, cur)
        di = model.d[seg]
        offset += scale * (alpha - di * beta)
        scale *= di
        cur = np.clip(gamma, knots.x[0], knots.x[-1])
        done = np.abs(scale) <= floor
        out[live[done]] = offset[done] + scale[done] * _chord_b0(knots, cur[done])
        live, cur, offset, scale = (v[~done] for v in (live, cur, offset, scale))
    out[live] = offset + scale * _chord_b0(knots, cur)
    return out


def apply_maps(model, x, y):
    """Every map A_i(x, y) = (a_i x + e_i, c_i x + d_i y + f_i) at one point."""
    return model.a * x + model.e, model.c * x + model.d * y + model.f


def random_knots(rng, n_segments, x_span=(0.0, 1.0), y_scale=2.0):
    x = np.sort(rng.uniform(*x_span, n_segments + 1))
    while np.any(np.diff(x) < 1e-3 * (x_span[1] - x_span[0])):
        x = np.sort(rng.uniform(*x_span, n_segments + 1))
    return Knots(x, rng.normal(scale=y_scale, size=n_segments + 1))


# strategies for hypothesis-driven structural properties: knots built from
# positive gaps so the abscissae are strictly increasing by construction
@st.composite
def knots_and_d(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    gaps = draw(
        st.lists(st.floats(0.1, 3.0), min_size=n, max_size=n)
    )
    x0 = draw(st.floats(-5.0, 5.0))
    x = x0 + np.concatenate([[0.0], np.cumsum(gaps)])
    y = np.array(draw(st.lists(st.floats(-5.0, 5.0), min_size=n + 1, max_size=n + 1)))
    d = np.array(draw(st.lists(st.floats(-0.95, 0.95), min_size=n, max_size=n)))
    return Knots(x, y), d


@st.composite
def extreme_models(draw):
    """Valid models across the accepted range: abscissa spans from 1e-3 to
    1e300, max|y| from 1e-3 to 1e306 (TOL is absolute), max|d_i| <= 0.9."""
    n = draw(st.integers(min_value=2, max_value=6))
    span = 10.0 ** draw(st.floats(-3.0, 300.0))
    weights = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n)))
    x = span * draw(st.floats(-1.0, 1.0)) + span * np.concatenate([[0.0], np.cumsum(weights / weights.sum())])
    y = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n + 1, max_size=n + 1)))
    y[draw(st.integers(0, n))] = draw(st.sampled_from([-1.0, 1.0]))
    y *= 10.0 ** draw(st.floats(-3.0, 306.0))
    d = draw(st.lists(st.floats(-0.9, 0.9), min_size=n, max_size=n))
    return build_model(Knots(x, y), d)


class TestKnots:
    def test_basic_properties(self):
        knots = Knots.from_points([(1, 5), (2, -1), (4, 0)])
        assert knots.n_segments == 2
        assert knots.a == 1.0 and knots.b == 4.0

    def test_rejects_non_monotone(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Knots(np.array([0.0, 2.0, 1.0]), np.zeros(3))

    def test_rejects_too_few(self):
        with pytest.raises(ValueError, match="at least 3"):
            Knots(np.array([0.0, 1.0]), np.zeros(2))

    def test_rejects_length_mismatch_and_nonfinite(self):
        with pytest.raises(ValueError):
            Knots(np.array([0.0, 1.0, 2.0]), np.zeros(4))
        with pytest.raises(ValueError, match="non-finite"):
            Knots(np.array([0.0, 1.0, 2.0]), np.array([0.0, np.nan, 1.0]))

    def test_rejects_two_dimensional_abscissae(self):
        with pytest.raises(ValueError, match="knot abscissae must be one-dimensional"):
            Knots(np.array([[0.0, 1.0, 2.0]]), np.zeros(3))

    @pytest.mark.parametrize("x, y, message", [
        ([-1e308, 0.0, 1e308], [0.0, 1.0, 0.0], "knot abscissae span more than the largest double"),
        ([0.0, 1.0, 2.0], [-1e308, 1e308, -1e308], "knot ordinates span more than the largest double"),
        ([-1e308, 1e308, 0.0], [0.0, 1.0, 0.0], "strictly increasing"),
    ], ids=["abscissae", "ordinates", "unsorted"])
    def test_rejects_overflowing_range(self, x, y, message):
        # one ValueError, no numpy overflow warning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                Knots(np.array(x), np.array(y))

    def test_accepts_wide_finite_range(self):
        knots = Knots(np.array([-1e307, 0.0, 1e307]), np.array([-1e307, 1e307, 0.0]))
        assert segment_indices(knots, np.array([-1e307, 1.0, 1e307])).tolist() == [0, 1, 1]

    def test_arrays_immutable(self):
        knots = tent_model().knots
        with pytest.raises(ValueError):
            knots.x[0] = 7.0

    @pytest.mark.parametrize("points", [5, [[0, 0], [1]], [[0, 0, 0], [1, 1, 1]], []])
    def test_from_points_rejects_non_pairs(self, points):
        with pytest.raises(ValueError):
            Knots.from_points(points)


TENT_KNOTS = Knots.from_points([(0, 0), (1, 1), (2, 0)])
TENT_SERIES = Series(TENT_KNOTS.x, TENT_KNOTS.y)


@pytest.mark.parametrize("make, name, size, length_error", [
    (lambda v: Knots([0.0, 1.0, 2.0], v), "knot ordinates", 3, None),
    (lambda v: Series([0.0, 1.0, 2.0], v), "series ordinates", 3, None),
    (lambda v: FifModel(TENT_KNOTS, v), "scaling factors", 2, None),
    (lambda v: QuadModel(TENT_KNOTS, v, [False, False]), "curvatures", 2, None),
    # the flags are sized by d, so a d one too long is refused by them
    (lambda v: FitReport(v, [False, False], [False, False], 0.0, 0.25, 0.0), "scaling factors", 2,
     "expected 3 clamped flags, got 2"),
    (lambda v: collage_residual(TENT_SERIES, TENT_KNOTS, v), "scaling factors", 2, None),
    (lambda v: QuadModel(TENT_KNOTS, [0.5, -0.5], v), "chord fallback flags", 2, None),
    (lambda v: FitReport([0.5, 0.5], v, [False, False], 0.0, 0.25, 0.0), "clamped flags", 2, None),
    (lambda v: FitReport([0.5, 0.5], [False, False], v, 0.0, 0.25, 0.0), "degenerate flags", 2, None),
], ids=["Knots", "Series", "FifModel", "QuadModel", "FitReport", "collage_residual",
        "QuadModel-chord_fallback", "FitReport-clamped", "FitReport-degenerate"])
def test_stored_arrays_share_one_length_rule(make, name, size, length_error):
    flags = name.endswith(" flags")
    good = [False if flags else 0.25] * size
    make(good)
    # a flag array takes booleans only: a number or a string is not cast to one
    not_entries = [[np.nan] + good[1:], *([[0] * size, ["no", ""]] if flags else [])]
    not_an_entry = f"{name} must be booleans" if flags else f"{name} contains non-finite values"
    for values, message in (
        (good + good[:1], length_error or f"expected {size} {name}, got {size + 1}"),
        ([[v] for v in good], f"{name} must be one-dimensional"),
        *((values, not_an_entry) for values in not_entries),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make(values)


class TestBuildModel:
    def test_tent_coefficients(self):
        # symmetric tent with d = 0.5: coefficients derivable by hand
        model = tent_model()
        assert model.a.tolist() == [0.5, 0.5]
        assert model.e.tolist() == [0.0, 0.5]
        assert model.c.tolist() == [0.5, -0.5]
        assert model.f.tolist() == [0.0, 0.5]
        assert model.contraction_factor == 0.5
        assert np.array_equal(model.d, [0.5, 0.5])

    def test_rejects_non_contractive(self):
        knots = Knots.from_points([(0, 0), (1, 1), (2, 0)])
        with pytest.raises(ValueError, match=r"\|d_i\| < 1"):
            build_model(knots, [0.5, 1.0])

    def test_rejects_length_mismatch(self):
        knots = Knots.from_points([(0, 0), (1, 1), (2, 0)])
        with pytest.raises(ValueError, match="expected 2"):
            build_model(knots, [0.5])

    def test_model_checks_and_freezes_d(self):
        knots = Knots.from_points([(0, 0), (1, 1), (2, 0)])
        with pytest.raises(ValueError, match=r"\|d_i\| < 1"):
            FifModel(knots, np.array([0.5, -1.0]))
        with pytest.raises(ValueError, match="non-finite"):
            FifModel(knots, [0.5, np.nan])
        model = FifModel(knots, [0.25, 0.5])
        with pytest.raises(ValueError):
            model.d[0] = 0.0

    def test_model_is_callable(self):
        model = tent_model((0.3, -0.6))
        xs = np.linspace(0.0, 1.0, 17)
        assert np.array_equal(model(xs), evaluate_fif(model, xs))
        assert np.array_equal(model(xs, 3), evaluate_fif(model, xs, 3))
        assert model(0.5) == 0.5

    @given(knots_and_d())
    @settings(max_examples=60, deadline=None)
    def test_endpoint_mapping(self, kd):
        # A_i must carry the graph endpoints to the segment endpoints (the
        # defining constraint of the construction)
        knots, d = kd
        model = build_model(knots, d)
        x, y = knots.x, knots.y
        lx, ly = apply_maps(model, x[0], y[0])
        rx, ry = apply_maps(model, x[-1], y[-1])
        np.testing.assert_allclose(
            np.column_stack([lx, ly, rx, ry]),
            np.column_stack([x[:-1], y[:-1], x[1:], y[1:]]),
            rtol=1e-12,
            atol=1e-12,
        )

    @given(knots_and_d())
    @settings(max_examples=40, deadline=None)
    def test_partition(self, kd):
        # horizontal contractions tile [a, b]: sum a_i = 1 and images abut
        knots, d = kd
        model = build_model(knots, d)
        assert abs(model.a.sum() - 1.0) < 1e-12
        images = np.column_stack(
            [model.a * knots.a + model.e, model.a * knots.b + model.e]
        )
        np.testing.assert_allclose(
            images.ravel(),
            np.repeat(knots.x, 2)[1:-1],
            rtol=1e-12,
            atol=1e-12,
        )


class TestAlphaBetaGamma:
    # alpha, beta, gamma in the anchored form v_l + (v_r - v_l) t that
    # evaluation and fitting share

    def test_tent_first_segment(self):
        knots = tent_model().knots
        alpha, beta, gamma = _abg_values(knots, np.zeros(3, dtype=int), np.array([0.0, 0.25, 0.5]))
        assert alpha[0] == 0 and alpha[2] == 0.5
        assert gamma[0] == 0 and gamma[2] == 1.0
        # y0 = yN = 0 makes beta vanish identically
        assert np.all(beta == 0)

    def test_endpoint_identities(self):
        rng = np.random.default_rng(3)
        knots = random_knots(rng, 5, x_span=(2.0, 9.0))
        x, y = knots.x, knots.y
        seg = np.arange(knots.n_segments)
        for at, want_alpha, want_beta, want_gamma in (
            (x[:-1], y[:-1], y[0], knots.a),
            (x[1:], y[1:], y[-1], knots.b),
        ):
            alpha, beta, gamma = _abg_values(knots, seg, at)
            np.testing.assert_allclose(alpha, want_alpha, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(beta, want_beta, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(gamma, want_gamma, rtol=1e-12, atol=1e-12)

    def test_gamma_inverts_horizontal_map(self):
        rng = np.random.default_rng(4)
        knots = random_knots(rng, 4)
        model = build_model(knots, [0.1, -0.2, 0.3, 0.4])
        xs = np.linspace(knots.a, knots.b, 37)
        for i in range(knots.n_segments):
            u = model.a[i] * xs + model.e[i]  # u_i maps [a,b] onto segment i
            gamma = _abg_values(knots, np.full(xs.size, i), u)[2]
            np.testing.assert_allclose(gamma, xs, rtol=1e-10, atol=1e-10)

    def test_rejects_out_of_range(self):
        # segment labels come only from segment_indices, which stays in
        # 0..N-1 for any abscissa; evaluation rejects points outside [a, b]
        model = tent_model()
        labels = segment_indices(model.knots, [-1.0, 0.0, 0.5, 1.0, 2.0, np.nan])
        assert labels.tolist() == [0, 0, 1, 1, 1, 1]
        for outside in (-0.5, 1.5, np.nan, np.array([0.5, np.nan])):
            with pytest.raises(ValueError, match="outside model domain"):
                model(outside)


def test_segment_indices_half_open():
    knots = Knots(np.array([0.0, 1.0, 2.0, 3.0]), np.zeros(4))
    xs = np.array([0.0, 0.999, 1.0, 1.5, 2.0, 2.999, 3.0])
    assert segment_indices(knots, xs).tolist() == [0, 0, 1, 1, 2, 2, 2]


@st.composite
def lookup_cases(draw):
    """Knot abscissae, random, geometric (2^-k), clustered at 1e-9 or
    subnormal, and queries: the knots, their float neighbours, points inside,
    points outside the domain up to +-1e308, infinite and NaN."""
    n = draw(st.integers(2, 300))
    kind = draw(st.sampled_from(["random", "geometric", "clustered", "subnormal"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "random":
        x = np.unique(rng.uniform(-1e3, 1e3, n + 1))
    elif kind == "geometric":
        x = np.append(0.0, 2.0 ** -np.arange(n)[::-1])
    elif kind == "clustered":
        x = np.unique(np.concatenate([[0.0, 1.0], 1e-9 + rng.integers(0, 4 * n, n) * 1e-23]))
    else:
        x = np.cumsum(rng.integers(1, 1000, n + 1)) * 5e-324
    far = rng.uniform(-1.0, 1.0, 40) * 10.0 ** rng.integers(0, 309, 40)
    queries = np.concatenate([
        x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf),
        rng.uniform(x[0], x[-1], 200), far, [-1e308, 1e308, np.inf, -np.inf, np.nan],
    ])
    return Knots(x, np.zeros(x.size)), rng.permutation(queries)


@given(lookup_cases())
@settings(max_examples=300, deadline=None)
def test_segment_indices_match_binary_search(case):
    knots, queries = case
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = segment_indices(knots, queries)
    want = np.clip(np.searchsorted(knots.x, queries, side="right") - 1, 0, knots.n_segments - 1)
    assert np.array_equal(got, want)


class TestHutchinson:
    def test_zero_d_gives_piecewise_linear(self):
        knots = Knots.from_points([(0, 1), (1, 3), (2, 0), (3, 2)])
        model = build_model(knots, [0.0, 0.0, 0.0])
        grid = np.linspace(0, 3, 301)
        g = Series(grid, np.sin(grid))  # arbitrary start
        out = hutchinson_apply(model, g)
        np.testing.assert_allclose(
            out.w, np.interp(grid, knots.x, knots.y), atol=1e-12
        )

    def test_chord_start_interpolates_knots(self):
        rng = np.random.default_rng(5)
        knots = random_knots(rng, 4, x_span=(0.0, 4.0))
        model = build_model(knots, [0.4, -0.6, 0.2, 0.7])
        grid = np.unique(np.concatenate([np.linspace(knots.a, knots.b, 211), knots.x]))
        chord = knots.y[0] + (knots.y[-1] - knots.y[0]) * (grid - knots.a) / (
            knots.b - knots.a
        )
        out = hutchinson_apply(model, Series(grid, chord))
        at_knots = out.w[np.searchsorted(grid, knots.x)]
        np.testing.assert_allclose(at_knots, knots.y, rtol=1e-12, atol=1e-12)

    def test_successive_iterates_contract(self):
        # tent model: gap between iterates must shrink by at least d = 0.5
        model = tent_model()
        grid = np.linspace(0, 1, 1025)
        cur = Series(grid, np.zeros_like(grid))
        gaps = []
        for _ in range(12):
            nxt = hutchinson_apply(model, cur)
            gaps.append(np.max(np.abs(nxt.w - cur.w)))
            cur = nxt
        gaps = np.array(gaps)
        # on a dyadic grid the iteration lands on the attractor exactly, so
        # only ratio gaps that are still nonzero
        live = gaps[:-1] > 0
        ratios = gaps[1:][live] / gaps[:-1][live]
        assert ratios.size >= 5
        assert np.all(ratios <= 0.5 + 1e-12)

    def test_rejects_grid_not_spanning_domain(self):
        model = tent_model()
        g = Series(np.linspace(0, 0.9, 10), np.zeros(10))
        with pytest.raises(ValueError, match="domain"):
            hutchinson_apply(model, g)


class TestEvaluate:
    def test_knot_exactness_at_all_depths(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            knots = random_knots(rng, 5, x_span=(1.0, 100.0))
            model = build_model(knots, rng.uniform(-0.9, 0.9, 5))
            for depth in (1, 2, 5, None):
                np.testing.assert_allclose(
                    evaluate_fif(model, knots.x, depth),
                    knots.y,
                    rtol=1e-12,
                    atol=1e-12,
                )

    def test_depth_zero_is_chord(self):
        model = tent_model()
        xs = np.linspace(0, 1, 11)
        np.testing.assert_allclose(evaluate_fif(model, xs, 0), np.zeros(11), atol=0)

    def test_zero_d_is_piecewise_linear(self):
        knots = Knots.from_points([(0, 1), (2, -3), (5, 4), (6, 0)])
        model = build_model(knots, np.zeros(3))
        xs = np.linspace(0, 6, 601)
        np.testing.assert_allclose(
            evaluate_fif(model, xs, 25),
            np.interp(xs, knots.x, knots.y),
            atol=1e-12,
        )

    def test_scalar_in_scalar_out(self):
        model = tent_model()
        value = evaluate_fif(model, 0.5, 3)
        assert isinstance(value, float) and value == 0.5

    def test_matches_grid_iteration(self):
        # the pointwise recursion and the grid operator must agree at depth n
        model = tent_model(d=(0.4, -0.35))
        grid = np.linspace(0, 1, 2049)
        g = Series(
            grid, model.knots.y[0] + (model.knots.y[-1] - model.knots.y[0]) * grid
        )
        for _ in range(6):
            g = hutchinson_apply(model, g)
        np.testing.assert_allclose(
            evaluate_fif(model, grid, 6), g.w, atol=1e-10
        )

    def test_depth_convergence_rate(self):
        model = tent_model(d=(0.5, -0.5))
        xs = np.linspace(0, 1, 257)
        deep = evaluate_fif(model, xs, 60)
        gap0 = np.max(np.abs(evaluate_fif(model, xs, 0) - deep))
        for depth in (3, 6, 9, 12):
            gap = np.max(np.abs(evaluate_fif(model, xs, depth) - deep))
            assert gap <= 0.5**depth * gap0 * (1 + 1e-9) + 1e-15

    def test_tent_symmetry(self):
        # knots and scalings are symmetric about x = 0.5, so the attractor is
        xs = np.linspace(0, 1, 513)
        vals = evaluate_fif(tent_model(), xs)
        np.testing.assert_allclose(vals, vals[::-1], atol=1e-12)

    def test_rejects_outside_domain(self):
        model = tent_model()
        with pytest.raises(ValueError, match="outside"):
            evaluate_fif(model, 1.5, 3)
        with pytest.raises(ValueError, match="outside"):
            evaluate_fif(model, np.array([0.2, -0.1]), 3)
        for nan in (np.nan, np.array([0.5, np.nan])):
            with pytest.raises(ValueError, match="outside"):
                evaluate_fif(model, nan)

    def test_rejects_negative_depth(self):
        with pytest.raises(ValueError, match="depth"):
            evaluate_fif(tent_model(), 0.5, -1)

    def test_explicit_depth_matches_fixed_depth_loop(self):
        # stopping a point once its scale is exactly 0, and working in
        # chunks, leave every explicit-depth value bit for bit unchanged
        rng = np.random.default_rng(8)
        for case in range(24):
            n = int(rng.integers(2, 12))
            model = build_model(random_knots(rng, n, x_span=(-3.0, 50.0)), rng.uniform(-0.99, 0.99, n))
            if case % 3:
                model = build_model(model.knots, np.where(rng.random(n) < 0.5, 0.0, model.d))
            if case % 8 == 0:
                model = build_model(model.knots, np.zeros(n))
            size = 70_001 if case % 6 == 0 else 2_001  # more than one chunk
            xs = np.concatenate([model.knots.x, np.linspace(model.knots.a, model.knots.b, size)])
            for depth in (0, 1, 3, 17, 48):
                got = evaluate_fif(model, xs, depth)
                want = fixed_depth_reference(model, xs, depth)
                assert np.array_equal(got, want), (case, depth)
                assert np.array_equal(np.signbit(got), np.signbit(want)), (case, depth)

    @pytest.mark.parametrize("chunk", [ifs_core._CHUNK, 64])
    def test_lazy_stops_match_compacting_loop(self, monkeypatch, chunk):
        # a rough model (one d = 0.95) stops its points over hundreds of
        # levels; keeping stopped points in their slots until half of a
        # block has stopped leaves every value bit for bit, sign bits included
        monkeypatch.setattr(ifs_core, "_CHUNK", chunk)
        rng = np.random.default_rng(16)
        d = rng.uniform(-0.6, 0.6, 16)
        d[5] = 0.95
        model = build_model(random_knots(rng, 16, x_span=(0.0, 1e4)), d)
        xs = np.linspace(model.knots.a, model.knots.b, 2 * ifs_core._CHUNK + 4_321)
        got, want = evaluate_fif(model, xs), compacting_reference(model, xs)
        assert default_depth(model) > 100
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("c", [0.7, 0.8, 0.9, 0.95, 0.99])
    def test_default_converges_for_large_contraction(self, c):
        # the attractor to TOL, past the 0.65 where a depth of 48 falls short
        rng = np.random.default_rng(int(c * 100))
        knots = random_knots(rng, 5)
        model = build_model(knots, c * rng.choice([-1.0, 1.0], 5))
        xs = np.linspace(knots.a, knots.b, 1001)
        deep = fixed_depth_reference(model, xs, int(np.log(1e-14) / np.log(c)) + 600)
        assert np.max(np.abs(evaluate_fif(model, xs) - deep)) <= TOL + 1e-11
        np.testing.assert_allclose(evaluate_fif(model, knots.x), knots.y, rtol=0, atol=1e-12)


def exact_attractor(model, x) -> Fraction:
    """f*(x) in exact arithmetic, for a model with integer knots, power-of-two
    widths summing to a power of two, and y_k, d_i in multiples of 1/64 with
    |d_i| <= 63/64; ``x`` is a double or a Fraction in [a, b].

    gamma_i scales x - x_{i-1} by the power of two (b - a) / width_i, so
    each level shrinks the power of two in x's denominator and keeps its odd
    part: the orbit x_0, x_1, ... stays in a finite set of rationals in
    [a, b] and repeats (a double's orbit reaches the integers).  Along it f*(x_j) = c_j + d_j f*(x_{j+1}) with
    c_j = alpha(x_j) - d_j beta(x_j) (segments half-open, the last closed), so
    the cycle gives its first point's value by one division, and the values
    before the cycle follow back to f*(x_0)."""
    kx = [int(v) for v in model.knots.x]
    ky = [Fraction(float(v)) for v in model.knots.y]
    d = [Fraction(float(v)) for v in model.d]
    span = kx[-1] - kx[0]
    assert kx == model.knots.x.tolist()
    assert all(w & (w - 1) == 0 for w in np.diff(kx).tolist()) and span & (span - 1) == 0
    assert all((64 * v).denominator == 1 for v in ky + d) and max(map(abs, d)) <= Fraction(63, 64)
    x = Fraction(x)
    assert kx[0] <= x <= kx[-1]
    seen, steps = {}, []  # each orbit point's position; (c_j, d_j) along the orbit
    while x not in seen:
        seen[x] = len(steps)
        i = bisect_right(kx, x, 1, len(kx) - 1) - 1
        t = (x - kx[i]) / (kx[i + 1] - kx[i])
        alpha, beta = ky[i] + (ky[i + 1] - ky[i]) * t, ky[0] + (ky[-1] - ky[0]) * t
        steps.append((alpha - d[i] * beta, d[i]))
        x = kx[0] + t * span  # gamma_i(x)
    cycle = seen[x]
    value, gain = Fraction(0), Fraction(1)  # f*(x_cycle) = value + gain * f*(x_cycle)
    for c, di in reversed(steps[cycle:]):
        value, gain = c + di * value, di * gain
    value /= 1 - gain
    for c, di in reversed(steps[:cycle]):
        value = c + di * value
    return value


def dyadic_model(rng, d=None):
    """A model :func:`exact_attractor` takes: 2-6 segments from halving a
    span of 8-32 at random, shifted by an integer, with y_k in [-2, 2] and
    d_i in [-63/64, 63/64] drawn in steps of 1/64 unless ``d`` is given."""
    n, widths = int(rng.integers(2, 7)), [1 << int(rng.integers(3, 6))]
    while len(widths) < n:
        k = rng.choice(np.flatnonzero(np.array(widths) > 1))
        widths[k:k + 1] = [widths[k] // 2] * 2
    x = int(rng.integers(-8, 9)) + np.cumsum([0] + widths)
    d = rng.integers(-63, 64, n) / 64 if d is None else d
    return build_model(Knots(x.astype(float), rng.integers(-128, 129, n + 1) / 64), d)


class TestExactAttractor:
    """:func:`evaluate_fif` against an exact oracle rather than against
    deeper runs of itself."""

    def test_oracle_closed_forms(self):
        rng = np.random.default_rng(40)
        for _ in range(10):
            model = dyadic_model(rng)
            kx = model.knots.x.astype(int).tolist()
            ky = [Fraction(float(v)) for v in model.knots.y]
            polyline = build_model(model.knots, np.zeros(model.knots.n_segments))
            # d = 0: the polyline through the knots
            for x in [Fraction(float(v)) for v in rng.uniform(kx[0], kx[-1], 20)] + kx:
                i = bisect_right(kx, x, 1, len(kx) - 1) - 1
                t = (x - kx[i]) / (kx[i + 1] - kx[i])
                assert exact_attractor(polyline, x) == ky[i] + (ky[i + 1] - ky[i]) * t
            # the fixed point x* of map i, where gamma_i(x*) = x*
            span = kx[-1] - kx[0]
            for i, di in enumerate(Fraction(float(v)) for v in model.d):
                width = kx[i + 1] - kx[i]
                x = Fraction(kx[i] * span - kx[0] * width, span - width)
                t = (x - kx[i]) / width
                alpha, beta = ky[i] + (ky[i + 1] - ky[i]) * t, ky[0] + (ky[-1] - ky[0]) * t
                assert exact_attractor(model, x) == (alpha - di * beta) / (1 - di)

    def test_default_evaluation_is_within_tol(self):
        # TOL bounds the truncation; 1e-12 is allowed for rounding in the
        # accumulated double arithmetic, which the certificate does not count
        rng = np.random.default_rng(41)
        worst = 0.0
        for case in range(30):
            model = dyadic_model(rng)
            if case == 0:
                model = build_model(model.knots, np.full(model.knots.n_segments, 63 / 64))
            a, b = model.knots.a, model.knots.b
            xs = np.concatenate([rng.uniform(a, b, 20), np.round(rng.uniform(a, b, 20) * 1024) / 1024,
                                 model.knots.x])
            for x, value in zip(xs, evaluate_fif(model, xs)):
                worst = max(worst, abs(float(Fraction(float(value)) - exact_attractor(model, x))))
        assert worst <= TOL + 1e-12

    def test_rounded_abscissa_moves_a_rough_value(self):
        # 8/3 is the fixed point of the middle map (d = 0.890625, a quarter
        # of the span), where the attractor's Hoelder exponent is about
        # log(0.890625) / log(1/4) = 0.08: rounding 8/3 to a double moves f*
        # by 0.40, and evaluation is right at the double it is given
        model = build_model(Knots(np.array([0.0, 2.0, 4.0, 8.0]), np.array([0.0, 1.0, 1.0, 0.0])),
                            [-0.4375, 0.890625, 0.8125])
        at_double = exact_attractor(model, 8 / 3)
        assert exact_attractor(model, Fraction(8, 3)) == Fraction(64, 7)
        assert f"{float(Fraction(64, 7) - at_double):.2f}" == "0.40"
        assert abs(evaluate_fif(model, 8 / 3) - float(at_double)) <= TOL


class TestBlocks:
    """Blocks change where the per-sample passes keep their temporaries,
    never the arithmetic or the order of a sum."""

    @staticmethod
    def outputs(series, knots, xs):
        report = fit_d_discrete(series, knots)
        quad = fit_quadratic(series, knots)
        model = build_model(knots, report.d)
        return [
            report.d, report.clamped, report.degenerate, report.collage_rss, report.collage_bound,
            collage_residual(series, knots, report.d), quad.curvature, quad.chord_fallback,
            evaluate_quad(quad, xs), evaluate_fif(model, xs),
            *(evaluate_fif(model, xs, depth) for depth in (0, 1, 7)),
            rms_error(model, series), rms_error(quad, series),
        ]

    @pytest.mark.parametrize("m_count", [127, 128, 129, 1000])
    @pytest.mark.parametrize("even", [True, False])
    def test_block_size_moves_no_bit(self, monkeypatch, m_count, even):
        rng = np.random.default_rng(m_count + even)
        z = np.arange(1.0, m_count + 1) if even else np.cumsum(rng.uniform(0.5, 1.5, m_count))
        w = np.cumsum(rng.standard_normal(m_count))
        inner = rng.choice(np.arange(1, m_count - 1), 6, replace=False)
        full = np.sort(np.concatenate([[0, m_count - 1], inner]))
        series, knots = Series(z, w), Knots(z[full], w[full])
        xs = np.concatenate([z, np.linspace(z[0], z[-1], 301)])
        want = self.outputs(series, knots, xs)
        for chunk in (5, 64):
            monkeypatch.setattr(ifs_core, "_CHUNK", chunk)  # read at call time
            assert ifs_core._blocks(m_count)[:2] == [slice(0, chunk), slice(chunk, 2 * chunk)]
            got = self.outputs(series, knots, xs)
            assert [np.asarray(v).tobytes() for v in got] == [np.asarray(v).tobytes() for v in want]


class TestDepthAndResidual:
    def test_default_depth_values(self):
        # the tent's knots lie 0.5 off its chord, so B = 0.5 / (1 - c)
        assert default_depth(tent_model(d=(0.5, 0.5))) == 30  # 0.5^30 * 1 <= 1e-9
        assert default_depth(tent_model(d=(0.0, 0.0))) == 1
        assert default_depth(tent_model(d=(0.99, 0.99))) == 2452  # 0.99^2452 * 50 <= 1e-9

    def test_default_depth_is_smallest_certified(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            knots = random_knots(rng, 4)
            model = build_model(knots, rng.uniform(-0.99, 0.99, 4))
            c = model.contraction_factor
            chord = knots.y[0] + (knots.y[-1] - knots.y[0]) * (knots.x - knots.a) / (knots.b - knots.a)
            bound = np.max(np.abs(knots.y - chord)) / (1 - c)
            depth = default_depth(model)
            assert c**depth * bound <= TOL * (1 + 1e-12) < c ** (depth - 1) * bound * (1 + 1e-12)

    def test_certificate_matches_the_replaced_formulas(self):
        # against the formulas the certificate replaces: D in logs from the
        # chord y0 + (yN - y0) * (x - a) / (b - a), and the floor TOL / B;
        # both floor forms round twice, so they agree to two ulps
        rng = np.random.default_rng(15)
        for _ in range(500):
            n = int(rng.integers(2, 10))
            knots = random_knots(rng, n, x_span=(-50.0, 50.0), y_scale=10 ** rng.uniform(-2, 3))
            model = build_model(knots, rng.uniform(-0.99, 0.99, n))
            c, x, y = model.contraction_factor, knots.x, knots.y
            gap = np.max(np.abs(y - (y[0] + (y[-1] - y[0]) * (x - x[0]) / (x[-1] - x[0]))))
            want = max(1, int(np.ceil((np.log(gap) - np.log1p(-c) - np.log(TOL)) / -np.log(c))))
            depth, floor = _certificate(model)
            assert depth == want == default_depth(model)
            gap = np.max(np.abs(y - (y[0] + (x - x[0]) / (x[-1] - x[0]) * (y[-1] - y[0]))))
            assert floor == pytest.approx(TOL / (gap / (1 - c)), rel=2 * np.finfo(float).eps, abs=0)

    @settings(max_examples=150, deadline=None)
    @given(extreme_models())
    def test_extreme_models_evaluate_finite(self, model):
        knots = model.knots
        xs = np.concatenate([knots.x, np.linspace(knots.a, knots.b, 33)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            depth = default_depth(model)
            values = {explicit: evaluate_fif(model, xs, explicit) for explicit in (None, 0, 1, 5)}
        for explicit, curve in values.items():
            assert np.all(np.isfinite(curve)), explicit
        miss = np.max(np.abs(values[None][:knots.x.size] - knots.y))
        # from depth 1 on every knot is hit up to rounding; depth 0 is taken
        # only when every knot lies on b0, which then hits them all exactly
        assert miss <= 1e-12 * np.max(np.abs(knots.y)), depth

    def test_knots_near_the_chord_are_hit(self):
        # the middle knot is 1e-10 off the chord, closer than TOL: one level
        # still passes through it, where b0 would miss it by 1e-10
        model = build_model(Knots.from_points([(0, 0), (0.5, 1e-10), (1, 0)]), [0.5, 0.5])
        assert default_depth(model) == 1
        assert evaluate_fif(model, 0.5) == 1e-10

    def test_collinear_knots_need_no_levels(self):
        model = build_model(Knots.from_points([(0, 1), (1, 2), (3, 4)]), [0.9, -0.9])
        assert default_depth(model) == 0
        xs = np.linspace(0, 3, 7)
        np.testing.assert_allclose(evaluate_fif(model, xs), xs + 1, rtol=0, atol=1e-15)

    def test_level_ceiling(self):
        # a contraction near 1 would need tens of thousands of levels or
        # more: refused at once, while an explicit depth still evaluates
        assert default_depth(tent_model(d=(0.997, 0.997))) <= MAX_LEVELS
        for c in (0.999, 0.9999999):
            model = tent_model(d=(c, 0.5))
            for call in (lambda: default_depth(model), lambda: evaluate_fif(model, 0.3)):
                with pytest.raises(ValueError, match=rf"needs \d+ evaluation levels, more than {MAX_LEVELS}") as info:
                    call()
                assert f"max|d_i| = {c} " in str(info.value) and "--depth" in str(info.value)
            assert evaluate_fif(model, 0.5, 5) == 0.5

    def test_per_point_stop_survives_overflowing_bound(self, monkeypatch):
        # B = 1e308 / (1 - 0.9) overflows; points that pass the d = 0.1
        # segment must still stop early, as they do at y = 1e300 (about 8%
        # of the levels), rather than run nearly all D levels
        model = build_model(Knots.from_points([(0, 0), (1, 1e308), (2, 0)]), [0.9, 0.1])
        xs = np.linspace(0, 2, 1001)
        lookup, sizes = ifs_core.segment_indices, []

        def counting(knots, x):
            sizes.append(np.size(x))
            return lookup(knots, x)

        monkeypatch.setattr(ifs_core, "segment_indices", counting)
        values = evaluate_fif(model, xs)
        assert sum(sizes) < 0.95 * xs.size * default_depth(model)
        assert np.all(np.isfinite(values)) and values[500] == 1e308

    def test_residual_dyadic_tent(self):
        assert fixed_point_residual(tent_model(), 4097, 40) < 1e-6

    def test_residual_zero_d(self):
        model = build_model(Knots.from_points([(0, 1), (1, 3), (2, 0)]), [0, 0])
        assert fixed_point_residual(model, 513, 5) == 0.0

    def test_high_contraction_deep_evaluation(self):
        model = tent_model(d=(0.9, -0.9))
        assert fixed_point_residual(model, 1025, 200) < 1e-6

    def test_rejects_tiny_resolution(self):
        with pytest.raises(ValueError, match="resolution"):
            fixed_point_residual(tent_model(), 1, 10)
