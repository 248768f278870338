"""End-to-end acceptance checks.

Each test measures one reference or structural target, appends a single
``criterion N (...): PASS/FAIL`` line to the shared log (echoed after the
run by conftest), and only then asserts.  A failing criterion therefore
still leaves a readable verdict in the output.
"""

import json
import time

import numpy as np
import pytest

from fractalfit import (
    Knots,
    QuadModel,
    build_model,
    collage_residual,
    evaluate_fif,
    evaluate_quad,
    fit_d_discrete,
    fit_quadratic,
    fixed_point_residual,
    gen_polynomial,
    gen_random_walk,
    hutchinson_apply,
    normalize,
    piecewise_constant_extension,
    rms_error,
    segment_indices,
    select_knots,
    Series,
)
from fractalfit.cli import main as cli_main


def record(log, number, title, ok, detail):
    line = f"criterion {number} ({title}): {'PASS' if ok else 'FAIL'} -- {detail}"
    log.append(line)
    print(line)
    return line


def bench_pipeline():
    series, _ = normalize(gen_polynomial(10_000))
    knots = select_knots(series, "manual", indices=[500, 4000, 7500])
    return series, knots


def test_criterion_1_benchmark_d_values(acceptance_log):
    target = np.array([0.066, 0.155, 0.033, 0.096])
    start = time.perf_counter()
    series, knots = bench_pipeline()
    report = fit_d_discrete(series, knots)
    elapsed = time.perf_counter() - start

    deltas = np.abs(report.d - target)
    ok = bool(np.all(deltas <= 0.005)) and elapsed < 1.0
    detail = (
        f"d=({', '.join(f'{v:.4f}' for v in report.d)}), "
        f"max|delta|={deltas.max():.2e} (tol 5e-03), {elapsed:.2f} s"
    )
    record(acceptance_log, 1, "benchmark d-values", ok, detail)

    assert np.all(deltas <= 0.005), f"d outside tolerance: {report.d} vs {target}"
    assert elapsed < 1.0, f"pipeline took {elapsed:.2f} s"


def test_criterion_2_benchmark_error_table(acceptance_log):
    target_fractal, target_quad = 0.0359037, 0.0245094
    start = time.perf_counter()
    series, knots = bench_pipeline()
    report = fit_d_discrete(series, knots)
    fif = build_model(knots, report.d)
    quad = fit_quadratic(series, knots)
    fractal_rms = rms_error(fif, series)
    quad_rms = rms_error(quad, series)
    elapsed = time.perf_counter() - start

    rel_f = abs(fractal_rms - target_fractal) / target_fractal
    rel_q = abs(quad_rms - target_quad) / target_quad
    ordering = quad_rms < fractal_rms
    ok = rel_f <= 0.02 and rel_q <= 0.02 and ordering and elapsed < 5.0
    detail = (
        f"fractal_rms={fractal_rms:.7f} (target {target_fractal} +-2%), "
        f"quadratic_rms={quad_rms:.7f} (target {target_quad} +-2%), "
        f"ordering quadratic<fractal {'holds' if ordering else 'VIOLATED'}, "
        f"{elapsed:.2f} s"
    )
    record(acceptance_log, 2, "benchmark error table", ok, detail)

    assert ordering, "quadratic baseline should beat the fractal fit here"
    assert elapsed < 5.0, f"pipeline took {elapsed:.2f} s"
    assert rel_f <= 0.02, (
        f"fractal RMS {fractal_rms:.7f} is {rel_f:.1%} from {target_fractal}"
    )
    assert rel_q <= 0.02, (
        f"quadratic RMS {quad_rms:.7f} is {rel_q:.1%} from {target_quad}"
    )


def _scan_min(u, v, grid):
    """Grid point minimizing sum((u - t*v)**2) -- brute force, no algebra."""
    resid = u[None, :] - grid[:, None] * v[None, :]
    return float(grid[int(np.argmin(np.einsum("ij,ij->i", resid, resid)))])


def _segment_uv(series, knots, index, extension):
    # anchored form, matching how the fit evaluates alpha/beta/gamma; the
    # nearest-neighbor extension has midpoint ties, so gamma must be computed
    # with the same arithmetic or a 1-ulp difference picks another sample
    mask = segment_indices(knots, series.z) == index
    z, w = series.z[mask], series.w[mask]
    kx, ky = knots.x, knots.y
    t = (z - kx[index]) / (kx[index + 1] - kx[index])
    alpha = ky[index] + (ky[index + 1] - ky[index]) * t
    beta = ky[0] + (ky[-1] - ky[0]) * t
    gamma = kx[0] + (kx[-1] - kx[0]) * t
    return alpha - w, beta - extension(gamma)


def test_criterion_3_fit_property_suites(acceptance_log):
    # -- collage bound on fresh random-walk fits ---------------------------
    bound_checked = bound_ok = 0
    min_margin = np.inf
    for seed in range(120):
        series, _ = normalize(gen_random_walk(2000, seed))
        try:
            knots = select_knots(
                series, "extrema", n_interior=7, window=51, prominence=0.02
            )
        except ValueError:
            continue
        if knots.n_segments != 8:
            continue
        report = fit_d_discrete(series, knots)
        if report.clamped.any() or report.degenerate.any():
            continue
        rms = rms_error(build_model(knots, report.d), series)
        bound_checked += 1
        if rms <= report.collage_bound:
            bound_ok += 1
            min_margin = min(min_margin, report.collage_bound / rms)

    # -- closed form vs brute-force grid search; perturbation optimality --
    coarse_d = np.linspace(-0.999, 0.999, 1999)
    coarse_s = np.linspace(-20.0, 20.0, 4001)
    max_dd = max_ds = 0.0
    opt_violations = 0
    collected = 0
    seed = 0
    while collected < 50 and seed < 200:
        seed += 1
        m_count = 120 + (seed * 7) % 81
        series, _ = normalize(gen_random_walk(m_count, 1000 + seed))
        rng = np.random.default_rng(seed)
        interior = np.sort(
            rng.choice(np.arange(2, m_count), int(rng.integers(2, 6)), replace=False)
        )
        knots = select_knots(series, "manual", indices=interior.tolist())
        report = fit_d_discrete(series, knots)
        quad = fit_quadratic(series, knots)
        if report.clamped.any() or report.degenerate.any() or quad.chord_fallback.any():
            continue
        collected += 1

        extension = piecewise_constant_extension(series)
        for i in range(knots.n_segments):
            u, v = _segment_uv(series, knots, i, extension)
            best = _scan_min(u, v, coarse_d)
            d_star = _scan_min(u, v, np.linspace(best - 2e-3, best + 2e-3, 4001))
            max_dd = max(max_dd, abs(d_star - float(report.d[i])))

            xl, xr = knots.x[i], knots.x[i + 1]
            yl, yr = knots.y[i], knots.y[i + 1]
            inner = (series.z > xl) & (series.z < xr)
            z, w = series.z[inner], series.w[inner]
            resid = w - (yl + (yr - yl) * (z - xl) / (xr - xl))
            bubble = (z - xl) * (z - xr)
            best = _scan_min(resid, bubble, coarse_s)
            assert abs(best) < 19.0, "s oracle scan window too narrow"
            s_star = _scan_min(resid, bubble, np.linspace(best - 2e-2, best + 2e-2, 4001))
            max_ds = max(max_ds, abs(s_star - float(quad.curvature[i])))

        base_rss = collage_residual(series, knots, report.d)
        quad_rss = float(np.sum((evaluate_quad(quad, series.z) - series.w) ** 2))
        slack = 1e-12 * max(base_rss, quad_rss, 1.0)
        for i in range(knots.n_segments):
            for delta in (1e-3, -1e-3):
                d_pert = report.d.copy()
                d_pert[i] += delta
                if collage_residual(series, knots, d_pert) < base_rss - slack:
                    opt_violations += 1
                s_pert = quad.curvature.copy()
                s_pert[i] += delta
                pert = QuadModel(
                    knots=knots, curvature=s_pert, chord_fallback=quad.chord_fallback
                )
                if np.sum((evaluate_quad(pert, series.z) - series.w) ** 2) < quad_rss - slack:
                    opt_violations += 1

    ok = (
        bound_checked >= 100
        and bound_ok == bound_checked
        and collected >= 50
        and max_dd <= 1e-4
        and max_ds <= 1e-3
        and opt_violations == 0
    )
    detail = (
        f"collage bound {bound_ok}/{bound_checked} (min margin {min_margin:.2f}x), "
        f"oracle max|delta d|={max_dd:.1e} / max|delta s|={max_ds:.1e} "
        f"on {collected} instances, optimality violations {opt_violations}"
    )
    record(acceptance_log, 3, "fit property suites", ok, detail)

    assert bound_checked >= 100, f"only {bound_checked} unclamped instances"
    assert bound_ok == bound_checked
    assert collected >= 50, f"only {collected} oracle instances"
    assert max_dd <= 1e-4
    assert max_ds <= 1e-3
    assert opt_violations == 0


def test_criterion_4_structural_identities(acceptance_log):
    rng = np.random.default_rng(2024)
    worst_endpoint = worst_partition = worst_interp = worst_linear = 0.0
    for _ in range(1000):
        n_seg = int(rng.integers(2, 9))
        x = rng.uniform(-5.0, 5.0) + np.concatenate(
            ([0.0], np.cumsum(rng.uniform(0.2, 2.0, n_seg)))
        )
        y = rng.normal(0.0, 3.0, n_seg + 1)
        d = rng.uniform(-0.99, 0.99, n_seg)
        knots = Knots(x=x, y=y)
        model = build_model(knots, d)

        left = np.column_stack(
            [model.a * knots.a + model.e, model.c * knots.a + model.d * y[0] + model.f]
        )
        right = np.column_stack(
            [model.a * knots.b + model.e, model.c * knots.b + model.d * y[-1] + model.f]
        )
        want_left = np.column_stack([x[:-1], y[:-1]])
        want_right = np.column_stack([x[1:], y[1:]])
        scale = max(np.abs(x).max(), np.abs(y).max(), 1.0)
        worst_endpoint = max(
            worst_endpoint,
            float(np.abs(left - want_left).max()) / scale,
            float(np.abs(right - want_right).max()) / scale,
        )
        worst_partition = max(
            worst_partition, abs(float(model.a.sum()) - 1.0)
        )
        for depth in (1, 2):
            at_knots = evaluate_fif(model, knots.x, depth)
            worst_interp = max(
                worst_interp, float(np.abs(at_knots - y).max()) / scale
            )

        flat = build_model(knots, np.zeros(n_seg))
        pts = np.sort(rng.uniform(knots.a, knots.b, 64))
        worst_linear = max(
            worst_linear,
            float(np.abs(evaluate_fif(flat, pts) - np.interp(pts, x, y)).max()) / scale,
        )

    ok = (
        worst_endpoint <= 1e-12
        and worst_partition <= 1e-12
        and worst_interp <= 1e-12
        and worst_linear <= 1e-12
    )
    detail = (
        f"1000 configs: endpoint map {worst_endpoint:.1e}, "
        f"sum(a)-1 {worst_partition:.1e}, knot interpolation {worst_interp:.1e}, "
        f"d=0 vs linear {worst_linear:.1e} (all tol 1e-12)"
    )
    record(acceptance_log, 4, "structural identities", ok, detail)

    assert worst_endpoint <= 1e-12
    assert worst_partition <= 1e-12
    assert worst_interp <= 1e-12
    assert worst_linear <= 1e-12


def test_criterion_5_contraction_and_convergence(acceptance_log):
    rng = np.random.default_rng(7)
    worst_excess = -np.inf
    for trial in range(24):
        n_seg = int(rng.integers(2, 7))
        length = rng.uniform(1.0, 4.0)
        x = np.linspace(0.0, length, n_seg + 1)
        y = rng.normal(0.0, 1.0, n_seg + 1)
        cap = (0.1, 0.3, 0.5, 0.8, 0.95)[trial % 5]
        d = cap * rng.uniform(0.5, 1.0, n_seg) * rng.choice([-1.0, 1.0], n_seg)
        model = build_model(Knots(x=x, y=y), d)
        maxd = float(np.abs(d).max())

        grid = np.linspace(0.0, length, 16385)
        g = Series(grid, rng.normal(0.0, 1.0, grid.size))
        h = Series(grid, rng.normal(0.0, 1.0, grid.size))
        diff_in = g.w - h.w
        diff_out = hutchinson_apply(model, g).w - hutchinson_apply(model, h).w

        sup_ratio = float(np.abs(diff_out).max() / np.abs(diff_in).max())
        l2_ratio = float(
            np.sqrt(
                np.trapezoid(diff_out**2, grid) / np.trapezoid(diff_in**2, grid)
            )
        )
        worst_excess = max(worst_excess, sup_ratio - maxd, l2_ratio - maxd)

    max_residual = 0.0
    for trial in range(18):
        n_seg = int(rng.integers(2, 7))
        x = np.linspace(0.0, float(n_seg), n_seg + 1)
        y = rng.normal(0.0, 1.0, n_seg + 1)
        cap = (0.1, 0.3, 0.5)[trial % 3]
        d = cap * rng.uniform(0.4, 1.0, n_seg) * rng.choice([-1.0, 1.0], n_seg)
        d[int(rng.integers(0, n_seg))] = cap  # pin the contraction factor
        model = build_model(Knots(x=x, y=y), d)
        max_residual = max(
            max_residual, fixed_point_residual(model, n_seg * 512 + 1)
        )

    ok = worst_excess <= 1e-8 and max_residual < 1e-6
    detail = (
        f"contraction excess {worst_excess:.1e} (tol 1e-08) over 24 models, "
        f"fixed-point residual {max_residual:.1e} (tol 1e-06) over 18 models"
    )
    record(acceptance_log, 5, "contraction and convergence", ok, detail)

    assert worst_excess <= 1e-8
    assert max_residual < 1e-6


def test_criterion_6_cli_determinism(tmp_path, capsys, acceptance_log):
    (tmp_path / "seq.txt").write_text("ACGGTACCGTTAGGCA" * 40 + "\n")
    d = str(tmp_path)
    commands = [
        ("gen", "--kind", "polynomial", "--m", "800", "--out", f"{d}/p.csv"),
        ("gen", "--kind", "random-walk", "--m", "600", "--seed", "42", "--out", f"{d}/w.csv"),
        ("gen", "--kind", "dna", "--input", f"{d}/seq.txt", "--out", f"{d}/g.csv"),
        ("fit", "--series", f"{d}/p.csv", "--knots", "200,400,600",
         "--out-model", f"{d}/pm.json", "--out-report", f"{d}/pr.json"),
        ("fit", "--series", f"{d}/p.csv", "--method", "quadratic", "--knots", "200,400,600",
         "--out-model", f"{d}/qm.json", "--out-report", f"{d}/qr.json"),
        ("fit", "--series", f"{d}/w.csv", "--n", "5",
         "--window", "31", "--prominence", "0.01",
         "--out-model", f"{d}/wm.json", "--out-report", f"{d}/wr.json"),
        ("eval", "--model", f"{d}/pm.json", "--grid", "513", "--out", f"{d}/curve.csv"),
        ("eval", "--model", f"{d}/qm.json", "--at", f"{d}/p.csv", "--out", f"{d}/at.csv"),
        ("compare", "--series", f"{d}/p.csv", "--knots", "200,400,600", "--out", f"{d}/cmp.json"),
        ("compare", "--series", f"{d}/w.csv", "--n", "5",
         "--window", "31", "--prominence", "0.01", "--format", "json"),
        ("compare", "--all-examples", "--format", "json"),
    ]

    outputs = {
        0: ("p.csv", "p.raw.csv", "p.params.json"),
        1: ("w.csv", "w.raw.csv", "w.params.json"),
        2: ("g.csv", "g.raw.csv", "g.params.json"),
        3: ("pm.json", "pr.json"),
        4: ("qm.json", "qr.json"),
        5: ("wm.json", "wr.json"),
        6: ("curve.csv",),
        7: ("at.csv",),
        8: ("cmp.json",),
        9: (),
        10: (),
    }

    def run_all():
        results = []
        for idx, argv in enumerate(commands):
            code = cli_main(list(argv))
            captured = capsys.readouterr()
            files = {
                name: (tmp_path / name).read_bytes() for name in outputs[idx]
            }
            results.append((code, captured.out, captured.err, files))
        return results

    first = run_all()
    second = run_all()

    assert all(code == 0 for code, *_ in first), [r[0] for r in first]
    mismatches = [
        idx for idx, (one, two) in enumerate(zip(first, second)) if one != two
    ]
    ok = not mismatches
    detail = (
        f"{len(commands)} commands repeated: "
        + ("all byte-identical" if ok else f"mismatch at {mismatches}")
    )
    record(acceptance_log, 6, "CLI determinism", ok, detail)

    assert not mismatches
