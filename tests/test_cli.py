import contextlib
import dataclasses
import hashlib
import io
import json
import multiprocessing
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalfit import (
    Knots,
    NormalizationParams,
    QuadModel,
    build_model,
    compare,
    evaluate_fif,
    fit_d_discrete,
    fit_quadratic,
    load_series_csv,
    normalize,
    gen_polynomial,
    select_knots,
)
from fractalfit import cli, ifs_core
from fractalfit.cli import (
    SCHEMA_VERSION,
    main,
    model_from_payload,
    model_to_payload,
    read_model_file,
    write_json,
    write_series_csv,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def poly_files(tmp_path, capsys):
    out = tmp_path / "poly.csv"
    code, _, _ = run(capsys, "gen", "--kind", "polynomial", "--m", "400", "--out", str(out))
    assert code == 0
    return tmp_path


def fit_poly(tmp_path, capsys, *extra):
    code, out, err = run(
        capsys,
        "fit",
        "--series", str(tmp_path / "poly.csv"),
        "--knots", "100,200,300",
        "--out-model", str(tmp_path / "model.json"),
        "--out-report", str(tmp_path / "report.json"),
        *extra,
    )
    return code, out, err


def tent_payload(kind="fractal") -> dict:
    knots = Knots.from_points([(0, 0), (0.5, 0.5), (1, 0)])
    if kind == "fractal":
        return model_to_payload(build_model(knots, [0.5, 0.5]))
    return model_to_payload(QuadModel(knots, [0.5, -0.5], [False, False]))


def far_series(tmp_path) -> Path:
    """A series whose squared residuals overflow: abscissae 1e10 + m,
    ordinates about 1e300."""
    m = np.arange(1.0, 401.0)
    path = tmp_path / "far.csv"
    write_series_csv(path, 1e10 + m, 1e300 * np.sin(m / 7.0))
    return path


class TestGen:
    def test_polynomial_files_and_moments(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        code, stdout, _ = run(capsys, "gen", "--kind", "polynomial", "--m", "500", "--out", str(out))
        assert code == 0
        assert "wrote" in stdout and "p.csv" in stdout

        normalized = load_series_csv(out)
        raw = load_series_csv(tmp_path / "p.raw.csv")
        params = json.loads((tmp_path / "p.params.json").read_text())
        assert abs(np.mean(normalized.w)) < 1e-12
        assert abs(np.mean(normalized.w**2) - 1.0) < 1e-12
        np.testing.assert_allclose(
            normalized.w, (raw.w - params["s1"]) / params["s2"], atol=1e-12
        )
        expected = gen_polynomial(500)
        np.testing.assert_allclose(raw.w, expected.w, rtol=0, atol=0)

    def test_random_walk_deterministic_and_default_seed(self, tmp_path, capsys):
        paths = []
        for name in ("a", "b"):
            out = tmp_path / f"{name}.csv"
            code, _, _ = run(capsys, "gen", "--kind", "random-walk", "--m", "300", "--seed", "7", "--out", str(out))
            assert code == 0
            paths.append(out)
        assert paths[0].read_bytes() == paths[1].read_bytes()

        explicit = tmp_path / "s0.csv"
        implicit = tmp_path / "s0d.csv"
        run(capsys, "gen", "--kind", "random-walk", "--m", "50", "--seed", "0", "--out", str(explicit))
        run(capsys, "gen", "--kind", "random-walk", "--m", "50", "--out", str(implicit))
        assert explicit.read_bytes() == implicit.read_bytes()

    def test_dna_from_fasta(self, tmp_path, capsys):
        fasta = tmp_path / "seq.fasta"
        fasta.write_text(">organism x\nACGTAC\nGTAAGG\n")
        out = tmp_path / "dna.csv"
        code, _, _ = run(capsys, "gen", "--kind", "dna", "--input", str(fasta), "--out", str(out))
        assert code == 0
        assert load_series_csv(tmp_path / "dna.raw.csv").m_count == 12

    def test_usage_errors(self, tmp_path, capsys):
        out = str(tmp_path / "x.csv")
        cases = [
            ("gen", "--kind", "dna", "--out", out),
            ("gen", "--kind", "dna", "--input", "f.txt", "--m", "5", "--out", out),
            ("gen", "--kind", "polynomial", "--out", out),
            ("gen", "--kind", "polynomial", "--m", "10", "--seed", "3", "--out", out),
            ("gen", "--kind", "polynomial", "--m", "10", "--seed", "0", "--out", out),
            ("gen", "--kind", "dna", "--input", "f.txt", "--seed", "3", "--out", out),
            ("gen", "--kind", "random-walk", "--m", "10", "--input", "f.txt", "--out", out),
            ("gen", "--kind", "polynomial", "--m", "10", "--input", "f.txt", "--out", out),
        ]
        for argv in cases:
            code, _, err = run(capsys, *argv)
            assert code == 2, argv
            assert "usage error" in err

    def test_data_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.fasta"
        bad.write_text("ACGTXX\n")
        code, _, err = run(capsys, "gen", "--kind", "dna", "--input", str(bad), "--out", str(tmp_path / "o.csv"))
        assert code == 1
        assert "invalid nucleotide" in err


class TestFit:
    def test_fractal_model_and_report(self, poly_files, capsys):
        tmp = poly_files
        code, _, _ = fit_poly(tmp, capsys)
        assert code == 0

        series = load_series_csv(tmp / "poly.csv")
        knots = select_knots(series, "manual", indices=[100, 200, 300])
        expected = fit_d_discrete(series, knots)

        payload = read_model_file(tmp / "model.json")
        assert payload["kind"] == "fractal"
        assert payload["schema_version"] == SCHEMA_VERSION
        np.testing.assert_allclose(payload["parameters"]["d"], expected.d, rtol=0, atol=0)
        assert sorted(payload["parameters"]) == ["d"] and "domain" not in payload
        assert [payload["knots"][0][0], payload["knots"][-1][0]] == [1.0, 400.0]
        sha = hashlib.sha256((tmp / "poly.csv").read_bytes()).hexdigest()
        assert payload["provenance"]["input_sha256"] == sha

        report = json.loads((tmp / "report.json").read_text())
        assert report["collage_rss"] == expected.collage_rss
        assert report["collage_bound"] == expected.collage_bound
        # the fit's flags stay in the report, though the model file drops them
        assert report["clamped"] == expected.clamped.tolist()
        assert report["degenerate"] == expected.degenerate.tolist()

    def test_series_is_read_once(self, poly_files, capsys, monkeypatch):
        # fit reads the series file's bytes through pathlib once, and their
        # SHA-256 is the provenance hash
        series, reads = poly_files / "poly.csv", []
        sha = hashlib.sha256(series.read_bytes()).hexdigest()

        def counted(read):
            return lambda path, *args, **kwargs: reads.append(path) or read(path, *args, **kwargs)

        for name in ("read_bytes", "read_text"):
            monkeypatch.setattr(Path, name, counted(getattr(Path, name)))
        assert fit_poly(poly_files, capsys)[0] == 0
        assert reads.count(series) == 1
        assert read_model_file(poly_files / "model.json")["provenance"]["input_sha256"] == sha

    def test_non_utf8_series_is_one_error_line(self, tmp_path):
        path = tmp_path / "latin.csv"
        path.write_bytes(b"1,0\n2,\xff\n3,1\n")
        out = ["--out-model", str(tmp_path / "m.json"), "--out-report", str(tmp_path / "r.json")]
        code, err = fail_line(["fit", "--series", str(path), "--knots", "2", *out])
        assert_names_file_once(code, err, path)
        assert "can't decode byte 0xff in position 6" in err
        assert not (tmp_path / "m.json").exists()

    def test_quadratic_model(self, poly_files, capsys):
        tmp = poly_files
        code, _, _ = fit_poly(tmp, capsys, "--method", "quadratic")
        assert code == 0
        payload = read_model_file(tmp / "model.json")
        assert payload["kind"] == "quadratic"

        series = load_series_csv(tmp / "poly.csv")
        knots = select_knots(series, "manual", indices=[100, 200, 300])
        expected = fit_quadratic(series, knots)
        assert payload["parameters"]["curvature"] == expected.curvature.tolist()
        report = json.loads((tmp / "report.json").read_text())
        assert report["curvature"] == payload["parameters"]["curvature"]
        assert "coefficients" not in report

    def test_norm_params_embedded(self, poly_files, capsys):
        tmp = poly_files
        code, _, _ = fit_poly(tmp, capsys, "--norm-params", str(tmp / "poly.params.json"))
        assert code == 0
        payload = read_model_file(tmp / "model.json")
        sidecar = json.loads((tmp / "poly.params.json").read_text())
        assert payload["normalization"] == sidecar

    @pytest.mark.parametrize(
        "text",
        ['{"s1": 0}', "[1, 2]", '{"s1": NaN, "s2": 1}', '{"s1": "0", "s2": 1}', '{"s1": 0,'],
        ids=["missing-key", "not-object", "nan", "string", "syntax"],
    )
    def test_bad_norm_params_is_data_error(self, poly_files, capsys, text):
        params = poly_files / "bad.params.json"
        params.write_text(text)
        code, _, err = fit_poly(poly_files, capsys, "--norm-params", str(params))
        assert_names_file_once(code, err, params)
        assert not (poly_files / "model.json").exists()

    @pytest.mark.parametrize(
        "method, statistic",
        [
            ("quadratic", "residual_rss"),
            # the fractal fit's own sums overflow too, with warnings
            pytest.param("fractal", "collage_rss", marks=pytest.mark.filterwarnings("ignore::RuntimeWarning")),
        ],
    )
    def test_non_finite_statistic_writes_nothing(self, tmp_path, capsys, method, statistic):
        # the models' parameters are finite, their sums of squares are not
        model, report = tmp_path / "m.json", tmp_path / "r.json"
        code, _, err = run(capsys, "fit", "--series", str(far_series(tmp_path)), "--knots", "100,200,300",
                           "--method", method, "--out-model", str(model), "--out-report", str(report))
        assert code == 1 and err == f"error: {statistic} = inf is not finite\n"
        assert not model.exists() and not report.exists()

    def test_strict_flags_exit_one(self, poly_files, capsys):
        tmp = poly_files
        code, _, err = fit_poly(tmp, capsys, "--d-max", "0.001", "--strict")
        assert code == 1
        assert "clamped" in err
        # artifacts are still written for inspection
        assert (tmp / "model.json").exists()

    @pytest.mark.parametrize("method", ["fractal", "quadratic"])
    def test_report_is_the_fit_fields(self, poly_files, capsys, method):
        # kind, the fit result's own fields after the knots, and for a
        # quadratic fit the residual sum of squares that cli computes
        assert fit_poly(poly_files, capsys, "--method", method)[0] == 0
        series = load_series_csv(poly_files / "poly.csv")
        knots = select_knots(series, "manual", indices=[100, 200, 300])
        result = fit_d_discrete(series, knots) if method == "fractal" else fit_quadratic(series, knots)
        names = [f.name for f in dataclasses.fields(result) if f.name != "knots"]
        report = json.loads((poly_files / "report.json").read_text())
        computed = ["residual_rss"] if method == "quadratic" else []
        assert sorted(report) == sorted(["kind", *names, *computed])
        assert report["kind"] == method
        assert all(report[name] == np.asarray(getattr(result, name)).tolist() for name in names)

    def test_strict_reports_chord_fallback(self, tmp_path, capsys):
        walk, model = tmp_path / "walk.csv", tmp_path / "m.json"
        assert run(capsys, "gen", "--kind", "random-walk", "--m", "50000", "--out", str(walk))[0] == 0
        code, _, err = run(capsys, "fit", "--series", str(walk), "--method", "quadratic",
                           "--knots", "10000,10001,35000", "--strict",
                           "--out-model", str(model), "--out-report", str(tmp_path / "r.json"))
        assert (code, err) == (1, "strict mode: fit raised flags -> segment 1: chord fallback\n")
        assert read_model_file(model)["parameters"]["chord_fallback"] == [False, True, False, False]

    def test_extrema_knot_spec(self, poly_files, capsys):
        tmp = poly_files
        code, _, _ = run(
            capsys,
            "fit",
            "--series", str(tmp / "poly.csv"),
            "--n", "3", "--window", "21", "--prominence", "0.01",
            "--out-model", str(tmp / "m2.json"),
            "--out-report", str(tmp / "r2.json"),
        )
        assert code == 0
        payload = read_model_file(tmp / "m2.json")
        assert len(payload["parameters"]["d"]) == len(payload["knots"]) - 1
        want = select_knots(load_series_csv(tmp / "poly.csv"), "extrema", n_interior=3, window=21, prominence=0.01)
        assert [x for x, _ in payload["knots"]] == want.x.tolist()

    def test_knot_spec_usage_errors(self, poly_files, capsys):
        tmp = poly_files
        series = str(tmp / "poly.csv")
        model, report = str(tmp / "m.json"), str(tmp / "r.json")
        cases = [
            ("fit", "--series", series, "--out-model", model, "--out-report", report),
            ("fit", "--series", series, "--window", "21",
             "--out-model", model, "--out-report", report),
            ("fit", "--series", series, "--n", "3",
             "--knots", "100", "--out-model", model, "--out-report", report),
            ("fit", "--series", series, "--knots", ",",
             "--out-model", model, "--out-report", report),
            ("fit", "--series", series, "--knots", "abc",
             "--out-model", model, "--out-report", report),
            ("fit", "--series", series, "--knots", "100,200", "--n", "5", "--window", "7",
             "--out-model", model, "--out-report", report),
            ("fit", "--series", series, "--knots", "100,200", "--window", "7",
             "--out-model", model, "--out-report", report),
            ("fit", "--series", series, "--knots", "100,200", "--prominence", "0.5",
             "--out-model", model, "--out-report", report),
            # a flag is given when it is set at all, to 0 as well
            ("fit", "--series", series, "--knots", "100,200", "--n", "0",
             "--out-model", model, "--out-report", report),
            ("fit", "--series", series, "--knots", "100,200", "--prominence", "0",
             "--out-model", model, "--out-report", report),
            ("fit", "--series", series, "--knots", "100,200", "--method", "quadratic",
             "--d-max", "0.5", "--out-model", model, "--out-report", report),
            # found before the series is read
            ("fit", "--series", str(tmp / "missing.csv"), "--knots", "100,200",
             "--method", "quadratic", "--d-max", "0.5", "--out-model", model, "--out-report", report),
        ]
        for argv in cases:
            code, _, err = run(capsys, *argv)
            assert code == 2, argv
        assert "--d-max" in err

    @pytest.mark.parametrize("command", ["fit", "compare"])
    def test_help_states_d_max_default(self, capsys, command):
        code, out, _ = run(capsys, command, "--help")
        assert code == 0 and "(default 0.99)" in " ".join(out.split())

    def test_bad_knot_index_is_data_error(self, poly_files, capsys):
        code, _, err = fit_poly(poly_files, capsys, "--knots", "100,200,99999")
        # overridden --knots comes later on the command line; argparse keeps
        # the last value, which is out of range for a 400-sample series
        assert code == 1
        assert "out of range" in err


# A model file's faults: (field, value, the reason ``eval`` gives for a file
# holding ``value`` at ``field`` of a valid tent payload).  The model's own
# constructor judges every array; a file adds only the JSON boolean check.
MALFORMED_MODEL_FIELDS = [
    ("knots", 5, "knot points must be (x, y) pairs"),
    ("knots", [[0, 0], [1]], "knot points must be (x, y) pairs"),
    ("knots", [[0, "a"], [0.5, 0.5], [1, 0]], "knot ordinates must be numbers"),
    ("knots", "ab", "knot points must be (x, y) pairs"),
    ("knots", [0, 0.5, 1], "knot points must be (x, y) pairs"),
    ("parameters.d", [[0.5], [0.5]], "scaling factors must be one-dimensional"),
    ("parameters.d", None, "scaling factors must be numbers"),
    ("parameters.curvature", [0.5, "x"], "curvatures must be numbers"),
    ("parameters.chord_fallback", [1, 2, 3], "chord fallback flags must be booleans"),
    ("parameters.chord_fallback", [True, False, "x"], "chord fallback flags must be booleans"),
    ("parameters.chord_fallback", [1, 0], "chord fallback flags must be booleans"),
    ("parameters.chord_fallback", [True], "expected 2 chord fallback flags, got 1"),
    ("parameters.chord_fallback", ["x", 7], "chord fallback flags must be booleans"),
    ("parameters.chord_fallback", [False, False, False], "expected 2 chord fallback flags, got 3"),
    ("parameters.d", [0.5, 0.5, 0.5], "expected 2 scaling factors, got 3"),
    ("parameters.curvature", [[0.5, 0.0, 0.0], [-0.5, 0.0, 0.0]], "curvatures must be one-dimensional"),
    # numpy would read a JSON boolean among numbers as 0 or 1
    ("parameters.d", [False, 0.5], "model field 'parameters.d' must hold numbers, not booleans"),
    ("knots", [[0, 0], [0.5, 0.5], [True, 0]], "model field 'knots' must hold numbers, not booleans"),
    ("knots", [[0, 0], [0.5, None], [1, 0]], "knot ordinates must be numbers"),
    ("knots", [[0, 0], [0.5, float("inf")], [1, 0]], "knot ordinates contains non-finite values"),
    ("knots", [[0, 0], [0.5, [0.5]], [1, 0]], "knot ordinates must be numbers"),
    ("parameters.d", {}, "scaling factors must be numbers"),
    ("parameters.d", ["0.5", 0.5], "scaling factors must be numbers"),
    ("parameters.d", [0.5, float("nan")], "scaling factors contains non-finite values"),
    ("parameters.d", [[0.5], 0.5], "scaling factors must be numbers"),
    ("parameters.curvature", [0.5, None], "curvatures must be numbers"),
    # deeper than the 32 dimensions numpy's flat iterator takes
    ("parameters.d", json.loads("[" * 40 + "0.5" + "]" * 40), "scaling factors must be one-dimensional"),
    ("knots", json.loads("[" * 40 + "0.5" + "]" * 40), "knot points must be (x, y) pairs"),
]


def malformed_payload(field: str, value) -> dict:
    """A valid tent payload of the kind that has ``field``, with ``value`` there."""
    payload = tent_payload("quadratic" if field in ("parameters.curvature", "parameters.chord_fallback") else "fractal")
    where, key = (payload["parameters"], field.split(".", 1)[1]) if "." in field else (payload, field)
    where[key] = value
    return payload


class TestEval:
    def test_grid_hits_knots(self, tmp_path, capsys):
        path = tmp_path / "tent.json"
        write_json(path, tent_payload())
        out = tmp_path / "curve.csv"
        code, _, _ = run(capsys, "eval", "--model", str(path), "--grid", "1025", "--out", str(out))
        assert code == 0
        curve = np.loadtxt(out, delimiter=",", skiprows=1)
        assert curve.shape == (1025, 2)
        for x, y in [(0.0, 0.0), (0.5, 0.5), (1.0, 0.0)]:
            row = curve[np.argmin(np.abs(curve[:, 0] - x))]
            assert row[1] == pytest.approx(y, abs=1e-12)

    def test_chord_near_the_largest_double(self, tmp_path, capsys):
        # (yN - y0) * (x - a) overflows here; the anchored chord never forms it
        path = tmp_path / "wide.json"
        knots = Knots.from_points([(0, -5e307), (3e5, 4e307), (1e6, 5e307)])
        write_json(path, model_to_payload(build_model(knots, [0.5, -0.4])))
        for depth in ((), ("--depth", "3")):
            out = tmp_path / "curve.csv"
            code, _, err = run(capsys, "eval", "--model", str(path), "--grid", "6", "--out", str(out), *depth)
            assert code == 0 and err == "", depth
            curve = np.loadtxt(out, delimiter=",", skiprows=1)
            assert curve.shape == (6, 2) and np.all(np.isfinite(curve)), depth

    def test_depth_zero_is_chord(self, tmp_path, capsys):
        path = tmp_path / "tent.json"
        write_json(path, tent_payload())
        out = tmp_path / "chord.csv"
        code, _, _ = run(capsys, "eval", "--model", str(path), "--grid", "5", "--depth", "0", "--out", str(out))
        assert code == 0
        curve = np.loadtxt(out, delimiter=",", skiprows=1)
        np.testing.assert_allclose(curve[:, 1], 0.0, atol=0)

    def test_eval_at_series_abscissae(self, poly_files, capsys):
        tmp = poly_files
        fit_poly(tmp, capsys)
        at = tmp / "at.csv"
        at.write_text("50.0,0\n60.5,0\n70.0,0\n")  # query points live in the z column
        out = tmp / "c.csv"
        code, _, _ = run(capsys, "eval", "--model", str(tmp / "model.json"), "--at", str(at), "--out", str(out))
        assert code == 0
        curve = np.loadtxt(out, delimiter=",", skiprows=1)
        assert curve[:, 0].tolist() == [50.0, 60.5, 70.0]

        model = model_from_payload(read_model_file(tmp / "model.json"))
        np.testing.assert_allclose(
            curve[:, 1], evaluate_fif(model, curve[:, 0]), rtol=0, atol=0
        )

    @pytest.mark.parametrize(
        "text, points",
        [
            ("x,value\n60.5,0\n", [60.5]),
            ("70.0,0\n60.5,1\n50.0,2\n", [70.0, 60.5, 50.0]),
            ("50.0,0\n60.5,0\n50.0,0\n", [50.0, 60.5, 50.0]),
            ("7\n", [1.0]),
        ],
        ids=["one-row", "reversed", "duplicate", "one-column"],
    )
    def test_eval_at_takes_query_points_as_given(self, poly_files, capsys, text, points):
        tmp = poly_files
        fit_poly(tmp, capsys)
        at = tmp / "at.csv"
        at.write_text(text)
        out = tmp / "c.csv"
        code, stdout, _ = run(capsys, "eval", "--model", str(tmp / "model.json"), "--at", str(at), "--out", str(out))
        assert code == 0 and f"({len(points)} points)" in stdout
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [float(x) for x, _ in rows] == points
        model = model_from_payload(read_model_file(tmp / "model.json"))
        assert [float(v) for _, v in rows] == evaluate_fif(model, np.array(points)).tolist()

    def test_outside_domain_is_data_error(self, poly_files, capsys):
        tmp = poly_files
        fit_poly(tmp, capsys)
        at = tmp / "far.csv"
        at.write_text("100.0,0\n9999.0,0\n")
        code, _, err = run(capsys, "eval", "--model", str(tmp / "model.json"), "--at", str(at), "--out", str(tmp / "c.csv"))
        assert code == 1
        assert "domain" in err

    def test_usage_errors(self, tmp_path, capsys):
        path = tmp_path / "tent.json"
        write_json(path, tent_payload())
        out = str(tmp_path / "c.csv")
        assert run(capsys, "eval", "--model", str(path), "--out", out)[0] == 2
        assert run(capsys, "eval", "--model", str(path), "--grid", "5", "--at", "x.csv", "--out", out)[0] == 2
        assert run(capsys, "eval", "--model", str(path), "--grid", "1", "--out", out)[0] == 2
        # flag errors are found before any file is read
        missing = str(tmp_path / "missing.json")
        assert run(capsys, "eval", "--model", missing, "--grid", "1", "--out", out)[0] == 2
        assert run(capsys, "eval", "--model", missing, "--out", out)[0] == 2

    def test_failed_allocation_is_data_error(self, tmp_path):
        # 10^15 grid points (8 PB) fail at allocation, before any memory is touched
        path = tmp_path / "tent.json"
        write_json(path, tent_payload())
        code, err = fail_line(["eval", "--model", str(path), "--grid", str(10**15), "--out", str(tmp_path / "c.csv")])
        assert code == 1 and err.startswith("error: ") and err.count("\n") == 1, err

    def test_level_ceiling_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "steep.json"
        knots = Knots.from_points([(0, 0), (0.5, 0.5), (1, 0)])
        write_json(path, model_to_payload(build_model(knots, [0.9999999, 0.5])))
        out = str(tmp_path / "c.csv")
        code, err = fail_line(["eval", "--model", str(path), "--grid", "5", "--out", out])
        assert code == 1 and "Traceback" not in err
        assert err.count("\n") == 1 and err.startswith("error: ") and "--depth" in err, err
        assert run(capsys, "eval", "--model", str(path), "--grid", "5", "--depth", "5", "--out", out)[0] == 0

    def test_overflowing_tail_bound_is_data_error(self, tmp_path):
        # B = gap / (1 - c) overflows although the knots are finite: the depth
        # is taken in logs, so the ceiling names it instead of a traceback
        path = tmp_path / "tall.json"
        knots = Knots.from_points([(0, 0), (1, 1e307), (2, 0)])
        write_json(path, model_to_payload(build_model(knots, [0.99, 0.99])))
        code, err = fail_line(["eval", "--model", str(path), "--grid", "5", "--out", str(tmp_path / "c.csv")])
        assert code == 1 and err.count("\n") == 1, err
        assert err.startswith("error: max|d_i| = 0.99 needs ") and "more than 10000" in err, err

    def test_depth_on_quadratic_rejected(self, poly_files, capsys):
        tmp = poly_files
        fit_poly(tmp, capsys, "--method", "quadratic")
        code, _, err = run(
            capsys, "eval", "--model", str(tmp / "model.json"),
            "--grid", "5", "--depth", "3", "--out", str(tmp / "c.csv"),
        )
        assert code == 2
        assert "fractal" in err

    def test_unknown_schema_rejected(self, tmp_path, capsys):
        payload = tent_payload()
        payload["schema_version"] = "99"
        path = tmp_path / "future.json"
        path.write_text(json.dumps(payload))
        code, _, err = run(capsys, "eval", "--model", str(path), "--grid", "5", "--out", str(tmp_path / "c.csv"))
        assert code == 1
        assert "schema version" in err

    @pytest.mark.parametrize(
        "field", ["knots", "parameters", "parameters.d", "parameters.curvature"]
    )
    def test_missing_model_field_is_data_error(self, tmp_path, capsys, field):
        payload = tent_payload()
        if field == "parameters.d":
            del payload["parameters"]["d"]
        elif field == "parameters.curvature":
            payload["kind"] = "quadratic"  # a fractal payload has no curvature
        else:
            del payload[field]
        path = tmp_path / "partial.json"
        path.write_text(json.dumps(payload))
        code, _, err = run(capsys, "eval", "--model", str(path), "--grid", "5", "--out", str(tmp_path / "c.csv"))
        assert code == 1
        assert err == f"error: {path}: missing model field '{field}'\n"

    def test_non_object_model_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        code, _, err = run(capsys, "eval", "--model", str(path), "--grid", "5", "--out", str(tmp_path / "c.csv"))
        assert code == 1
        assert err == f"error: {path}: model file must hold a JSON object\n"

    @pytest.mark.parametrize("field, value", [case[:2] for case in MALFORMED_MODEL_FIELDS])
    def test_malformed_model_field_is_data_error(self, tmp_path, capsys, field, value):
        # pytest passes each case's own value object, so identity finds its reason
        reason = next(r for f, v, r in MALFORMED_MODEL_FIELDS if f == field and v is value)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(malformed_payload(field, value)))
        code, _, err = run(capsys, "eval", "--model", str(path), "--grid", "5", "--out", str(tmp_path / "c.csv"))
        assert (code, err) == (1, f"error: {path}: {reason}\n")


def _without(key: str) -> dict:
    payload = tent_payload()
    del payload[key]
    return payload


FILE_ONLY_REASONS = (r"model file must hold a JSON object|unsupported model schema version .*"
                     r"|unknown model kind .*|missing model field .*|model field .* must hold numbers, not booleans")


@pytest.mark.parametrize("payload", [
    *(malformed_payload(field, value) for field, value, _ in MALFORMED_MODEL_FIELDS),
    [1, 2],
    {**tent_payload(), "schema_version": "99"},
    {**tent_payload(), "kind": "spline"},
    _without("knots"),
    _without("parameters"),
    {**tent_payload(), "parameters": {"curvature": [0.5, 0.5]}},
], ids=[*(f"{field}-{i}" for i, (field, _, _) in enumerate(MALFORMED_MODEL_FIELDS)),
        "not-an-object", "schema", "kind", "no-knots", "no-parameters", "no-d"])
def test_model_file_reason_is_the_library_reason(tmp_path, capsys, payload):
    # a file's reason is the model constructor's message, by construction:
    # the file reader refuses only what only a file has
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    try:
        read_model_file(path)
    except ValueError as exc:
        reason = str(exc)
        assert re.fullmatch(FILE_ONLY_REASONS, reason), reason
    else:
        with pytest.raises(ValueError) as info:
            model_from_payload(payload)
        assert Path(info.traceback[-1].path).name != "cli.py"  # raised by the library, not rewritten
        reason = str(info.value)
    code, _, err = run(capsys, "eval", "--model", str(path), "--grid", "5", "--out", str(tmp_path / "c.csv"))
    assert (code, err) == (1, f"error: {path}: {reason}\n")


def test_series_csv_is_the_joined_rows(tmp_path):
    # the curve is written in chunks; the bytes are those of one join of
    # every row, on a length that is no multiple of the chunk size
    x = np.linspace(-1.0, 3.0, (1 << 16) + 3)
    y = np.sin(x) * 1e-7
    write_series_csv(tmp_path / "c.csv", x, y, header="x,value")
    rows = [f"{a!r},{b!r}" for a, b in zip(x.tolist(), y.tolist())]
    expected = "\n".join(["x,value", *rows]) + "\n"
    assert (tmp_path / "c.csv").read_bytes() == expected.encode("utf-8")
    write_series_csv(tmp_path / "empty.csv", x[:0], y[:0])
    assert (tmp_path / "empty.csv").read_bytes() == b"z,w\n"


def joined(x, y, header: str) -> bytes:
    """The CSV of ``x`` and ``y`` as one serial join of every row."""
    rows = (f"{a!r},{b!r}\n" for a, b in zip(x.tolist(), y.tolist()))
    return "".join([header + "\n", *rows]).encode()


# Formatters for the pooled curve write.  They live at module level, so a
# forked worker finds them by name; each calls the real one.
_FORMAT_ROWS = cli._format_rows
_FORMATTED_HERE: list[int] = []  # rows per call made in the test process, not in a worker


def _recording_format_rows(x, y):
    _FORMATTED_HERE.append(x.size)
    return _FORMAT_ROWS(x, y)


def _dies_after_first_slice(x, y):  # the grids below start at 0.0
    if x[0] != 0.0:
        os._exit(1)
    return _FORMAT_ROWS(x, y)


def _runs_out_of_memory_after_first_slice(x, y):
    if x[0] != 0.0:
        raise MemoryError
    return _FORMAT_ROWS(x, y)


def usable_cpus(monkeypatch, n: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


class TestPooledCurve:
    """A curve of several slices is formatted by worker processes when two
    CPUs are usable, in the test process with one; the bytes are the same."""

    GRID = 200_003  # 13 slices of ifs_core._CHUNK rows, the last one short

    @pytest.fixture(params=[2, 1], ids=["pooled", "one-cpu"])
    def cpus(self, request, monkeypatch):
        usable_cpus(monkeypatch, request.param)
        monkeypatch.setattr(cli, "_format_rows", _recording_format_rows)
        _FORMATTED_HERE.clear()
        return request.param

    def formatted_here(self, cpus: int, rows: int) -> list[int]:
        """The format calls the test process makes for a file of ``rows`` rows."""
        if cpus > 1:
            return []
        chunk = ifs_core._CHUNK
        return [min(chunk, rows - i) for i in range(0, rows, chunk)]

    @pytest.mark.parametrize(
        "kind, depth, at",
        [
            ("fractal", None, False),
            ("fractal", 5, False),
            ("quadratic", None, False),
            ("fractal", None, True),
        ],
        ids=["fractal", "fractal-depth-5", "quadratic", "unsorted-at"],
    )
    def test_curve_is_the_serial_join(self, tmp_path, capsys, cpus, kind, depth, at):
        model_path, out = tmp_path / "model.json", tmp_path / "c.csv"
        write_json(model_path, tent_payload(kind))
        if at:
            xs = np.random.default_rng(13).uniform(0.0, 1.0, self.GRID)
            (tmp_path / "at.csv").write_text("".join(f"{v!r},0\n" for v in xs.tolist()))
            where = ["--at", str(tmp_path / "at.csv")]
        else:
            xs = np.linspace(0.0, 1.0, self.GRID)
            where = ["--grid", str(self.GRID)]
        depth_args = [] if depth is None else ["--depth", str(depth)]
        code, _, err = run(capsys, "eval", "--model", str(model_path), *where, *depth_args, "--out", str(out))
        assert code == 0, err
        model = model_from_payload(read_model_file(model_path))
        ys = model(xs) if depth is None else model(xs, depth)
        assert out.read_bytes() == joined(xs, ys, "x,value")
        assert _FORMATTED_HERE == self.formatted_here(cpus, self.GRID)

    def test_gen_files_are_the_serial_join(self, tmp_path, capsys, cpus):
        out = tmp_path / "p.csv"
        code, _, err = run(capsys, "gen", "--kind", "polynomial", "--m", str(self.GRID), "--out", str(out))
        assert code == 0, err
        raw = gen_polynomial(self.GRID)
        normalized, _ = normalize(raw)
        assert out.read_bytes() == joined(normalized.z, normalized.w, "z,w")
        assert (tmp_path / "p.raw.csv").read_bytes() == joined(raw.z, raw.w, "z,w")
        assert _FORMATTED_HERE == 2 * self.formatted_here(cpus, self.GRID)

    @pytest.mark.parametrize("case", ["outside-domain", "over-max-levels"])
    def test_data_error_leaves_no_file(self, tmp_path, cpus, case):
        model_path, out = tmp_path / "model.json", tmp_path / "c.csv"
        if case == "outside-domain":
            write_json(model_path, tent_payload())
            xs = np.random.default_rng(17).uniform(0.0, 1.0, self.GRID)
            xs[-1] = 1.5  # in the last slice
            (tmp_path / "at.csv").write_text("".join(f"{v!r},0\n" for v in xs.tolist()))
            where = ["--at", str(tmp_path / "at.csv")]
        else:
            knots = Knots.from_points([(0, 0), (0.5, 0.5), (1, 0)])
            write_json(model_path, model_to_payload(build_model(knots, [0.9999999, 0.5])))
            where = ["--grid", str(self.GRID)]
        argv = ["eval", "--model", str(model_path), *where, "--out", str(out)]
        code, err = fail_line(argv)
        assert code == 1 and err.startswith("error: ") and err.count("\n") == 1, err
        assert ("domain" if case == "outside-domain" else "--depth") in err
        assert not out.exists()
        # found before the file opens: a file already there is left as it was
        out.write_text("kept\n")
        assert fail_line(argv) == (code, err)
        assert out.read_text() == "kept\n"
        assert _FORMATTED_HERE == []


@pytest.mark.parametrize(
    "formatter",
    [_dies_after_first_slice, _runs_out_of_memory_after_first_slice],
    ids=["worker-exits", "worker-memory-error"],
)
def test_dead_worker_is_one_error_line(tmp_path, capfd, monkeypatch, formatter):
    # a worker fails on a later slice, after the file is open: the partial
    # curve is removed, and every worker is gone when main() returns
    usable_cpus(monkeypatch, 2)
    monkeypatch.setattr(cli, "_format_rows", formatter)
    model_path, out = tmp_path / "tent.json", tmp_path / "c.csv"
    write_json(model_path, tent_payload())
    code = main(["eval", "--model", str(model_path), "--grid", "200003", "--out", str(out)])
    err = capfd.readouterr().err
    assert code == 1 and err.startswith("error: ") and err.count("\n") == 1, err
    assert len(err) > len("error: \n"), err
    assert not out.exists()
    assert multiprocessing.active_children() == []


def test_results_independent_of_blas_threads(tmp_path, capsys):
    # sums run in a fixed order, never through a BLAS whose order follows its thread count
    series = tmp_path / "poly.csv"
    assert run(capsys, "gen", "--kind", "polynomial", "--m", "200003", "--out", str(series))[0] == 0
    knots = ("--series", str(series), "--knots", "20000,100000,150000")
    outputs = []
    for threads in (None, "1"):
        env = {k: v for k, v in child_env().items() if k != "OPENBLAS_NUM_THREADS"}
        env.update({"OPENBLAS_NUM_THREADS": threads} if threads else {})
        model, report = tmp_path / f"model{threads}.json", tmp_path / f"report{threads}.json"
        commands = (("fit", *knots, "--out-model", str(model), "--out-report", str(report)),
                    ("compare", *knots, "--format", "json"))
        runs = [subprocess.run([sys.executable, "-m", "fractalfit.cli", *argv], capture_output=True,
                               timeout=120, env=env) for argv in commands]
        assert all(r.returncode == 0 for r in runs), [r.stderr for r in runs]
        outputs.append((model.read_bytes(), report.read_bytes(), runs[1].stdout))
    assert outputs[0] == outputs[1]


class TestModelFile:
    def test_round_trip_is_byte_identical(self, poly_files, capsys):
        tmp = poly_files
        fit_poly(tmp, capsys)
        original = (tmp / "model.json").read_bytes()
        payload = read_model_file(tmp / "model.json")
        write_json(tmp / "copy.json", payload)
        assert (tmp / "copy.json").read_bytes() == original

    def test_payload_reconstructs_model(self, poly_files, capsys):
        tmp = poly_files
        fit_poly(tmp, capsys)
        payload = read_model_file(tmp / "model.json")
        model = model_from_payload(payload)
        np.testing.assert_allclose(model.d, payload["parameters"]["d"], rtol=0, atol=0)
        assert [model.knots.a, model.knots.b] == [payload["knots"][0][0], payload["knots"][-1][0]]
        assert "domain" not in payload

    @pytest.mark.parametrize(
        "extra, flag",
        [
            ((), None),
            (("--d-max", "0.001"), "clamped"),
            (("--method", "quadratic"), None),
            (("--method", "quadratic", "--knots", "100,101,300"), "chord_fallback"),
        ],
        ids=["fractal", "clamped", "quadratic", "chord-fallback"],
    )
    def test_fit_file_is_its_model(self, poly_files, capsys, extra, flag):
        # the model read back from a file writes that file's payload again,
        # also where the fit raised flags
        tmp = poly_files
        assert fit_poly(tmp, capsys, "--norm-params", str(tmp / "poly.params.json"), *extra)[0] == 0
        if flag:
            assert any(json.loads((tmp / "report.json").read_text())[flag])
        payload = read_model_file(tmp / "model.json")
        normalization = NormalizationParams(**payload["normalization"])
        again = model_to_payload(
            model_from_payload(payload), normalization=normalization, provenance=payload["provenance"]
        )
        assert again == payload

    @pytest.mark.parametrize("method", ["fractal", "quadratic"])
    def test_parameters_are_the_model_fields(self, poly_files, capsys, method):
        # a file's parameters are its model class's fields after the knots
        assert fit_poly(poly_files, capsys, "--method", method)[0] == 0
        model = model_from_payload(read_model_file(poly_files / "model.json"))
        names = [f.name for f in dataclasses.fields(type(model))]
        assert names[0] == "knots"
        assert list(model_to_payload(model)["parameters"]) == names[1:]

    def test_schema_1_files(self, tmp_path, capsys):
        # schema "1" and "2" fractal files, shaped like the one perfbench
        # writes, carry a domain and the fit's flags, which are not read: they
        # evaluate as their schema-"3" twin; a schema-"1" quadratic file holds
        # [k, r, l] rows, which are not read, so it lacks the curvature
        def legacy(payload, version):
            params = {**payload["parameters"]}
            if "d" in params:
                params.update(clamped=[True, False], degenerate=[False, True])
            provenance = {**payload["provenance"], **({"seed": None} if version == "1" else {})}
            return {**payload, "schema_version": version, "domain": [0.0, 1.0],
                    "parameters": params, "provenance": provenance}

        payloads = [tent_payload(), legacy(tent_payload(), "1"), legacy(tent_payload(), "2")]
        for depth in ((), ("--depth", "4")):
            curves = []
            for i, payload in enumerate(payloads):
                path, out = tmp_path / f"m{i}.json", tmp_path / f"c{i}.csv"
                write_json(path, payload)
                argv = ("eval", "--model", str(path), "--grid", "101", "--out", str(out), *depth)
                assert run(capsys, *argv)[0] == 0
                curves.append(out.read_bytes())
            assert curves[0] == curves[1] == curves[2]

        quad = legacy(tent_payload("quadratic"), "1")
        quad["parameters"]["coefficients"] = model_from_payload(quad).coeffs.tolist()
        del quad["parameters"]["curvature"]
        path, out = tmp_path / "quad1.json", tmp_path / "q.csv"
        write_json(path, quad)
        code, _, err = run(capsys, "eval", "--model", str(path), "--grid", "5", "--out", str(out))
        assert code == 1
        assert err == f"error: {path}: missing model field 'parameters.curvature'\n"
        assert not out.exists()

    def test_quadratic_far_from_unit_scale(self, tmp_path, capsys):
        # the [k, r, l] rows of this model overflow, its curvatures do not
        x = 1e10 + np.array([0.0, 100.0, 200.0, 300.0, 399.0])
        knots = Knots(x, 1e300 * np.array([0.5, -0.3, 0.8, 0.1, -0.6]))
        model = QuadModel(knots, 1e296 * np.array([1.0, -2.0, 0.5, 3.0]), [False] * 4)
        path, out = tmp_path / "far.json", tmp_path / "c.csv"
        write_json(path, model_to_payload(model))
        code, _, err = run(capsys, "eval", "--model", str(path), "--grid", "5", "--out", str(out))
        assert code == 0, err
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert rows.shape == (5, 2) and np.isfinite(rows).all()

    def test_rejects_unknown_kind(self, tmp_path):
        payload = {"schema_version": SCHEMA_VERSION, "kind": "spline"}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="kind"):
            read_model_file(path)


class TestCompare:
    def test_series_row_matches_library(self, poly_files, capsys):
        tmp = poly_files
        out = tmp / "cmp.json"
        code, stdout, _ = run(
            capsys, "compare", "--series", str(tmp / "poly.csv"),
            "--knots", "100,200,300", "--out", str(out),
        )
        assert code == 0
        assert stdout.splitlines()[0].startswith("dataset")

        series = load_series_csv(tmp / "poly.csv")
        knots = select_knots(series, "manual", indices=[100, 200, 300])
        row = compare(series, knots, name="poly")
        saved = json.loads(out.read_text())["rows"][0]
        assert saved["fractal_rms"] == row.fractal_rms
        assert saved["quadratic_rms"] == row.quadratic_rms
        assert saved["eval_depth"] == row.eval_depth

    def test_json_stdout_matches_file(self, poly_files, capsys):
        tmp = poly_files
        out = tmp / "cmp.json"
        code, stdout, _ = run(
            capsys, "compare", "--series", str(tmp / "poly.csv"),
            "--knots", "100,200,300", "--format", "json", "--out", str(out),
        )
        assert code == 0
        assert stdout == out.read_text()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the sums of squares overflow
    def test_json_holds_only_finite_numbers(self, tmp_path, capsys):
        argv = ("compare", "--series", str(far_series(tmp_path)), "--knots", "100,200,300")
        out = tmp_path / "cmp.json"
        for extra in (("--format", "json"), ("--out", str(out))):
            code, stdout, err = run(capsys, *argv, *extra)
            assert code == 1 and stdout == "", stdout
            assert err == "error: fractal_rms = inf is not finite\n", err
            assert not out.exists()
        code, stdout, _ = run(capsys, *argv)
        assert code == 0 and stdout.splitlines()[1].split()[:4] == ["far", "inf", "inf", "inf"]

    def test_stdout_deterministic(self, poly_files, capsys):
        tmp = poly_files
        argv = ("compare", "--series", str(tmp / "poly.csv"), "--knots", "100,200,300")
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second

    def test_d_max_reaches_the_fit(self, poly_files, capsys):
        argv = ("compare", "--series", str(poly_files / "poly.csv"), "--knots", "100,200,300", "--format", "json")
        code, out, _ = run(capsys, *argv, "--d-max", "0.01")
        assert code == 0 and json.loads(out)["rows"][0]["contraction_factor"] == 0.01
        code, out, _ = run(capsys, *argv)
        assert code == 0 and json.loads(out)["rows"][0]["contraction_factor"] > 0.01

    def test_window_over_the_series_is_data_error(self, poly_files):
        # past 2^63 too, where smoothing would end in a numpy TypeError
        code, err = fail_line(["compare", "--series", str(poly_files / "poly.csv"),
                               "--n", "3", "--window", "99999999999999999999"])
        assert (code, err) == (1, "error: smoothing window 99999999999999999999 must be a positive odd integer below "
                               "2M - 1 = 799\n")

    def test_usage_errors(self, poly_files, capsys):
        tmp = poly_files
        assert run(capsys, "compare")[0] == 2
        assert run(
            capsys, "compare", "--all-examples", "--series", str(tmp / "poly.csv")
        )[0] == 2
        assert run(capsys, "compare", "--all-examples", "--knots", "100,200")[0] == 2
        assert run(capsys, "compare", "--all-examples", "--knots-mode", "extrema")[0] == 2
        assert run(capsys, "compare", "--all-examples", "--n", "3")[0] == 2
        assert run(capsys, "compare", "--all-examples", "--window", "5", "--prominence", "0.5")[0] == 2
        assert run(capsys, "compare", "--all-examples", "--window", "5")[0] == 2
        assert run(capsys, "compare", "--all-examples", "--prominence", "0.5")[0] == 2
        assert run(capsys, "compare", "--all-examples", "--series", "") == (
            2, "", "usage error: --series conflicts with --all-examples\n")


@pytest.mark.parametrize("command", [("fit", "--out-model", "m.json", "--out-report", "r.json"), ("compare",)],
                         ids=["fit", "compare"])
def test_knots_mode_flag_is_gone(tmp_path, monkeypatch, capsys, command):
    # which knots a fit takes follows from --knots or --n alone
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, *command, "--series", "nope.csv", "--knots-mode", "extrema", "--n", "3")
    assert code == 2 and err.endswith("error: unrecognized arguments: --knots-mode extrema\n"), err


def test_failed_command_leaves_none_of_its_files(poly_files):
    # a directory where the last file goes fails the command after its
    # first files are written; they are removed, the directory is left
    out = poly_files / "q"
    out.mkdir()
    for name in ("r.json", "w4.params.json"):
        (out / name).mkdir()
    argv = ["fit", "--series", str(poly_files / "poly.csv"), "--knots", "100,200",
            "--out-model", str(out / "m.json"), "--out-report", str(out / "r.json")]
    code, err = fail_line(argv)
    assert code == 1 and err.startswith("error: ") and "r.json" in err, err
    code, err = fail_line(["gen", "--kind", "random-walk", "--m", "100", "--out", str(out / "w4.csv")])
    assert code == 1 and err.startswith("error: ") and "w4.params.json" in err, err
    assert sorted(path.name for path in out.iterdir()) == ["r.json", "w4.params.json"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (("fit", "--series", "nope.csv", "--out-model", "m.json", "--out-report", "r.json"),
         "--knots or --n is required"),
        (("compare", "--series", "nope.csv", "--prominence", "0.1"),
         "--knots or --n is required"),
        (("compare", "--series", "nope.csv", "--knots", "1,2", "--window", "5"),
         "--window conflicts with --knots"),
        (("compare", "--series", "nope.csv", "--n", "3", "--knots", ""),
         "--n conflicts with --knots"),
        (("compare", "--series", "nope.csv", "--knots", ""),
         "--knots must be one or more comma-separated integers, got ''"),
        (("fit", "--series", "nope.csv", "--knots", " , ", "--out-model", "m.json", "--out-report", "r.json"),
         "--knots must be one or more comma-separated integers, got ' , '"),
    ],
    ids=["fit-manual", "compare-extrema", "compare-window", "compare-extrema-empty-knots",
         "compare-empty-knots", "fit-comma-knots"],
)
def test_knot_flags_checked_before_series_is_read(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    assert run(capsys, *argv) == (2, "", f"usage error: {message}\n")


def fail_line(argv) -> tuple[int, str]:
    """Exit code and stderr of ``main(argv)``, with stdout discarded."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(list(argv))
    return code, err.getvalue()


def assert_names_file_once(code: int, err: str, path) -> None:
    assert code == 1, err
    assert err.startswith(f"error: {path}: ") and err.endswith("\n"), err
    assert err.count("\n") == 1 and err.count(str(path)) == 1, err


_TENT = json.dumps(tent_payload())


def run_on_bad_file(tmp: Path, name: str, text: str, command: str) -> tuple[int, str]:
    """Write ``text`` to ``tmp / name`` and run ``command`` with that file as
    its one bad input; every other input is valid."""
    bad = tmp / name
    bad.write_text(text)
    (tmp / "ok.csv").write_text("".join(f"{v}\n" for v in range(20)))
    (tmp / "tent.json").write_text(_TENT)
    out, ok = str(tmp / "out"), str(tmp / "ok.csv")
    argv = {
        "eval": ("eval", "--model", bad, "--grid", "5", "--out", out),
        "eval-depth": ("eval", "--model", bad, "--grid", "5", "--depth", "3", "--out", out),
        "at": ("eval", "--model", tmp / "tent.json", "--at", bad, "--out", out),
        "fit": ("fit", "--series", bad, "--knots", "2", "--out-model", out, "--out-report", out),
        "compare": ("compare", "--series", bad, "--knots", "2"),
        "params": ("fit", "--series", ok, "--knots", "5,10", "--norm-params", bad,
                   "--out-model", out, "--out-report", out),
        "gen": ("gen", "--kind", "dna", "--input", bad, "--out", out + ".csv"),
    }[command]
    return fail_line(map(str, argv))


@pytest.mark.parametrize(
    "name, text, command, message",
    [
        ("order.json", _TENT.replace("[0.5, 0.5], [1.0", "[1.5, 0.5], [1.0"), "eval", None),
        ("scale.json", _TENT.replace('"d": [0.5, 0.5]', '"d": [0.5, 1.0]'), "eval", None),
        ("syntax.json", _TENT[:-7], "eval", None),
        ("deep.json", "[" * 100_000 + "]" * 100_000, "eval", None),
        ("order.csv", "1,0\n3,1\n2,2\n", "fit", None),
        ("order.csv", "1,0\n3,1\n2,2\n", "compare", None),
        ("nan.csv", "0,0\nnan,1\n", "at", "non-finite value on line 2"),
        ("header.csv", "x,value\n", "at", "no data rows"),
        ("seq.fasta", ">x\nACGTNA\n", "gen", None),
        ("one.csv", "z,w\n1,0\n", "fit", "need at least 2 samples"),
        ("empty.csv", "", "compare", "no data rows"),
        # the file is read and built before --depth is refused, so its own error comes first
        ("quad.json", json.dumps(tent_payload("quadratic")).replace("[0.5, 0.5], [1.0", "[1.5, 0.5], [1.0"),
         "eval-depth", "knot abscissae must be strictly increasing"),
    ],
    ids=["knot-order", "d-range", "json-syntax", "json-depth", "series-order", "compare-order",
         "at-non-finite", "at-no-rows", "nucleotide", "series-one-row", "series-no-rows",
         "quadratic-depth-knot-order"],
)
def test_bad_input_file_is_named_once(tmp_path, name, text, command, message):
    code, err = run_on_bad_file(tmp_path, name, text, command)
    assert_names_file_once(code, err, tmp_path / name)
    if message is not None:
        assert err == f"error: {tmp_path / name}: {message}\n"


def _tent_with_knots(points) -> str:
    payload = json.loads(_TENT)
    payload["knots"] = points
    return json.dumps(payload)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "name, text, command",
    [
        ("span.json", _tent_with_knots([[-1e308, 0.0], [0.0, 1.0], [1e308, 0.0]]), "eval"),
        ("range.json", _tent_with_knots([[0.0, -1e308], [0.5, 1e308], [1.0, -1e308]]), "eval"),
        ("span.csv", "-1e308,0\n0,1\n1e308,2\n", "compare"),
        ("range.csv", "-1e308\n1e308\n-1e308\n", "compare"),
    ],
    ids=["knot-span", "knot-range", "series-span", "series-range"],
)
def test_overflowing_range_is_named_once(tmp_path, name, text, command):
    # one error line naming the file, and no numpy overflow warning before it
    assert_names_file_once(*run_on_bad_file(tmp_path, name, text, command), tmp_path / name)


# Malformed input files for the fuzz below: (file name, text, command).
_NOT_A_NUMBER = ["x", "2", True, None, [], {}, [["x"]], float("nan"), float("inf"), 10**400]
_JUNK = st.sampled_from([7, 1.5, *_NOT_A_NUMBER])


@st.composite
def malformed_series_csv(draw):
    cells = [[repr(float(z)), repr(draw(st.floats(-9, 9)))] for z in range(draw(st.integers(2, 8)))]
    command = draw(st.sampled_from(["fit", "compare", "at"]))
    # query points may come one at a time and in any order
    fault = draw(st.sampled_from(["cell", "ragged", *(["order", "short"] if command != "at" else [])]))
    row = draw(st.integers(1, len(cells) - 1))  # row 0 would read as a header
    if fault == "cell":
        cells[row][draw(st.integers(0, 1))] = draw(st.sampled_from(["x", "", "1.2.3", "--1", "1e"]))
    elif fault == "ragged":
        cells[row] = cells[row][:1] if draw(st.booleans()) else cells[row] + ["0.0"]
    elif fault == "order":
        cells[row][0] = repr(float(cells[row - 1][0]) - draw(st.sampled_from([0.0, 0.5, 3.0])))
    else:
        del cells[draw(st.integers(0, 1)):]
    return "bad.csv", "".join(",".join(line) + "\n" for line in cells), command


@st.composite
def malformed_model_json(draw):
    payload = tent_payload(draw(st.sampled_from(["fractal", "quadratic"])))
    params = payload["parameters"]
    field = "d" if "d" in params else "curvature"
    flags = [(params, name) for name in sorted(set(params) - {field})]
    arrays = [(payload, "knots"), (params, field)]
    fault = draw(st.sampled_from(["delete", "retype", "resize", "nan", "syntax"]))
    if fault == "delete":
        where, key = draw(st.sampled_from(
            [(payload, "schema_version"), (payload, "kind"), (payload, "parameters"), *arrays]
        ))
        del where[key]
    elif fault == "retype":
        where, key = draw(st.sampled_from(
            [(payload, "schema_version"), (payload, "kind"), *flags, *arrays]
        ))
        # a readable version ("2" is one) would make a well-formed file
        where[key] = draw(_JUNK.filter(lambda v: key != "schema_version" or v not in ("1", "2", SCHEMA_VERSION)))
    elif fault == "resize":
        where, key = draw(st.sampled_from([*flags, *arrays]))
        where[key] = where[key][:-1] if draw(st.booleans()) else where[key] + where[key][-1:]
    elif fault == "nan":
        where, key = draw(st.sampled_from(arrays))
        entries = where[key]
        i = draw(st.integers(0, len(entries) - 1))
        if isinstance(entries[i], list):
            entries, i = entries[i], draw(st.integers(0, len(entries[i]) - 1))
        entries[i] = float("nan")
    text = json.dumps(payload)
    if fault == "syntax":
        text = text[: draw(st.integers(0, len(text) - 1))]
    return "bad.json", text, "eval"


@st.composite
def malformed_norm_params(draw):
    payload = {"s1": 0.5, "s2": 2.0}
    fault = draw(st.sampled_from(["shape", "missing", "value", "scale", "syntax"]))
    if fault == "shape":
        payload = draw(st.sampled_from([[0.5, 2.0], 1.0, "s1", None]))
    elif fault == "missing":
        del payload[draw(st.sampled_from(["s1", "s2"]))]
    elif fault == "value":
        payload[draw(st.sampled_from(["s1", "s2"]))] = draw(st.sampled_from(_NOT_A_NUMBER))
    elif fault == "scale":
        payload["s2"] = draw(st.sampled_from([0, -1.0, float("-inf")]))
    text = json.dumps(payload)
    if fault == "syntax":
        text = text[: draw(st.integers(0, len(text) - 1))]
    return "bad.params.json", text, "params"


@settings(max_examples=150, deadline=None)
@given(st.one_of(malformed_series_csv(), malformed_model_json(), malformed_norm_params()))
def test_fuzz_malformed_input_files(case):
    # every bad input file ends the command with one line that names it,
    # never a traceback
    with tempfile.TemporaryDirectory() as tmp:
        code, err = run_on_bad_file(Path(tmp), *case)
    assert code in (1, 2) and "Traceback" not in err, err
    assert err.count("\n") == 1 and err.startswith(("error: ", "usage error: ")), err
    assert_names_file_once(code, err, Path(tmp) / case[0])


def test_version_flag(capsys):
    code, stdout, _ = run(capsys, "--version")
    assert code == 0


def test_unknown_command(capsys):
    assert run(capsys, "frobnicate")[0] == 2


def child_env() -> dict:
    """The environment for a child interpreter that imports this checkout's
    package, installed or not."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)


def test_module_entry_point_smoke(tmp_path):
    # one end-to-end run through a real interpreter
    result = subprocess.run(
        [sys.executable, "-m", "fractalfit.cli", "compare", "--all-examples", "--format", "json"],
        capture_output=True,
        text=True,
        timeout=120,
        env=child_env(),
    )
    assert result.returncode == 0
    row = json.loads(result.stdout)["rows"][0]
    assert row["name"] == "polynomial"
    assert 0 < row["quadratic_rms"] < row["fractal_rms"] <= row["collage_bound"]


def test_pool_modules_never_loaded_on_import():
    # the pooled CSV write imports them itself; the CLI's import pays nothing for them
    probe = (
        "import sys, fractalfit.cli\n"
        "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120, env=child_env()
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_scipy_never_loaded():
    # numpy is the one dependency: neither the CLI import nor extrema knot
    # selection loads scipy
    probe = (
        "import sys, fractalfit.cli\n"
        "print('scipy' in sys.modules)\n"
        "from fractalfit import gen_random_walk, select_knots\n"
        "select_knots(gen_random_walk(500, 1), 'extrema', n_interior=3, window=11)\n"
        "print('scipy' in sys.modules)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120, env=child_env()
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False", "False"]
