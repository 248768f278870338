import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fractalfit import (
    Knots,
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
from fractalfit.cli import (
    SCHEMA_VERSION,
    main,
    model_from_payload,
    model_to_payload,
    read_model_file,
    write_model_file,
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
        assert payload["domain"] == [1.0, 400.0]
        sha = hashlib.sha256((tmp / "poly.csv").read_bytes()).hexdigest()
        assert payload["provenance"]["input_sha256"] == sha

        report = json.loads((tmp / "report.json").read_text())
        assert report["collage_rss"] == expected.collage_rss
        assert report["collage_bound"] == expected.collage_bound

    def test_quadratic_model(self, poly_files, capsys):
        tmp = poly_files
        code, _, _ = fit_poly(tmp, capsys, "--method", "quadratic")
        assert code == 0
        payload = read_model_file(tmp / "model.json")
        assert payload["kind"] == "quadratic"

        series = load_series_csv(tmp / "poly.csv")
        knots = select_knots(series, "manual", indices=[100, 200, 300])
        expected = fit_quadratic(series, knots)
        got = [triple[0] for triple in payload["parameters"]["coefficients"]]
        np.testing.assert_allclose(got, expected.curvature, rtol=0, atol=0)

    def test_norm_params_embedded(self, poly_files, capsys):
        tmp = poly_files
        code, _, _ = fit_poly(tmp, capsys, "--norm-params", str(tmp / "poly.params.json"))
        assert code == 0
        payload = read_model_file(tmp / "model.json")
        sidecar = json.loads((tmp / "poly.params.json").read_text())
        assert payload["normalization"] == sidecar

    def test_strict_flags_exit_one(self, poly_files, capsys):
        tmp = poly_files
        code, _, err = fit_poly(tmp, capsys, "--d-max", "0.001", "--strict")
        assert code == 1
        assert "clamped" in err
        # artifacts are still written for inspection
        assert (tmp / "model.json").exists()

    def test_extrema_knot_spec(self, poly_files, capsys):
        tmp = poly_files
        code, _, _ = run(
            capsys,
            "fit",
            "--series", str(tmp / "poly.csv"),
            "--knots-mode", "extrema", "--n", "3", "--window", "21", "--prominence", "0.01",
            "--out-model", str(tmp / "m2.json"),
            "--out-report", str(tmp / "r2.json"),
        )
        assert code == 0
        payload = read_model_file(tmp / "m2.json")
        assert len(payload["parameters"]["d"]) == len(payload["knots"]) - 1

    def test_knot_spec_usage_errors(self, poly_files, capsys):
        tmp = poly_files
        series = str(tmp / "poly.csv")
        model, report = str(tmp / "m.json"), str(tmp / "r.json")
        cases = [
            ("fit", "--series", series, "--out-model", model, "--out-report", report),
            ("fit", "--series", series, "--knots-mode", "extrema",
             "--out-model", model, "--out-report", report),
            ("fit", "--series", series, "--knots-mode", "extrema", "--n", "3",
             "--knots", "100", "--out-model", model, "--out-report", report),
            ("fit", "--series", series, "--knots", "abc",
             "--out-model", model, "--out-report", report),
        ]
        for argv in cases:
            code, _, err = run(capsys, *argv)
            assert code == 2, argv

    def test_bad_knot_index_is_data_error(self, poly_files, capsys):
        code, _, err = fit_poly(poly_files, capsys, "--knots", "100,200,99999")
        # overridden --knots comes later on the command line; argparse keeps
        # the last value, which is out of range for a 400-sample series
        assert code == 1
        assert "out of range" in err


class TestEval:
    def tent_payload(self):
        model = build_model(Knots.from_points([(0, 0), (0.5, 0.5), (1, 0)]), [0.5, 0.5])
        return model_to_payload(model)

    def test_grid_hits_knots(self, tmp_path, capsys):
        path = tmp_path / "tent.json"
        write_model_file(path, self.tent_payload())
        out = tmp_path / "curve.csv"
        code, _, _ = run(capsys, "eval", "--model", str(path), "--grid", "1025", "--out", str(out))
        assert code == 0
        curve = np.loadtxt(out, delimiter=",", skiprows=1)
        assert curve.shape == (1025, 2)
        for x, y in [(0.0, 0.0), (0.5, 0.5), (1.0, 0.0)]:
            row = curve[np.argmin(np.abs(curve[:, 0] - x))]
            assert row[1] == pytest.approx(y, abs=1e-12)

    def test_depth_zero_is_chord(self, tmp_path, capsys):
        path = tmp_path / "tent.json"
        write_model_file(path, self.tent_payload())
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
        write_model_file(path, self.tent_payload())
        out = str(tmp_path / "c.csv")
        assert run(capsys, "eval", "--model", str(path), "--out", out)[0] == 2
        assert run(capsys, "eval", "--model", str(path), "--grid", "5", "--at", "x.csv", "--out", out)[0] == 2
        assert run(capsys, "eval", "--model", str(path), "--grid", "1", "--out", out)[0] == 2

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
        payload = self.tent_payload()
        payload["schema_version"] = "99"
        path = tmp_path / "future.json"
        path.write_text(json.dumps(payload))
        code, _, err = run(capsys, "eval", "--model", str(path), "--grid", "5", "--out", str(tmp_path / "c.csv"))
        assert code == 1
        assert "schema version" in err

    @pytest.mark.parametrize(
        "field", ["knots", "domain", "parameters", "parameters.d", "parameters.coefficients"]
    )
    def test_missing_model_field_is_data_error(self, tmp_path, capsys, field):
        payload = self.tent_payload()
        if field == "parameters.d":
            del payload["parameters"]["d"]
        elif field == "parameters.coefficients":
            payload["kind"] = "quadratic"  # a fractal payload has no coefficients
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

    @pytest.mark.parametrize(
        "field, value",
        [
            ("knots", 5),
            ("knots", [[0, 0], [1]]),
            ("knots", [[0, "a"], [0.5, 0.5], [1, 0]]),
            ("domain", "ab"),
            ("domain", [0, 0.5, 1]),
            ("parameters.d", [[0.5], [0.5]]),
            ("parameters.d", None),
            ("parameters.coefficients", [1, 2]),
            ("parameters.chord_fallback", [1, 2, 3]),
            ("parameters.chord_fallback", [True, False, "x"]),
            ("parameters.chord_fallback", [1, 0]),
            ("parameters.chord_fallback", [True]),
            ("parameters.clamped", ["x", 7]),
            ("parameters.degenerate", [False, False, False]),
        ],
    )
    def test_malformed_model_field_is_data_error(self, tmp_path, capsys, field, value):
        payload = self.tent_payload()
        if field in ("parameters.coefficients", "parameters.chord_fallback"):
            payload["kind"] = "quadratic"
            payload["parameters"]["coefficients"] = [[0.0, 1.0, 0.0], [0.0, -1.0, 1.0]]
        if field.startswith("parameters."):
            payload["parameters"][field.split(".", 1)[1]] = value
        else:
            payload[field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        code, _, err = run(capsys, "eval", "--model", str(path), "--grid", "5", "--out", str(tmp_path / "c.csv"))
        assert code == 1
        assert err.startswith(f"error: {path}: model field '{field}' must be ")
        assert err.count("\n") == 1

    def test_domain_must_be_knot_span(self, tmp_path, capsys):
        payload = self.tent_payload()
        payload["domain"] = [0.0, 2.0]
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(payload))
        code, _, err = run(capsys, "eval", "--model", str(path), "--grid", "5", "--out", str(tmp_path / "c.csv"))
        assert code == 1
        assert err == (
            f"error: {path}: model field 'domain' [0.0, 2.0] differs from the knot span [0.0, 1.0]\n"
        )


class TestModelFile:
    def test_round_trip_is_byte_identical(self, poly_files, capsys):
        tmp = poly_files
        fit_poly(tmp, capsys)
        original = (tmp / "model.json").read_bytes()
        payload = read_model_file(tmp / "model.json")
        write_model_file(tmp / "copy.json", payload)
        assert (tmp / "copy.json").read_bytes() == original

    def test_payload_reconstructs_model(self, poly_files, capsys):
        tmp = poly_files
        fit_poly(tmp, capsys)
        payload = read_model_file(tmp / "model.json")
        model = model_from_payload(payload)
        np.testing.assert_allclose(model.d, payload["parameters"]["d"], rtol=0, atol=0)
        assert model.knots.x[0] == payload["domain"][0]

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

    def test_stdout_deterministic(self, poly_files, capsys):
        tmp = poly_files
        argv = ("compare", "--series", str(tmp / "poly.csv"), "--knots", "100,200,300")
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second

    def test_usage_errors(self, poly_files, capsys):
        tmp = poly_files
        assert run(capsys, "compare")[0] == 2
        assert run(
            capsys, "compare", "--all-examples", "--series", str(tmp / "poly.csv")
        )[0] == 2


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


def test_cli_import_leaves_scipy_unloaded():
    # scipy serves only extrema knot selection; every other command starts
    # without paying for its import
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
    assert result.stdout.split() == ["False", "True"]
