import contextlib
import hashlib
import io
import json
import os
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
        # the written [k, r, l] rows pass the coefficient check on loading
        model = model_from_payload(payload)
        np.testing.assert_array_equal(model.coeffs, expected.coeffs)

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
        want = select_knots(load_series_csv(tmp / "poly.csv"), "extrema", n_interior=3, window=21, prominence=0.01)
        assert [x for x, _ in payload["knots"]] == want.x.tolist()

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
            ("fit", "--series", series, "--knots", "100,200", "--n", "5", "--window", "7",
             "--out-model", model, "--out-report", report),
            ("fit", "--series", series, "--knots", "100,200", "--window", "7",
             "--out-model", model, "--out-report", report),
            ("fit", "--series", series, "--knots", "100,200", "--prominence", "0.5",
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

    def test_level_ceiling_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "steep.json"
        knots = Knots.from_points([(0, 0), (0.5, 0.5), (1, 0)])
        write_json(path, model_to_payload(build_model(knots, [0.9999999, 0.5])))
        out = str(tmp_path / "c.csv")
        code, err = fail_line(["eval", "--model", str(path), "--grid", "5", "--out", out])
        assert code == 1 and "Traceback" not in err
        assert err.count("\n") == 1 and err.startswith("error: ") and "--depth" in err, err
        assert run(capsys, "eval", "--model", str(path), "--grid", "5", "--depth", "5", "--out", out)[0] == 0

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
        "field", ["knots", "domain", "parameters", "parameters.d", "parameters.coefficients"]
    )
    def test_missing_model_field_is_data_error(self, tmp_path, capsys, field):
        payload = tent_payload()
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
            ("parameters.d", [0.5, 0.5, 0.5]),
            ("parameters.coefficients", [[0.0, 1.0, 0.0]]),
            ("parameters.coefficients", [[0.0, 999.0, 0.0], [0.0, -1.0, 1.0]]),
        ],
    )
    def test_malformed_model_field_is_data_error(self, tmp_path, capsys, field, value):
        payload = tent_payload()
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
        payload = tent_payload()
        payload["domain"] = [0.0, 2.0]
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(payload))
        code, _, err = run(capsys, "eval", "--model", str(path), "--grid", "5", "--out", str(tmp_path / "c.csv"))
        assert code == 1
        assert err == (
            f"error: {path}: model field 'domain' [0.0, 2.0] differs from the knot span [0.0, 1.0]\n"
        )


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
        assert run(capsys, "compare", "--all-examples", "--knots", "100,200")[0] == 2
        assert run(capsys, "compare", "--all-examples", "--knots-mode", "extrema")[0] == 2
        assert run(capsys, "compare", "--all-examples", "--n", "3")[0] == 2
        assert run(capsys, "compare", "--all-examples", "--window", "5", "--prominence", "0.5")[0] == 2
        assert run(capsys, "compare", "--all-examples", "--window", "5")[0] == 2
        assert run(capsys, "compare", "--all-examples", "--prominence", "0.5")[0] == 2


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
        "at": ("eval", "--model", tmp / "tent.json", "--at", bad, "--out", out),
        "fit": ("fit", "--series", bad, "--knots", "2", "--out-model", out, "--out-report", out),
        "compare": ("compare", "--series", bad, "--knots", "2"),
        "params": ("fit", "--series", ok, "--knots", "5,10", "--norm-params", bad,
                   "--out-model", out, "--out-report", out),
        "gen": ("gen", "--kind", "dna", "--input", bad, "--out", out + ".csv"),
    }[command]
    return fail_line(map(str, argv))


@pytest.mark.parametrize(
    "name, text, command",
    [
        ("order.json", _TENT.replace("[0.5, 0.5], [1.0", "[1.5, 0.5], [1.0"), "eval"),
        ("scale.json", _TENT.replace('"d": [0.5, 0.5]', '"d": [0.5, 1.0]'), "eval"),
        ("syntax.json", _TENT[:-7], "eval"),
        ("deep.json", "[" * 100_000 + "]" * 100_000, "eval"),
        ("order.csv", "1,0\n3,1\n2,2\n", "fit"),
        ("order.csv", "1,0\n3,1\n2,2\n", "compare"),
        ("order.csv", "0,0\n0.5,1\n0.25,2\n", "at"),
        ("seq.fasta", ">x\nACGTNA\n", "gen"),
    ],
    ids=["knot-order", "d-range", "json-syntax", "json-depth", "series-order", "compare-order",
         "at-order", "nucleotide"],
)
def test_bad_input_file_is_named_once(tmp_path, name, text, command):
    assert_names_file_once(*run_on_bad_file(tmp_path, name, text, command), tmp_path / name)


# Malformed input files for the fuzz below: (file name, text, command).
_NOT_A_NUMBER = ["x", "2", True, None, [], {}, [["x"]], float("nan"), float("inf"), 10**400]
_JUNK = st.sampled_from([7, 1.5, *_NOT_A_NUMBER])


@st.composite
def malformed_series_csv(draw):
    cells = [[repr(float(z)), repr(draw(st.floats(-9, 9)))] for z in range(draw(st.integers(2, 8)))]
    fault = draw(st.sampled_from(["cell", "ragged", "order", "short"]))
    row = draw(st.integers(1, len(cells) - 1))  # row 0 would read as a header
    if fault == "cell":
        cells[row][draw(st.integers(0, 1))] = draw(st.sampled_from(["x", "", "1.2.3", "--1", "1e"]))
    elif fault == "ragged":
        cells[row] = cells[row][:1] if draw(st.booleans()) else cells[row] + ["0.0"]
    elif fault == "order":
        cells[row][0] = repr(float(cells[row - 1][0]) - draw(st.sampled_from([0.0, 0.5, 3.0])))
    else:
        del cells[draw(st.integers(0, 1)):]
    command = draw(st.sampled_from(["fit", "compare", "at"]))
    return "bad.csv", "".join(",".join(line) + "\n" for line in cells), command


@st.composite
def malformed_model_json(draw):
    payload = tent_payload(draw(st.sampled_from(["fractal", "quadratic"])))
    params = payload["parameters"]
    field = "d" if "d" in params else "coefficients"
    flag = draw(st.sampled_from(sorted(set(params) - {field})))
    arrays = [(payload, "knots"), (payload, "domain"), (params, field)]
    fault = draw(st.sampled_from(["delete", "retype", "resize", "nan", "syntax"]))
    if fault == "delete":
        where, key = draw(st.sampled_from(
            [(payload, "schema_version"), (payload, "kind"), (payload, "parameters"), *arrays]
        ))
        del where[key]
    elif fault == "retype":
        where, key = draw(st.sampled_from(
            [(payload, "schema_version"), (payload, "kind"), (params, flag), *arrays]
        ))
        where[key] = draw(_JUNK)
    elif fault == "resize":
        where, key = draw(st.sampled_from([(params, flag), *arrays]))
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
