"""Command-line interface: reproducible generate / fit / eval / compare runs.

All artifacts are plain files: series and curves as CSV, models and reports
as JSON.  Model files carry a schema version, the knots and parameters, the
normalization constants (when known), and provenance (input hash, seed, tool
version) sufficient to re-run the producing command.  Every command is
deterministic given its flags and inputs; floats are serialized via repr, so
equal runs give byte-identical files.

Exit codes: 0 success, 1 data/numeric error, 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import ComparisonRow, compare
from .baseline_quadratic import QuadModel, fit_quadratic
from .collage_fit import D_MAX_DEFAULT, fit_d_discrete
from .datasets import (
    NormalizationParams,
    gen_dna_walk,
    gen_polynomial,
    gen_random_walk,
    load_series_csv,
    normalize,
    select_knots,
)
from .ifs_core import FifModel, Knots, Series, build_model

SCHEMA_VERSION = "1"

__all__ = [
    "main",
    "read_model_file",
    "write_model_file",
    "model_from_payload",
    "model_to_payload",
    "write_series_csv",
    "SCHEMA_VERSION",
]


class UsageError(Exception):
    """Bad flag combination or argument value; exits with code 2."""


# ---------------------------------------------------------------------------
# serialization helpers

def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_json(path, payload) -> None:
    Path(path).write_text(_json_text(payload), encoding="utf-8")


def write_series_csv(path, x, y, header: str = "z,w") -> None:
    """Two-column CSV: the header line, then one ``x,y`` row of repr floats
    per sample."""
    lines = [header]
    lines.extend(f"{a!r},{b!r}" for a, b in zip(x.tolist(), y.tolist()))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def model_to_payload(
    model: FifModel | QuadModel,
    *,
    flags: dict | None = None,
    normalization: NormalizationParams | None = None,
    provenance: dict | None = None,
) -> dict:
    """JSON-ready dict for a fitted model (see module docstring for layout)."""
    flags = flags or {}
    knots = model.knots
    if isinstance(model, FifModel):
        kind = "fractal"
        parameters = {
            "d": [float(v) for v in model.d],
            "clamped": [bool(v) for v in flags.get("clamped", [False] * knots.n_segments)],
            "degenerate": [bool(v) for v in flags.get("degenerate", [False] * knots.n_segments)],
        }
    else:
        kind = "quadratic"
        parameters = {
            "coefficients": model.coeffs.tolist(),
            "chord_fallback": [bool(v) for v in model.chord_fallback],
        }
    norm = None
    if normalization is not None:
        norm = {"s1": float(normalization.s1), "s2": float(normalization.s2)}
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "domain": [knots.a, knots.b],
        "knots": [[float(x), float(y)] for x, y in zip(knots.x, knots.y)],
        "parameters": parameters,
        "normalization": norm,
        "provenance": provenance
        or {"input_sha256": None, "seed": None, "tool_version": __version__},
    }


#: The parameter field ``model_from_payload`` requires, per model kind, with
#: its array shape (None: any length) and what that shape reads as.
_PARAMETER_FIELD = {
    "fractal": ("d", (None,), "a list of numbers"),
    "quadratic": ("coefficients", (None, 3), "a list of [k, r, l] triples"),
}


def _numeric_field(path, field: str, value, shape, expected: str) -> np.ndarray:
    """``value`` as a float array of ``shape``; a one-line ValueError naming
    the file and the field otherwise."""
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nested lists
        arr = np.array(None)
    if (
        arr.dtype.kind not in "iuf"
        or arr.ndim != len(shape)
        or any(want not in (None, got) for want, got in zip(shape, arr.shape))
    ):
        raise ValueError(f"{path}: model field {field!r} must be {expected}")
    return arr.astype(float)


def read_model_file(path) -> dict:
    """Load and validate a model payload: the schema version must be known,
    every field that ``model_from_payload`` reads present and of the right
    shape, each per-segment flag that is present a list of one JSON boolean
    per segment, and the domain the span of the knots."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: model file must hold a JSON object")
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: unsupported model schema version {version!r} "
            f"(expected {SCHEMA_VERSION!r})"
        )
    kind = payload.get("kind")
    if kind not in _PARAMETER_FIELD:
        raise ValueError(f"{path}: unknown model kind {kind!r}")
    for key in ("domain", "knots", "parameters"):
        if key not in payload:
            raise ValueError(f"{path}: missing model field {key!r}")
    field, shape, expected = _PARAMETER_FIELD[kind]
    params = payload["parameters"]
    if not isinstance(params, dict) or field not in params:
        raise ValueError(f"{path}: missing model field 'parameters.{field}'")
    knots = _numeric_field(path, "knots", payload["knots"], (None, 2), "a list of [x, y] pairs")
    domain = _numeric_field(path, "domain", payload["domain"], (2,), "a pair [a, b]")
    _numeric_field(path, f"parameters.{field}", params[field], shape, expected)
    n_segments = knots.shape[0] - 1
    for flag in ("clamped", "degenerate", "chord_fallback"):
        value = params.get(flag, [False] * n_segments)
        if not (
            isinstance(value, list)
            and len(value) == n_segments
            and all(isinstance(v, bool) for v in value)
        ):
            raise ValueError(
                f"{path}: model field 'parameters.{flag}' must be a list of {n_segments} booleans"
            )
    span = knots[[0, -1], 0].tolist()
    if domain.tolist() != span:
        raise ValueError(
            f"{path}: model field 'domain' {domain.tolist()} differs from the knot span {span}"
        )
    return payload


def write_model_file(path, payload) -> None:
    write_json(path, payload)


def model_from_payload(payload) -> FifModel | QuadModel:
    knots = Knots.from_points(payload["knots"])
    params = payload["parameters"]
    if payload["kind"] == "fractal":
        return build_model(knots, params["d"])
    curvature = np.array([k for k, _, _ in params["coefficients"]])
    fallback = params.get("chord_fallback", [False] * knots.n_segments)
    return QuadModel(knots=knots, curvature=curvature, chord_fallback=np.asarray(fallback))


# ---------------------------------------------------------------------------
# shared argument plumbing

def _add_knot_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--knots",
        help="comma-separated 1-based interior sample indices, e.g. 500,4000,7500",
    )
    sub.add_argument(
        "--knots-mode",
        choices=["manual", "extrema"],
        default="manual",
        help="manual (default) uses --knots; extrema picks prominent extrema",
    )
    sub.add_argument("--n", type=int, help="number of interior extrema knots")
    sub.add_argument("--window", type=int, default=101, help="extrema smoothing window (odd)")
    sub.add_argument("--prominence", type=float, default=0.05, help="extrema prominence threshold")


def _resolve_knots(args, series: Series) -> Knots:
    if args.knots_mode == "manual":
        if not args.knots:
            raise UsageError("manual knot mode requires --knots with interior indices")
        try:
            indices = [int(tok) for tok in args.knots.split(",") if tok.strip()]
        except ValueError:
            raise UsageError(f"--knots must be comma-separated integers, got {args.knots!r}")
        return select_knots(series, "manual", indices=indices)
    if args.knots:
        raise UsageError("--knots conflicts with --knots-mode extrema")
    if args.n is None:
        raise UsageError("extrema knot mode requires --n")
    return select_knots(
        series,
        "extrema",
        n_interior=args.n,
        window=args.window,
        prominence=args.prominence,
    )


def _load_normalization(path) -> NormalizationParams:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    return NormalizationParams(s1=float(payload["s1"]), s2=float(payload["s2"]))


# ---------------------------------------------------------------------------
# subcommands

def _cmd_gen(args) -> int:
    out = Path(args.out)
    if args.kind == "dna":
        if args.input is None:
            raise UsageError("--kind dna requires --input (plain text or FASTA)")
        if args.m is not None:
            raise UsageError("--m is not meaningful with --kind dna")
        raw = gen_dna_walk(Path(args.input).read_text(encoding="utf-8"))
    else:
        if args.m is None:
            raise UsageError(f"--kind {args.kind} requires --m")
        if args.kind == "polynomial":
            if args.seed is not None:
                raise UsageError("--seed is not meaningful with --kind polynomial")
            raw = gen_polynomial(args.m)
        else:
            raw = gen_random_walk(args.m, args.seed if args.seed is not None else 0)

    normalized, params = normalize(raw)
    raw_path = out.with_name(out.stem + ".raw.csv")
    params_path = out.with_name(out.stem + ".params.json")
    write_series_csv(out, normalized.z, normalized.w)
    write_series_csv(raw_path, raw.z, raw.w)
    write_json(params_path, {"s1": params.s1, "s2": params.s2})
    print(f"wrote {out} ({normalized.m_count} samples), {raw_path}, {params_path}")
    return 0


def _fit_provenance(args) -> dict:
    return {
        "input_sha256": _sha256(args.series),
        "seed": None,
        "tool_version": __version__,
    }


def _cmd_fit(args) -> int:
    series = load_series_csv(args.series)
    knots = _resolve_knots(args, series)
    normalization = _load_normalization(args.norm_params) if args.norm_params else None

    if args.method == "fractal":
        report = fit_d_discrete(series, knots, args.d_max)
        model = build_model(knots, report.d)
        flags = {"clamped": report.clamped, "degenerate": report.degenerate}
        statistics = {
            "collage_rss": report.collage_rss,
            "contraction_factor": report.contraction_factor,
            "collage_bound": report.collage_bound,
        }
    else:
        model = fit_quadratic(series, knots)
        flags = {"chord fallback": model.chord_fallback}
        statistics = {"residual_rss": float(np.sum((model(series.z) - series.w) ** 2))}
    payload = model_to_payload(
        model, flags=flags, normalization=normalization, provenance=_fit_provenance(args)
    )
    report_payload = {"kind": payload["kind"], **payload["parameters"], **statistics}
    flagged = [
        f"segment {i}: {kind}" for kind, mask in flags.items() for i in np.nonzero(mask)[0]
    ]

    write_model_file(args.out_model, payload)
    write_json(args.out_report, report_payload)
    print(f"wrote {args.out_model}, {args.out_report}")
    if flagged and args.strict:
        print("strict mode: fit raised flags -> " + "; ".join(flagged), file=sys.stderr)
        return 1
    return 0


def _cmd_eval(args) -> int:
    payload = read_model_file(args.model)
    model = model_from_payload(payload)
    if (args.grid is None) == (args.at is None):
        raise UsageError("exactly one of --grid or --at is required")
    if args.grid is not None:
        if args.grid < 2:
            raise UsageError("--grid must be >= 2")
        xs = np.linspace(model.knots.a, model.knots.b, args.grid)
    else:
        xs = load_series_csv(args.at).z

    if args.depth is not None and payload["kind"] != "fractal":
        raise UsageError("--depth applies only to fractal models")
    values = model(xs) if args.depth is None else model(xs, args.depth)
    write_series_csv(args.out, xs, values, header="x,value")
    print(f"wrote {args.out} ({xs.size} points)")
    return 0


def _row_payload(row: ComparisonRow) -> dict:
    return {
        "name": row.name,
        "fractal_rms": row.fractal_rms,
        "quadratic_rms": row.quadratic_rms,
        "collage_bound": row.collage_bound,
        "contraction_factor": row.contraction_factor,
        "eval_depth": row.eval_depth,
    }


def _render_text(rows: list[ComparisonRow]) -> str:
    header = ("dataset", "fractal_rms", "quadratic_rms", "collage_bound", "contraction", "depth")
    table = [header] + [
        (
            row.name,
            f"{row.fractal_rms:.7g}",
            f"{row.quadratic_rms:.7g}",
            f"{row.collage_bound:.7g}",
            f"{row.contraction_factor:.7g}",
            str(row.eval_depth),
        )
        for row in rows
    ]
    widths = [max(len(entry[col]) for entry in table) for col in range(len(header))]
    return "\n".join(
        "  ".join(entry[col].ljust(widths[col]) for col in range(len(header))).rstrip()
        for entry in table
    )


def _cmd_compare(args) -> int:
    rows: list[ComparisonRow] = []
    if args.all_examples:
        if args.series:
            raise UsageError("--all-examples conflicts with --series")
        normalized, _ = normalize(gen_polynomial(10_000))
        knots = select_knots(normalized, "manual", indices=[500, 4000, 7500])
        rows.append(
            compare(normalized, knots, name="polynomial", depth=args.depth, d_max=args.d_max)
        )
    else:
        if not args.series:
            raise UsageError("compare requires --series or --all-examples")
        series = load_series_csv(args.series)
        knots = _resolve_knots(args, series)
        name = Path(args.series).stem
        rows.append(compare(series, knots, name=name, depth=args.depth, d_max=args.d_max))

    payload = {"rows": [_row_payload(row) for row in rows]}
    if args.format == "json":
        print(_json_text(payload), end="")
    else:
        print(_render_text(rows))
    if args.out:
        write_json(args.out, payload)
    return 0


# ---------------------------------------------------------------------------
# parser

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fractalfit",
        description="Fractal interpolation of 1-D series, with a quadratic baseline.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    gen = commands.add_parser("gen", help="generate a series (normalized + raw + params)")
    gen.add_argument("--kind", choices=["polynomial", "dna", "random-walk"], required=True)
    gen.add_argument("--m", type=int, help="number of samples")
    gen.add_argument("--seed", type=int, help="random-walk seed (default 0)")
    gen.add_argument("--input", help="nucleotide file (plain text or FASTA) for --kind dna")
    gen.add_argument("--out", required=True, help="output CSV for the normalized series")
    gen.set_defaults(handler=_cmd_gen)

    fit = commands.add_parser("fit", help="fit a model to a series CSV")
    fit.add_argument("--series", required=True, help="input series CSV")
    fit.add_argument("--method", choices=["fractal", "quadratic"], default="fractal")
    _add_knot_args(fit)
    fit.add_argument("--d-max", type=float, default=D_MAX_DEFAULT, help="clamp for |d_i|")
    fit.add_argument("--strict", action="store_true", help="exit 1 if any segment was flagged")
    fit.add_argument("--norm-params", help="params JSON from gen, embedded as provenance")
    fit.add_argument("--out-model", required=True, help="output model JSON")
    fit.add_argument("--out-report", required=True, help="output fit report JSON")
    fit.set_defaults(handler=_cmd_fit)

    evaluate = commands.add_parser("eval", help="evaluate a model file to a curve CSV")
    evaluate.add_argument("--model", required=True, help="model JSON from fit")
    evaluate.add_argument("--grid", type=int, help="uniform grid resolution over the domain")
    evaluate.add_argument("--at", help="series CSV providing the abscissae")
    evaluate.add_argument("--depth", type=int, help="pre-fractal depth (default: auto)")
    evaluate.add_argument("--out", required=True, help="output curve CSV")
    evaluate.set_defaults(handler=_cmd_eval)

    cmp_parser = commands.add_parser("compare", help="fit both models and tabulate errors")
    cmp_parser.add_argument("--series", help="input series CSV")
    cmp_parser.add_argument("--all-examples", action="store_true", help="run the built-in polynomial pipeline")
    _add_knot_args(cmp_parser)
    cmp_parser.add_argument("--depth", type=int, help="pre-fractal depth (default: auto)")
    cmp_parser.add_argument("--d-max", type=float, default=D_MAX_DEFAULT)
    cmp_parser.add_argument("--format", choices=["text", "json"], default="text")
    cmp_parser.add_argument("--out", help="also write the comparison JSON here")
    cmp_parser.set_defaults(handler=_cmd_compare)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits itself; keep main() callable
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
