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
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

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
    "write_json",
    "model_from_payload",
    "model_to_payload",
    "write_series_csv",
    "SCHEMA_VERSION",
]


class UsageError(Exception):
    """Bad flag combination or argument value; exits with code 2."""


def _read(path, parse):
    """``parse(path)``: the one boundary every input file passes through.  A
    ValueError it raises, or the RecursionError of too deeply nested JSON,
    becomes a ValueError naming ``path`` exactly once."""
    try:
        return parse(path)
    except (ValueError, RecursionError) as exc:
        message = str(exc)
        if not message.startswith(f"{path}: "):
            message = f"{path}: {message}"
        raise ValueError(message) from exc


# ---------------------------------------------------------------------------
# serialization helpers

def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_json(path, payload) -> None:
    Path(path).write_text(_json_text(payload), encoding="utf-8")


#: Rows formatted and written at a time, so a long curve never sits in
#: memory as text all at once.
_CSV_CHUNK = 1 << 16


def write_series_csv(path, x, y, header: str = "z,w") -> None:
    """Two-column CSV: the header line, then one ``x,y`` row of repr floats
    per sample."""
    with Path(path).open("w", encoding="utf-8") as out:
        out.write(header + "\n")
        for i in range(0, len(x), _CSV_CHUNK):
            rows = zip(x[i : i + _CSV_CHUNK].tolist(), y[i : i + _CSV_CHUNK].tolist())
            out.write("".join(f"{a!r},{b!r}\n" for a, b in rows))


@dataclass(frozen=True)
class _Kind:
    """What a model file of one kind holds beyond the shared knots and
    domain: one parameter ``field`` with ``shape`` per segment (``noun``
    names its entries), and per-segment boolean ``flags``.  ``takes_depth``:
    whether evaluation accepts a pre-fractal depth.  ``parameters`` reads
    the field's array off a model; ``build`` makes the model from knots,
    that array and the flags."""

    model: type
    field: str
    shape: tuple[int, ...]
    noun: str
    flags: tuple[str, ...]
    takes_depth: bool
    parameters: Callable
    build: Callable


#: The model kinds, by the ``kind`` a model file names.
_KINDS = {
    "fractal": _Kind(
        FifModel, "d", (), "finite numbers", ("clamped", "degenerate"),
        takes_depth=True,
        parameters=lambda model: model.d,
        build=lambda knots, d, flags: build_model(knots, d),
    ),
    "quadratic": _Kind(
        QuadModel, "coefficients", (3,), "finite [k, r, l] rows", ("chord_fallback",),
        takes_depth=False,
        parameters=lambda model: model.coeffs,
        build=lambda knots, coeffs, flags: _quad_model(knots, coeffs, flags["chord_fallback"]),
    ),
}


def _quad_model(knots: Knots, coeffs: np.ndarray, chord_fallback) -> QuadModel:
    """The quadratic model of curvatures ``coeffs[:, 0]``, whose every
    ``[k, r, l]`` row must match its own within a relative 1e-9: r and l
    follow from k and the knots, so a file cannot contradict its curve."""
    model = QuadModel(knots, coeffs[:, 0], chord_fallback)
    if not np.allclose(coeffs, model.coeffs, rtol=1e-9, atol=0.0):
        raise ValueError(
            "model field 'parameters.coefficients' must be the [k, r, l] rows of "
            "quadratics through the knots"
        )
    return model


def model_to_payload(
    model: FifModel | QuadModel,
    *,
    flags: dict | None = None,
    normalization: NormalizationParams | None = None,
    provenance: dict | None = None,
) -> dict:
    """JSON-ready dict for a fitted model (see module docstring for layout).
    A flag the model carries (``chord_fallback``) is read off the model, the
    others (``clamped``, ``degenerate``) from ``flags``; absent ones are all
    False."""
    kind, spec = next((k, s) for k, s in _KINDS.items() if isinstance(model, s.model))
    knots = model.knots
    flags = flags or {}
    default = [False] * knots.n_segments
    parameters = {spec.field: spec.parameters(model).tolist()}
    for name in spec.flags:
        parameters[name] = [bool(v) for v in getattr(model, name, flags.get(name, default))]
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "domain": [knots.a, knots.b],
        "knots": [[float(x), float(y)] for x, y in zip(knots.x, knots.y)],
        "parameters": parameters,
        "normalization": None if normalization is None else asdict(normalization),
        "provenance": provenance
        or {"input_sha256": None, "seed": None, "tool_version": __version__},
    }


def _array_field(
    field: str, value, shape: tuple[int, ...], expected: str, kinds: str = "iuf"
) -> np.ndarray:
    """``value`` as a finite float array of exactly ``shape`` whose entries
    are of the numpy ``kinds`` (default numbers; ``"b"``: JSON booleans); a
    one-line ValueError naming the field otherwise."""
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nested lists
        arr = np.array(None)
    if arr.dtype.kind not in kinds or arr.shape != shape or not np.isfinite(arr).all():
        raise ValueError(f"model field {field!r} must be {expected}")
    return arr.astype(float)


def read_model_file(path) -> dict:
    """Load and validate a model payload: the schema version and kind must be
    known, every field that ``model_from_payload`` reads present, numeric and
    finite, the kind's parameter field one entry per segment, each of its
    flags that is present a list of one JSON boolean per segment, and the
    domain the span of the knots.  The knots themselves, and the quadratic
    coefficients against them, are checked when the model is built."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(payload, dict):
        raise ValueError("model file must hold a JSON object")
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported model schema version {version!r} (expected {SCHEMA_VERSION!r})"
        )
    kind = payload.get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    for key in ("domain", "knots", "parameters"):
        if key not in payload:
            raise ValueError(f"missing model field {key!r}")
    spec = _KINDS[kind]
    params = payload["parameters"]
    if not isinstance(params, dict) or spec.field not in params:
        raise ValueError(f"missing model field 'parameters.{spec.field}'")
    points = payload["knots"]
    n_knots = len(points) if isinstance(points, list) else 0
    knots = _array_field("knots", points, (n_knots, 2), "a list of finite [x, y] pairs")
    domain = _array_field("domain", payload["domain"], (2,), "a finite pair [a, b]")
    n = n_knots - 1
    field = f"parameters.{spec.field}"
    _array_field(field, params[spec.field], (n, *spec.shape), f"a list of {n} {spec.noun}")
    for name in spec.flags:
        if name in params:
            expected = f"a list of {n} booleans"
            _array_field(f"parameters.{name}", params[name], (n,), expected, kinds="b")
    span = knots[[0, -1], 0].tolist()
    if domain.tolist() != span:
        raise ValueError(
            f"model field 'domain' {domain.tolist()} differs from the knot span {span}"
        )
    return payload


def model_from_payload(payload) -> FifModel | QuadModel:
    spec = _KINDS[payload["kind"]]
    knots = Knots.from_points(payload["knots"])
    params = payload["parameters"]
    flags = {name: params.get(name, [False] * knots.n_segments) for name in spec.flags}
    return spec.build(knots, np.asarray(params[spec.field], dtype=float), flags)


def _parse_normalization(path) -> NormalizationParams:
    """The ``{"s1": ..., "s2": ...}`` params file that ``gen`` writes."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    values = [payload.get("s1"), payload.get("s2")] if isinstance(payload, dict) else [None]
    if not all(type(v) in (int, float) and abs(v) <= sys.float_info.max for v in values):
        raise ValueError("normalization params must be a JSON object with finite numbers s1, s2")
    return NormalizationParams(*map(float, values))


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
    sub.add_argument("--window", type=int, help="extrema smoothing window (odd; default 101)")
    sub.add_argument("--prominence", type=float, help="extrema prominence threshold (default 0.05)")


def _extrema_options(args) -> dict:
    """The extrema-only flags given, by name; unset ones keep select_knots' defaults."""
    return {name: value for name in ("n", "window", "prominence") if (value := getattr(args, name)) is not None}


def _resolve_knots(args, series: Series) -> Knots:
    if args.knots_mode == "manual":
        if not args.knots:
            raise UsageError("manual knot mode requires --knots with interior indices")
        if given := list(_extrema_options(args)):
            raise UsageError(f"--{given[0]} applies only to --knots-mode extrema")
        try:
            indices = [int(tok) for tok in args.knots.split(",") if tok.strip()]
        except ValueError:
            raise UsageError(f"--knots must be comma-separated integers, got {args.knots!r}")
        return select_knots(series, "manual", indices=indices)
    if args.knots:
        raise UsageError("--knots conflicts with --knots-mode extrema")
    options = _extrema_options(args)
    if "n" not in options:
        raise UsageError("extrema knot mode requires --n")
    return select_knots(series, "extrema", n_interior=options.pop("n"), **options)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_gen(args) -> int:
    out = Path(args.out)
    if args.kind == "dna":
        if args.input is None:
            raise UsageError("--kind dna requires --input (plain text or FASTA)")
        for flag, value in (("--m", args.m), ("--seed", args.seed)):
            if value is not None:
                raise UsageError(f"{flag} is not meaningful with --kind dna")
        raw = _read(args.input, lambda path: gen_dna_walk(Path(path).read_text(encoding="utf-8")))
    else:
        if args.input is not None:
            raise UsageError(f"--input is not meaningful with --kind {args.kind}")
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
    write_json(params_path, asdict(params))
    print(f"wrote {out} ({normalized.m_count} samples), {raw_path}, {params_path}")
    return 0


def _cmd_fit(args) -> int:
    series = _read(args.series, load_series_csv)
    knots = _resolve_knots(args, series)
    normalization = _read(args.norm_params, _parse_normalization) if args.norm_params else None

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
    sha256 = hashlib.sha256(Path(args.series).read_bytes()).hexdigest()
    provenance = {"input_sha256": sha256, "seed": None, "tool_version": __version__}
    payload = model_to_payload(
        model, flags=flags, normalization=normalization, provenance=provenance
    )
    report_payload = {"kind": payload["kind"], **payload["parameters"], **statistics}
    flagged = [
        f"segment {i}: {kind}" for kind, mask in flags.items() for i in np.nonzero(mask)[0]
    ]

    write_json(args.out_model, payload)
    write_json(args.out_report, report_payload)
    print(f"wrote {args.out_model}, {args.out_report}")
    if flagged and args.strict:
        print("strict mode: fit raised flags -> " + "; ".join(flagged), file=sys.stderr)
        return 1
    return 0


def _cmd_eval(args) -> int:
    if (args.grid is None) == (args.at is None):
        raise UsageError("exactly one of --grid or --at is required")
    if args.grid is not None and args.grid < 2:
        raise UsageError("--grid must be >= 2")
    payload = _read(args.model, read_model_file)
    if args.depth is not None and not _KINDS[payload["kind"]].takes_depth:
        raise UsageError("--depth applies only to fractal models")
    # building checks the knots and the parameter values, so their errors name the file too
    model = _read(args.model, lambda _: model_from_payload(payload))
    if args.grid is not None:
        xs = np.linspace(model.knots.a, model.knots.b, args.grid)
    else:
        xs = _read(args.at, load_series_csv).z
    values = model(xs) if args.depth is None else model(xs, args.depth)
    write_series_csv(args.out, xs, values, header="x,value")
    print(f"wrote {args.out} ({xs.size} points)")
    return 0


def _render_text(rows: list[ComparisonRow]) -> str:
    header = ("dataset", "fractal_rms", "quadratic_rms", "collage_bound", "contraction", "depth")
    table = [header]
    for row in rows:
        name, *numbers, depth = asdict(row).values()
        table.append((name, *(f"{v:.7g}" for v in numbers), str(depth)))
    widths = [max(len(entry[col]) for entry in table) for col in range(len(header))]
    return "\n".join(
        "  ".join(entry[col].ljust(widths[col]) for col in range(len(header))).rstrip()
        for entry in table
    )


def _cmd_compare(args) -> int:
    if args.all_examples:
        for flag, given in [("--series", args.series), ("--knots", args.knots),
                            ("--knots-mode extrema", args.knots_mode == "extrema"),
                            *((f"--{name}", True) for name in _extrema_options(args))]:
            if given:
                raise UsageError(f"--all-examples conflicts with {flag}")
        series, _ = normalize(gen_polynomial(10_000))
        knots = select_knots(series, "manual", indices=[500, 4000, 7500])
        name = "polynomial"
    else:
        if not args.series:
            raise UsageError("compare requires --series or --all-examples")
        series = _read(args.series, load_series_csv)
        knots = _resolve_knots(args, series)
        name = Path(args.series).stem
    rows = [compare(series, knots, name=name, depth=args.depth, d_max=args.d_max)]
    payload = {"rows": [asdict(row) for row in rows]}
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
    depth_help = "fixed pre-fractal depth (default: each point within 1e-9 of the attractor)"
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
    evaluate.add_argument("--depth", type=int, help=depth_help)
    evaluate.add_argument("--out", required=True, help="output curve CSV")
    evaluate.set_defaults(handler=_cmd_eval)

    cmp_parser = commands.add_parser("compare", help="fit both models and tabulate errors")
    cmp_parser.add_argument("--series", help="input series CSV")
    cmp_parser.add_argument("--all-examples", action="store_true", help="run the built-in polynomial pipeline")
    _add_knot_args(cmp_parser)
    cmp_parser.add_argument("--depth", type=int, help=depth_help)
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
