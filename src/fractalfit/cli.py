"""Command-line interface: reproducible generate / fit / eval / compare runs.

All artifacts are plain files: series and curves as CSV, models and reports
as JSON.  Model files carry a schema version, the knots, exactly the model's
own per-segment parameters, the normalization constants (when known), and
provenance: the SHA-256 of the input series and the tool version.  Every
command is deterministic given its flags and inputs; floats are serialized
via repr, so equal runs give byte-identical files, and a number that is not
finite is an error, never a JSON ``Infinity`` or ``NaN``.

Exit codes: 0 success, 1 data, numeric or allocation error, 2 usage error.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import ComparisonRow, compare
from .baseline_quadratic import QuadModel, fit_quadratic
from .collage_fit import D_MAX_DEFAULT, fit_d_discrete
from .datasets import (
    NormalizationParams,
    _read_columns,
    gen_dna_walk,
    gen_polynomial,
    gen_random_walk,
    load_series_csv,
    normalize,
    select_knots,
)
from .ifs_core import FifModel, Knots, Series, _domain_points, build_model

SCHEMA_VERSION = "3"

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
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_json(path, payload) -> None:
    Path(path).write_text(_json_text(payload), encoding="utf-8")


#: Rows formatted and written at a time, so a long curve never sits in
#: memory as text all at once: with worker processes, at most two slices per
#: worker are in flight between the parent and the file.
_CSV_CHUNK = 1 << 16


def write_series_csv(path, x, y, header: str = "z,w") -> None:
    """Two-column CSV: the header line, then one ``x,y`` row of repr floats
    per sample."""
    _write_rows(path, x, lambda rows: y[rows], header)


def _format_rows(x, y) -> str:
    """The ``x,y`` rows of one slice, each ending in a newline."""
    return "".join(f"{a!r},{b!r}\n" for a, b in zip(x.tolist(), y.tolist()))


def _write_rows(path, x, values, header: str) -> None:
    """``write_series_csv(path, x, y, header)`` where ``values(rows)`` is
    ``y[rows]`` for each slice ``rows`` of ``_CSV_CHUNK`` rows, called in
    order.  With more than one slice and more than one usable CPU, worker
    processes format the slices while the parent computes the next ones'
    values; the bytes are the same.  A failure after the file is opened
    removes it, so no partial file is left."""
    path = Path(path)
    slices = [slice(i, i + _CSV_CHUNK) for i in range(0, len(x), _CSV_CHUNK)]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, len(slices))
    out = path.open("w", encoding="utf-8")
    try:
        with out:
            out.write(header + "\n")
            if workers > 1:
                _write_pooled(out, x, values, slices, workers)
            else:
                for rows in slices:
                    out.write(_format_rows(x[rows], values(rows)))
    except BaseException:
        if path.is_file() and not path.is_symlink():  # never /dev/stdout and the like
            path.unlink()
        raise


def _write_pooled(out, x, values, slices, workers: int) -> None:
    """The rows of ``slices``, formatted by ``workers`` forked processes and
    written in order.  Fork, not spawn: a worker starts with the loaded
    modules instead of importing numpy again."""
    # imported here, so only a pooled write pays their 22 ms import
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    pending = collections.deque()
    try:
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
            for rows in slices:
                pending.append(pool.submit(_format_rows, x[rows], values(rows)))
                if len(pending) == 2 * workers:
                    out.write(pending.popleft().result())
            while pending:
                out.write(pending.popleft().result())
    except BrokenProcessPool as exc:
        raise ChildProcessError(f"a CSV formatting process died: {exc}") from exc


@dataclass(frozen=True)
class _Kind:
    """What a model file of one kind holds beyond the shared knots: the
    model attributes ``field``, one number per segment, and ``flags``, one
    boolean per segment each.  The model is ``model(knots, field, *flags)``.
    ``takes_depth``: whether evaluation accepts a pre-fractal depth."""

    model: type
    field: str
    flags: tuple[str, ...]
    takes_depth: bool


#: The model kinds, by the ``kind`` a model file names.
_KINDS = {
    "fractal": _Kind(FifModel, "d", (), takes_depth=True),
    "quadratic": _Kind(QuadModel, "curvature", ("chord_fallback",), takes_depth=False),
}


def model_to_payload(
    model: FifModel | QuadModel,
    *,
    normalization: NormalizationParams | None = None,
    provenance: dict | None = None,
) -> dict:
    """JSON-ready dict for a fitted model (see module docstring for layout);
    every parameter is read off the model."""
    kind, spec = next((k, s) for k, s in _KINDS.items() if isinstance(model, s.model))
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "knots": [[float(x), float(y)] for x, y in zip(model.knots.x, model.knots.y)],
        "parameters": {name: getattr(model, name).tolist() for name in (spec.field, *spec.flags)},
        "normalization": None if normalization is None else asdict(normalization),
        "provenance": provenance or {"input_sha256": None, "tool_version": __version__},
    }


def _array_field(field: str, value, shape: tuple[int, ...], expected: str,
                 kinds: str = "iuf") -> None:
    """Check that ``value`` is a finite array of exactly ``shape`` whose
    entries are of the numpy ``kinds`` (default numbers, not booleans;
    ``"b"``: JSON booleans); a one-line ValueError naming the field if not."""
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nested lists
        arr = np.array(None)
    if arr.dtype.kind not in kinds or arr.shape != shape or not np.isfinite(arr).all() or (
        # numpy reads a JSON boolean among numbers as a number
        arr.dtype.kind != "b" and bool in map(type, np.array(value, dtype=object).flat)
    ):
        raise ValueError(f"model field {field!r} must be {expected}")


def read_model_file(path) -> dict:
    """Load and validate a model payload: the schema version and kind must be
    known, every field that ``model_from_payload`` reads present, numeric and
    finite, the kind's parameter field one number per segment, and each of
    its flags that is present a list of one JSON boolean per segment.  The
    knots themselves are checked when the model is built.  Version "1" and
    "2" files are read as well; their ``domain`` and fractal ``clamped`` and
    ``degenerate`` lists are not read, and version "1" quadratic files hold
    [k, r, l] rows, which are not read either, so they lack ``curvature``."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(payload, dict):
        raise ValueError("model file must hold a JSON object")
    version = payload.get("schema_version")
    if version not in ("1", "2", SCHEMA_VERSION):
        raise ValueError(
            f"unsupported model schema version {version!r} (expected {SCHEMA_VERSION!r}, '2' or '1')"
        )
    kind = payload.get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    for key in ("knots", "parameters"):
        if key not in payload:
            raise ValueError(f"missing model field {key!r}")
    spec = _KINDS[kind]
    params = payload["parameters"]
    if not isinstance(params, dict) or spec.field not in params:
        raise ValueError(f"missing model field 'parameters.{spec.field}'")
    points = payload["knots"]
    n_knots = len(points) if isinstance(points, list) else 0
    _array_field("knots", points, (n_knots, 2), "a list of finite [x, y] pairs")
    n = n_knots - 1
    field = f"parameters.{spec.field}"
    _array_field(field, params[spec.field], (n,), f"a list of {n} finite numbers")
    for name in spec.flags:
        if name in params:
            expected = f"a list of {n} booleans"
            _array_field(f"parameters.{name}", params[name], (n,), expected, kinds="b")
    return payload


def model_from_payload(payload) -> FifModel | QuadModel:
    spec = _KINDS[payload["kind"]]
    knots = Knots.from_points(payload["knots"])
    params = payload["parameters"]
    flags = [params.get(name, [False] * knots.n_segments) for name in spec.flags]
    return spec.model(knots, params[spec.field], *flags)


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
    if args.method == "quadratic" and args.d_max is not None:
        raise UsageError("--d-max applies only to --method fractal")
    raw = Path(args.series).read_bytes()  # read once: parsed, then hashed for the provenance
    series = _read(args.series, lambda path: Series(*_read_columns(path, 2, raw)))
    knots = _resolve_knots(args, series)
    normalization = _read(args.norm_params, _parse_normalization) if args.norm_params else None

    if args.method == "fractal":
        report = fit_d_discrete(series, knots, D_MAX_DEFAULT if args.d_max is None else args.d_max)
        model = build_model(knots, report.d)
        flags = {"clamped": report.clamped.tolist(), "degenerate": report.degenerate.tolist()}
        statistics = {
            "collage_rss": report.collage_rss,
            "contraction_factor": report.contraction_factor,
            "collage_bound": report.collage_bound,
        }
    else:
        model = fit_quadratic(series, knots)
        flags = {"chord_fallback": model.chord_fallback.tolist()}
        with np.errstate(over="ignore"):
            statistics = {"residual_rss": float(np.sum((model(series.z) - series.w) ** 2))}
    if bad := [f"{name} = {value}" for name, value in statistics.items() if not np.isfinite(value)]:
        raise ValueError(f"{bad[0]} is not finite")
    provenance = {"input_sha256": hashlib.sha256(raw).hexdigest(), "tool_version": __version__}
    payload = model_to_payload(model, normalization=normalization, provenance=provenance)
    report_payload = {"kind": payload["kind"], **payload["parameters"], **flags, **statistics}
    flagged = [f"segment {i}: {name.replace('_', ' ')}"
               for name, mask in flags.items() for i in np.flatnonzero(mask)]

    # both rendered before either is written: a number JSON cannot hold leaves no file
    texts = [_json_text(payload), _json_text(report_payload)]
    for path, text in zip((args.out_model, args.out_report), texts):
        Path(path).write_text(text, encoding="utf-8")
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
        xs = _read(args.at, lambda path: _read_columns(path, 1)[0])
    depth = () if args.depth is None else (args.depth,)
    # before the file opens, the refusals no point causes (a depth over
    # MAX_LEVELS or below 0), then any point outside the domain
    model(xs[:0], *depth)
    _domain_points(model.knots, xs)
    # each slice is evaluated as it is written, so the evaluation overlaps
    # its formatting; the values are elementwise, the same as in one call
    _write_rows(args.out, xs, lambda rows: model(xs[rows], *depth), "x,value")
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
    d_max = D_MAX_DEFAULT if args.d_max is None else args.d_max
    rows = [compare(series, knots, name=name, depth=args.depth, d_max=d_max)]
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
    d_max_help = f"clamp for |d_i| of the fractal fit (default {D_MAX_DEFAULT})"
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
    fit.add_argument("--d-max", type=float, help=d_max_help)
    fit.add_argument("--strict", action="store_true", help="exit 1 if any segment was flagged")
    fit.add_argument("--norm-params", help="params JSON from gen, embedded as provenance")
    fit.add_argument("--out-model", required=True, help="output model JSON")
    fit.add_argument("--out-report", required=True, help="output fit report JSON")
    fit.set_defaults(handler=_cmd_fit)

    evaluate = commands.add_parser("eval", help="evaluate a model file to a curve CSV")
    evaluate.add_argument("--model", required=True, help="model JSON from fit")
    evaluate.add_argument("--grid", type=int, help="uniform grid resolution over the knot span")
    evaluate.add_argument("--at", help="CSV of query points in any order (first column, or 1..M)")
    evaluate.add_argument("--depth", type=int, help=depth_help)
    evaluate.add_argument("--out", required=True, help="output curve CSV")
    evaluate.set_defaults(handler=_cmd_eval)

    cmp_parser = commands.add_parser("compare", help="fit both models and tabulate errors")
    cmp_parser.add_argument("--series", help="input series CSV")
    cmp_parser.add_argument("--all-examples", action="store_true", help="run the built-in polynomial pipeline")
    _add_knot_args(cmp_parser)
    cmp_parser.add_argument("--depth", type=int, help=depth_help)
    cmp_parser.add_argument("--d-max", type=float, help=d_max_help)
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
    except (ValueError, OSError, MemoryError) as exc:
        # a bare MemoryError has no message
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
