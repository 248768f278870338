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
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import compare
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
from .ifs_core import FifModel, Knots, Series, _blocks, _domain_points, _rss, build_model

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
    """``parse(path)``: the one boundary every input file passes through, and
    the one place a message names a file.  A ValueError it raises, or the
    RecursionError of too deeply nested JSON, becomes ``{path}: {message}``."""
    try:
        return parse(path)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# serialization helpers

def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _check_finite(values: dict) -> None:
    """A one-line ValueError naming the first float of ``values`` that is not
    finite, a number no JSON artifact can hold."""
    if bad := [f"{k} = {v}" for k, v in values.items() if isinstance(v, float) and not np.isfinite(v)]:
        raise ValueError(f"{bad[0]} is not finite")


def write_json(path, payload) -> None:
    _write_files((path, _json_text(payload)))


def write_series_csv(path, x, y, header: str = "z,w") -> None:
    """Two-column CSV: the header line, then one ``x,y`` row of repr floats
    per sample."""
    _write_files((path, _csv(x, y, header)))


def _csv(x, y, header: str = "z,w"):
    return lambda out: _write_rows(out, x, lambda rows: y[rows], header)


def _write_files(*files) -> None:
    """Each ``(path, text)`` of ``files`` in order: the file opened, ``text``
    written (or ``text(file)`` called), the file closed.  A failure removes
    each regular file opened so far, never ``/dev/stdout`` and the like: a
    failed command leaves none of its files."""
    opened = []
    try:
        for path, text in files:
            with open(path, "w", encoding="utf-8") as out:
                opened.append(Path(path))
                out.write(text) if isinstance(text, str) else text(out)
    except BaseException:
        for path in opened:
            if path.is_file() and not path.is_symlink():
                path.unlink()
        raise


def _format_rows(x, y) -> str:
    """The ``x,y`` rows of one slice, each ending in a newline."""
    return "".join(f"{a!r},{b!r}\n" for a, b in zip(x.tolist(), y.tolist()))


def _write_rows(out, x, values, header: str) -> None:
    """``write_series_csv``'s lines to the open file ``out``, where
    ``values(rows)`` is ``y[rows]`` for each slice ``rows`` of
    :func:`~fractalfit.ifs_core._blocks`, called in order, so a long curve
    never sits in memory as text all at once.  With more than one slice and
    more than one usable CPU, worker processes format the slices while the
    parent computes the next ones' values, with at most two slices per
    worker in flight; the bytes are the same."""
    slices = _blocks(len(x))
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, len(slices))
    out.write(header + "\n")
    if workers > 1:
        _write_pooled(out, x, values, slices, workers)
    else:
        for rows in slices:
            out.write(_format_rows(x[rows], values(rows)))


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


#: The model classes, by the ``kind`` a model file names.  A file's
#: parameters are the class's fields after ``knots``: the first one number
#: per segment, each other one boolean per segment.
_KINDS = {"fractal": FifModel, "quadratic": QuadModel}


def model_to_payload(
    model: FifModel | QuadModel,
    *,
    normalization: NormalizationParams | None = None,
    provenance: dict | None = None,
) -> dict:
    """JSON-ready dict for a fitted model (see module docstring for layout);
    every parameter is read off the model."""
    kind = next(k for k, cls in _KINDS.items() if isinstance(model, cls))
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "knots": [[float(x), float(y)] for x, y in zip(model.knots.x, model.knots.y)],
        "parameters": {f.name: getattr(model, f.name).tolist() for f in fields(model)[1:]},
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
    finite, the kind's first parameter one number per segment, and each
    other one that is present a list of one JSON boolean per segment.  The
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
    field, *flags = (f.name for f in fields(_KINDS[kind])[1:])
    params = payload["parameters"]
    if not isinstance(params, dict) or field not in params:
        raise ValueError(f"missing model field 'parameters.{field}'")
    points = payload["knots"]
    n_knots = len(points) if isinstance(points, list) else 0
    _array_field("knots", points, (n_knots, 2), "a list of finite [x, y] pairs")
    n = n_knots - 1
    _array_field(f"parameters.{field}", params[field], (n,), f"a list of {n} finite numbers")
    for name in flags:
        if name in params:
            expected = f"a list of {n} booleans"
            _array_field(f"parameters.{name}", params[name], (n,), expected, kinds="b")
    return payload


def model_from_payload(payload) -> FifModel | QuadModel:
    model_class = _KINDS[payload["kind"]]
    field, *flags = (f.name for f in fields(model_class)[1:])
    knots = Knots.from_points(payload["knots"])
    params = payload["parameters"]
    return model_class(knots, params[field], *(params.get(name, [False] * knots.n_segments) for name in flags))


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
    sub.add_argument("--n", type=int, help="without --knots: knots at the N most prominent interior extrema")
    sub.add_argument("--window", type=int, help="extrema smoothing window (odd; default 101)")
    sub.add_argument("--prominence", type=float, help="extrema prominence threshold (default 0.05)")


def _refuse(args, names, reason: str) -> None:
    """A UsageError ``--<name> <reason>`` for the first of the flags ``names``
    given: its value is not None, so ``--n 0`` and ``--knots ""`` count."""
    for name in names:
        if getattr(args, name.replace("-", "_")) is not None:
            raise UsageError(f"--{name} {reason}")


def _knot_selection(args) -> dict:
    """``select_knots``' keyword arguments, from the knot flags alone: ``--knots``
    picks samples by index, else ``--n`` picks the most prominent extrema."""
    if args.knots is not None:
        _refuse(args, ("n", "window", "prominence"), "conflicts with --knots")
        try:
            indices = [int(tok) for tok in args.knots.split(",") if tok.strip()]
        except ValueError:
            indices = []
        if not indices:
            raise UsageError(f"--knots must be one or more comma-separated integers, got {args.knots!r}")
        return {"mode": "manual", "indices": indices}
    if args.n is None:
        raise UsageError("--knots or --n is required")
    # unset ones keep select_knots' defaults
    options = {name: value for name in ("window", "prominence") if (value := getattr(args, name)) is not None}
    return {"mode": "extrema", "n_interior": args.n, **options}


# ---------------------------------------------------------------------------
# subcommands

def _cmd_gen(args) -> int:
    out = Path(args.out)
    unused = {"dna": ("m", "seed"), "polynomial": ("input", "seed"), "random-walk": ("input",)}
    _refuse(args, unused[args.kind], f"is not meaningful with --kind {args.kind}")
    if args.kind == "dna":
        if args.input is None:
            raise UsageError("--kind dna requires --input (plain text or FASTA)")
        raw = _read(args.input, lambda path: gen_dna_walk(Path(path).read_text(encoding="utf-8")))
    elif args.m is None:
        raise UsageError(f"--kind {args.kind} requires --m")
    elif args.kind == "polynomial":
        raw = gen_polynomial(args.m)
    else:
        raw = gen_random_walk(args.m, args.seed if args.seed is not None else 0)

    normalized, params = normalize(raw)
    raw_path = out.with_name(out.stem + ".raw.csv")
    params_path = out.with_name(out.stem + ".params.json")
    _write_files((out, _csv(normalized.z, normalized.w)), (raw_path, _csv(raw.z, raw.w)),
                 (params_path, _json_text(asdict(params))))
    print(f"wrote {out} ({normalized.m_count} samples), {raw_path}, {params_path}")
    return 0


def _cmd_fit(args) -> int:
    if args.method == "quadratic":
        _refuse(args, ("d-max",), "applies only to --method fractal")
    selection = _knot_selection(args)
    raw = Path(args.series).read_bytes()  # parsed (numpy rereads a regular file), then hashed
    series = _read(args.series, lambda path: Series(*_read_columns(path, raw)))
    knots = select_knots(series, **selection)
    normalization = _read(args.norm_params, _parse_normalization) if args.norm_params else None

    if args.method == "fractal":
        result = fit_d_discrete(series, knots, D_MAX_DEFAULT if args.d_max is None else args.d_max)
        model, residual = build_model(knots, result.d), {}
    else:
        model = result = fit_quadratic(series, knots)
        with np.errstate(over="ignore"):
            residual = {"residual_rss": _rss(series.w, lambda r: model(series.z[r]))}
    provenance = {"input_sha256": hashlib.sha256(raw).hexdigest(), "tool_version": __version__}
    payload = model_to_payload(model, normalization=normalization, provenance=provenance)
    # the report is the fit result's own fields, bar the knots
    report = {"kind": payload["kind"], **{f.name: np.asarray(getattr(result, f.name)).tolist()
                                          for f in fields(result) if f.name != "knots"}, **residual}
    _check_finite(report)
    flagged = [f"segment {i}: {name.replace('_', ' ')}" for name, value in report.items()
               if np.asarray(value).dtype == bool for i in np.flatnonzero(value)]
    _write_files((args.out_model, _json_text(payload)), (args.out_report, _json_text(report)))
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
    # reading and building check the file in one pass, so each error names it
    model = _read(args.model, lambda path: model_from_payload(read_model_file(path)))
    if not isinstance(model, FifModel):
        _refuse(args, ("depth",), "applies only to fractal models")
    if args.grid is not None:
        xs = np.linspace(model.knots.a, model.knots.b, args.grid)
    else:
        xs = _read(args.at, lambda path: _read_columns(path)[0])
    depth = () if args.depth is None else (args.depth,)
    # before the file opens, the refusals no point causes (a default depth
    # over MAX_LEVELS, or a depth below 0), then any point outside the domain
    model(xs[:0], *depth)
    _domain_points(model.knots, xs)
    # each slice is evaluated as it is written, so the evaluation overlaps
    # its formatting; the values are elementwise, the same as in one call
    _write_files((args.out, lambda out: _write_rows(out, xs, lambda rows: model(xs[rows], *depth), "x,value")))
    print(f"wrote {args.out} ({xs.size} points)")
    return 0


def _render_text(rows: list[dict]) -> str:
    header = ("dataset", "fractal_rms", "quadratic_rms", "collage_bound", "contraction", "depth")
    table = [header]
    for row in rows:
        name, *numbers, depth = row.values()
        table.append((name, *(f"{v:.7g}" for v in numbers), str(depth)))
    widths = [max(len(entry[col]) for entry in table) for col in range(len(header))]
    return "\n".join(
        "  ".join(entry[col].ljust(widths[col]) for col in range(len(header))).rstrip()
        for entry in table
    )


def _cmd_compare(args) -> int:
    if args.all_examples:
        _refuse(args, ("series", "knots", "n", "window", "prominence"), "conflicts with --all-examples")
        series, _ = normalize(gen_polynomial(10_000))
        knots = select_knots(series, "manual", indices=[500, 4000, 7500])
        name = "polynomial"
    else:
        if not args.series:
            raise UsageError("compare requires --series or --all-examples")
        selection = _knot_selection(args)
        series = _read(args.series, load_series_csv)
        knots = select_knots(series, **selection)
        name = Path(args.series).stem
    d_max = D_MAX_DEFAULT if args.d_max is None else args.d_max
    row = asdict(compare(series, knots, name=name, depth=args.depth, d_max=d_max))
    payload = {"rows": [row]}
    if args.format == "json" or args.out:
        _check_finite(row)
    if args.format == "json":
        print(_json_text(payload), end="")
    else:
        print(_render_text(payload["rows"]))
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
