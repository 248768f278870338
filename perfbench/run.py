"""The fractalfit benchmark: one workload, one seed, one closed-loop run.

usage: python3 perfbench/run.py --workload {compare-1m,fit-wide,eval-rough}
                                --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it times the code under ./src, never an
installed copy.  One caller issues one operation at a time and starts the
next when the last has finished, for S seconds.  ``--trace 0`` times
untraced operations and reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced operations and reports the per-layer
metrics.  The last line of standard output is the result as JSON; the line
before it records the machine, the resolved package and every sample.
Inputs and outputs live in perfbench/.work/, which the run empties of its
large files when it ends.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import inputs
import reference
from tracing import Tracer, self_times

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORKLOADS = ("compare-1m", "fit-wide", "eval-rough")
#: Printed numbers carry 7 significant digits.
REL_TOL = 2e-6
#: The repository's own knot-interpolation tolerance (tests/test_ifs_core.py).
KNOT_TOL = 1e-12
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 150
#: Every 250th point of the eval grid, plus the fixed point x*.
PROBE_STEP = 250

SPAN_METRICS = (
    "datasets.load_series_csv",
    "datasets.select_knots",
    "collage_fit.fit_d_discrete",
    "collage_fit.collage_residual",
    "baseline_quadratic.fit_quadratic",
    "baseline_quadratic.evaluate_quad",
    "ifs_core.build_model",
    "ifs_core.evaluate_fif",
    "ifs_core.segment_indices",
    "analysis.rms_error",
)
COUNT_METRICS = (
    ("datasets.load_series_csv.rows", "count"),
    ("datasets.load_series_csv.bytes", "bytes"),
    ("collage_fit.fit_d_discrete.segments", "count"),
    ("collage_fit.fit_d_discrete.clamped", "count"),
    ("collage_fit.fit_d_discrete.degenerate", "count"),
    ("baseline_quadratic.fit_quadratic.segments", "count"),
    ("baseline_quadratic.fit_quadratic.chord_fallback", "count"),
    ("ifs_core.evaluate_fif.depth", "levels"),
    ("ifs_core.evaluate_fif.point_levels", "count"),
    ("cli.output_bytes", "bytes"),
)


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def spawn(argv: list[str], out: Path) -> tuple[float, int, float]:
    """Run a child to completion: wall seconds, exit code, peak RSS in MB."""
    with open(out, "wb") as stdout, open(out.with_suffix(".err"), "wb") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, env=child_env(), cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, usage.ru_maxrss / 1024.0


def import_times(work: Path) -> dict[str, float]:
    """Cumulative import seconds of the CLI (the package included) and of
    datasets in a fresh interpreter, from ``-X importtime``."""
    out = work / "importtime.out"
    _, code, _ = spawn([sys.executable, "-X", "importtime", "-c", "import fractalfit.cli"], out)
    if code != 0:
        raise RuntimeError("importing fractalfit.cli failed")
    cumulative = {}
    for line in out.with_suffix(".err").read_text().splitlines():
        match = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$", line)
        if match:
            cumulative[match[2]] = int(match[1]) / 1e6
    return {
        "cli.import_s": cumulative["fractalfit.cli"],
        "datasets.import_s": cumulative["fractalfit.datasets"],
    }


def rough_probes(rough: dict) -> np.ndarray:
    return np.union1d(np.arange(0, inputs.ROUGH_B + 1, PROBE_STEP), [rough["fixed"]])


def rough_reference(rough: dict, probes: np.ndarray) -> np.ndarray:
    return reference.attractor(rough["kx"], rough["ky"], rough["d"], probes.astype(float))


class Workload:
    """One workload's inputs, operation, set-up probe and output checks."""

    in_process = False

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.rough_path, self.rough = inputs.rough_model(work, seed)

    def attractor_err(self) -> float:
        """Sup-norm error of ``evaluate_fif`` on the rough model at the probes.

        eval-rough reads its own written curve instead; the other workloads
        evaluate no rough model, so they run this probe of the same
        evaluator after their timed operations.
        """
        from fractalfit.ifs_core import Knots, build_model, evaluate_fif

        probes = rough_probes(self.rough)
        model = build_model(Knots(self.rough["kx"], self.rough["ky"]), self.rough["d"])
        got = evaluate_fif(model, probes.astype(float))
        return float(np.max(np.abs(got - rough_reference(self.rough, probes))))


class CliWorkload(Workload):
    def cli(self, argv: list[str], name: str, traced: bool = False) -> tuple[float, int, float, Path]:
        out = self.work / f"{name}.out"
        if traced:
            entry = [str(BENCH / "traced_cli.py"), str(self.work / "trace.npz")]
        else:
            entry = ["-m", "fractalfit.cli"]
        seconds, code, rss = spawn([sys.executable, *entry, *argv], out)
        return seconds, code, rss, out

    def setup_once(self) -> float:
        seconds, code, _, _ = self.cli(self.small_args, "setup")
        if code != 0:
            raise RuntimeError(f"set-up operation exited with {code}")
        return seconds

    def op(self, traced: bool = False) -> dict:
        record = self.work / "trace.npz"
        for path in [*self.outputs, record]:
            path.unlink(missing_ok=True)  # no stale file may stand in for this op's output
        seconds, code, rss, out = self.cli(self.args, "op", traced)
        artifact = out.read_bytes()
        result = {"seconds": seconds, "ok": code == 0, "rss_mb": rss, "output_bytes": len(artifact)}
        for path in self.outputs:
            if path.exists():
                result["output_bytes"] += path.stat().st_size
                artifact += hashlib.sha256(path.read_bytes()).digest()
        result["artifact"] = hashlib.sha256(artifact).hexdigest()
        if traced:
            if not record.exists():
                raise RuntimeError(f"the traced operation exited with {code} and left no record")
            with np.load(record) as npz:
                record = json.loads(npz["record"].item())
                record["evals"] = [
                    tuple(npz[f"{key}{i}"] for key in ("kx", "ky", "d", "x")) + (int(npz[f"depth{i}"]),)
                    for i in range(record["evals"])
                ]
            result["trace"] = record
        return result


class Compare1m(CliWorkload):
    def __init__(self, work: Path, seed: int):
        super().__init__(work, seed)
        csv, small, self.indices, self.z, self.w = inputs.compare_walk(work, seed)
        knots = ",".join(map(str, self.indices))
        self.args = ["compare", "--series", str(csv), "--knots", knots]
        self.small_args = ["compare", "--series", str(small), "--knots", "250,500,750"]
        self.outputs = []

    def check(self) -> tuple[list[str], dict]:
        lines = (self.work / "op.out").read_text().splitlines()
        if len(lines) != 2 or lines[0].split()[:4] != ["dataset", "fractal_rms", "quadratic_rms", "collage_bound"]:
            return [f"unexpected compare output {lines!r}"], {}
        printed = dict(zip(("fractal_rms", "quadratic_rms", "collage_bound"), map(float, lines[1].split()[1:4])))
        full = np.concatenate(([0], np.asarray(self.indices) - 1, [self.z.size - 1]))
        return compare_row(printed, reference.expected_row(self.z, self.w, self.z[full], self.w[full]))


class EvalRough(CliWorkload):
    GRID = inputs.ROUGH_B + 1

    def __init__(self, work: Path, seed: int):
        super().__init__(work, seed)
        self.curve = work / "curve.csv"
        self.args = ["eval", "--model", str(self.rough_path), "--grid", str(self.GRID), "--out", str(self.curve)]
        self.small_args = ["eval", "--model", str(self.rough_path), "--grid", "1001", "--out", str(work / "curve_small.csv")]
        self.outputs = [self.curve]

    def check(self) -> tuple[list[str], dict]:
        if not self.curve.exists():
            return ["no curve CSV was written"], {}
        rows = self.curve.read_text().split("\n")
        if rows[0] != "x,value" or len(rows) != self.GRID + 2 or rows[-1] != "":
            return ["curve CSV is not a header and 1000001 rows"], {}

        def values(xs):
            # the grid is the integers 0..ROUGH_B, so row x + 1 holds x
            cells = [rows[int(x) + 1].split(",") for x in xs]
            if any(float(c[0]) != x for c, x in zip(cells, xs)):
                raise ValueError("curve abscissae are not the grid")
            return np.array([float(c[1]) for c in cells])

        try:
            knot_err = np.abs(values(self.rough["kx"]) - self.rough["ky"])
            probes = rough_probes(self.rough)
            err = float(np.max(np.abs(values(probes) - rough_reference(self.rough, probes))))
        except ValueError as exc:
            return [str(exc)], {}
        problems = []
        if np.any(knot_err > KNOT_TOL * (1.0 + np.abs(self.rough["ky"]))):
            problems.append(f"knots missed by up to {knot_err.max():.3g}")
        return problems, {"attractor_err": err, "knot_max_err": float(knot_err.max())}


#: At the default prominence of 0.05 a normalized 10^6-sample walk has 370
#: to over 1023 extrema, depending on the seed; at 0.01 every seed has more
#: than 1023, so every operation fits 1024 segments.
PROMINENCE = 0.01

FIT_WIDE_SETUP = """\
import sys
import numpy as np
from fractalfit.collage_fit import Series
from fractalfit.datasets import select_knots
from fractalfit.analysis import compare
series = Series(*np.load(sys.argv[1]))
print(compare(series, select_knots(series, "extrema", n_interior=15, window=21)))
"""


class FitWide(Workload):
    in_process = True
    N_INTERIOR = 1023

    def __init__(self, work: Path, seed: int):
        super().__init__(work, seed)
        self.z, self.w, self.small = inputs.wide_walk(work, seed)
        from fractalfit import analysis, collage_fit, datasets

        self.analysis, self.datasets = analysis, datasets
        self.series = collage_fit.Series(self.z, self.w)
        self.last = None
        # warm up: first calls in a process pay one-off costs that set-up counts
        small = collage_fit.Series(*np.load(self.small))
        analysis.compare(small, datasets.select_knots(small, "extrema", n_interior=15, window=21))

    def setup_once(self) -> float:
        seconds, code, _ = spawn([sys.executable, "-c", FIT_WIDE_SETUP, str(self.small)], self.work / "setup.out")
        if code != 0:
            raise RuntimeError(f"set-up operation exited with {code}")
        return seconds

    def op(self) -> dict:
        start = time.perf_counter()
        knots = self.datasets.select_knots(
            self.series, "extrema", n_interior=self.N_INTERIOR, prominence=PROMINENCE
        )
        row = self.analysis.compare(self.series, knots)
        seconds = time.perf_counter() - start
        self.last = knots, row
        digest = hashlib.sha256(knots.x.tobytes() + knots.y.tobytes() + repr(row).encode())
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return {"seconds": seconds, "ok": True, "rss_mb": rss, "output_bytes": 0, "artifact": digest.hexdigest()}

    def check(self) -> tuple[list[str], dict]:
        knots, row = self.last
        if knots.n_segments != self.N_INTERIOR + 1:
            return [f"{knots.n_segments - 1} interior knots, not {self.N_INTERIOR}"], {}
        printed = {k: getattr(row, k) for k in ("fractal_rms", "quadratic_rms", "collage_bound")}
        try:
            expected = reference.expected_row(self.z, self.w, knots.x, knots.y)
        except ValueError as exc:
            return [str(exc)], {}
        return compare_row(printed, expected)


def compare_row(printed: dict, expected: dict) -> tuple[list[str], dict]:
    problems = [
        f"{key} {printed[key]!r} differs from {expected[key]!r}"
        for key in printed
        if abs(printed[key] - expected[key]) > REL_TOL * abs(expected[key])
    ]
    if expected["clamped"] == 0 and printed["collage_bound"] < printed["fractal_rms"]:
        problems.append("collage_bound < fractal_rms with no segment clamped")
    return problems, {"clamped": expected["clamped"]}


def needed_share(evals: list) -> tuple[int, int, float]:
    """Deepest depth, point-levels, and share of point-levels still needed
    at 1e-9, over the evaluate_fif calls of one operation."""
    point_levels = sum(x.size * depth for _, _, _, x, depth in evals)
    needed = sum(reference.needed_levels(kx, ky, d, x, depth) for kx, ky, d, x, depth in evals)
    depth = max((e[4] for e in evals), default=0)
    return depth, point_levels, needed / point_levels if point_levels else 0.0


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((ln.split(":", 1)[1].strip() for ln in info if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Measure in a scratch directory, then keep only the record of the run:
    the printed lines plus every span, in perfbench/.work/."""
    sys.path.insert(0, str(SRC))
    origin = importlib.util.find_spec("fractalfit").origin
    if not Path(origin).is_relative_to(SRC):
        raise RuntimeError(f"fractalfit resolves to {origin}, outside {SRC}")
    info = {"workload": workload, "seed": seed, "trace": int(trace), "fractalfit": origin, **machine()}
    name = f"{workload}-{seed}-{int(trace)}"
    work = BENCH / ".work" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        info, result, spans = measure(workload, seed, seconds, trace, work, info)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record = {"info": info, "result": result, "spans": spans}
    (BENCH / ".work" / f"{name}.json").write_text(json.dumps(record), encoding="utf-8")
    return info, result


def traced_op(bench: Workload, tracer: Tracer, index: int) -> dict:
    """One operation with spans: in this process, or in a traced CLI child."""
    if bench.in_process:
        tracer.op = index
        tracer.install()
        try:
            result = bench.op()
        finally:
            tracer.uninstall()
        counts, evals = tracer.records(index)
        result["trace"] = {"counts": counts, "evals": evals}
        result["self"] = self_times(tracer.spans, index)
    else:
        result = bench.op(traced=True)
        result["self"] = self_times(result["trace"]["spans"], 0)
        tracer.spans += [span[:4] + [index] for span in result["trace"]["spans"]]
    return result


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path, info: dict) -> tuple[dict, dict, list]:
    bench = {"compare-1m": Compare1m, "fit-wide": FitWide, "eval-rough": EvalRough}[workload](work, seed)
    # Set-up is probed at the start, the middle and the end of the run, so
    # that it sees the same drift in machine speed as the operations do.
    setup = [bench.setup_once()]
    imports = import_times(work) if trace else {}
    tracer = Tracer()

    # Operations run back to back until the next one, at the median length
    # so far, would end past ``seconds`` of operation time.
    ops, traced_ops, problems, details = [], [], [], {}
    while True:
        if trace and len(traced_ops) < len(ops):
            traced_ops.append(traced_op(bench, tracer, len(traced_ops)))
        else:
            ops.append(bench.op())
        if len(ops) + len(traced_ops) == 1:
            problems, details = bench.check()
            if not ops[0]["ok"]:
                problems.append("the first operation exited with an error")
        times = [op["seconds"] for op in ops + traced_ops]
        if len(setup) == 1 and sum(times) >= seconds / 2:
            setup.append(bench.setup_once())
        if (traced_ops or not trace) and sum(times) + statistics.median(times) > seconds:
            break
    while len(setup) < SETUP_REPEATS:
        setup.append(bench.setup_once())

    every = ops + traced_ops
    failed = sum(1 for op in every if not op["ok"] or op["artifact"] != every[0]["artifact"] or problems)
    info.update(
        failed_ratio=failed / len(every),
        problems=problems,
        details=details,
        samples={
            "wall_s": [op["seconds"] for op in ops],
            "traced_s": [op["seconds"] for op in traced_ops],
            "setup_s": setup,
        },
    )
    info["wall_s_samples"] = len(ops)
    result = {"correct": failed == 0 and not problems, "attempted": len(every), "failed": failed}

    def metric(value, unit):
        return {"value": value, "unit": unit}

    wall = statistics.median(op["seconds"] for op in ops)
    if not trace:
        err = details["attractor_err"] if "attractor_err" in details else bench.attractor_err()
        result["metrics"] = {
            "wall_s": metric(wall, "s"),
            "setup_s": metric(statistics.median(setup), "s"),
            "peak_rss_mb": metric(statistics.median(op["rss_mb"] for op in ops), "MB"),
            "attractor_err": metric(err, "ordinate"),
            "ok_ratio": metric(1.0 - failed / len(every), "ratio"),
        }
        return info, result, []

    selfs = [op["self"] for op in traced_ops]

    def self_s(names):
        return statistics.median(sum(t for n, t in s.items() if n in names) for s in selfs)

    every_name = {n for s in selfs for n in s}
    cli_names = {n for n in every_name if n.startswith("cli.")}
    metrics = {f"{name}.self_s": metric(self_s({name}), "s") for name in SPAN_METRICS}
    metrics["cli.self_s"] = metric(self_s(cli_names), "s")
    metrics["trace.other_self_s"] = metric(self_s(every_name - cli_names - set(SPAN_METRICS)), "s")
    last = traced_ops[-1]["trace"]
    if any(op["trace"]["counts"] != last["counts"] for op in traced_ops):
        problems.append("counts differ between traced operations")
    counts = dict(last["counts"], **{"cli.output_bytes": traced_ops[-1]["output_bytes"]})
    depth, point_levels, share = needed_share(last["evals"])
    counts.update({"ifs_core.evaluate_fif.depth": depth, "ifs_core.evaluate_fif.point_levels": point_levels})
    for name, unit in COUNT_METRICS:
        metrics[name] = metric(counts.get(name, 0), unit)
    metrics["ifs_core.evaluate_fif.needed_level_share"] = metric(share, "ratio")
    for name, value in imports.items():
        metrics[name] = metric(value, "s")
    traced = statistics.median(op["seconds"] for op in traced_ops)
    import_s = 0.0 if bench.in_process else imports["cli.import_s"]
    metrics["trace.untraced_wall_s"] = metric(wall, "s")
    metrics["trace.traced_wall_s"] = metric(traced, "s")
    metrics["trace.overhead_s"] = metric(traced - wall, "s")
    metrics["trace.unexplained_s"] = metric(wall - import_s - self_s(every_name), "s")
    result["correct"] = result["correct"] and not problems
    result["metrics"] = metrics
    return info, result, tracer.spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fractalfit" / "cli.py").is_file():
        print(f"no fractalfit sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    info, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
