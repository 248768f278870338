"""Run the fractalfit CLI once with every public call traced.

usage: python3 perfbench/traced_cli.py RECORD.npz CLI-ARGUMENT...

Exits with the CLI's own code.  RECORD.npz holds the spans and counts as
JSON under ``record`` and the points of each evaluate_fif call as arrays.
"""

import json
import sys

import numpy as np

from tracing import Tracer

import fractalfit.cli


def main() -> int:
    record_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return fractalfit.cli.main(argv)
    finally:
        tracer.uninstall()
        save(tracer, record_path)


def save(tracer: Tracer, record_path: str) -> None:
    counts, evals = tracer.records(0)
    arrays = {}
    for i, (kx, ky, d, points, depth) in enumerate(evals):
        arrays.update({f"kx{i}": kx, f"ky{i}": ky, f"d{i}": d, f"x{i}": points, f"depth{i}": depth})
    record = {"spans": tracer.spans, "counts": counts, "evals": len(evals)}
    np.savez(record_path, record=np.array(json.dumps(record)), **arrays)


if __name__ == "__main__":
    sys.exit(main())
