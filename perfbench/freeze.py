"""Freeze the behaviour reference of one or more benchmark workloads.

    python3 perfbench/freeze.py --workload gaussian-full

runs every round of every input set through the same path the benchmark
times and stores each replication's (v, r, tp, converged) in
perfbench/reference/<workload>.json.  A change that alters selections on
purpose re-freezes here, in a change of its own to the benchmark.
"""

import envinfo

envinfo.pin_threads()

import argparse
import json
import sys
from pathlib import Path

import bench

ROOT = Path(__file__).resolve().parent.parent


def freeze(workload):
    simlab, resolved, _ = bench.setup(workload)
    outcomes = {}
    for s in range(bench.SETS):
        units, _ = bench.run_rounds(workload, simlab, resolved, s, rounds=workload.rounds)
        table = [[None] * len(workload.cells) for _ in range(workload.rounds)]
        for j, ci, rows, error in units:
            if rows is None:
                raise RuntimeError(f"set {s} round {j} cell {ci} raised: {error}")
            table[j][ci] = [list(r) for r in rows]
        outcomes[str(s)] = table
        print(f"{workload.name}: set {s} frozen", file=sys.stderr)
    return {
        "workload": workload.name,
        "cells": workload.definition(),
        "sets": bench.SETS,
        "rounds": workload.rounds,
        "source_sha256": envinfo.source_digest(ROOT),
        "outcomes": outcomes,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=sorted(bench.WORKLOADS),
                    help="repeatable; default: every workload")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    for name in args.workload or sorted(bench.WORKLOADS):
        workload = bench.WORKLOADS[name]
        doc = freeze(workload)
        path = bench.reference_path(workload)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
