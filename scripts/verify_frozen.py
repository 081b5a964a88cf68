"""Re-derive the frozen benchmark replications in memory and compare them.

    python3 scripts/verify_frozen.py                       # every workload
    python3 scripts/verify_frozen.py --workload gaussian-full

runs every round of every input set of each workload through
perfbench/freeze.py's ``freeze`` (BLAS pinned to one thread, as the
benchmark runs), compares each replication's (v, r, tp, converged) with
perfbench/reference/<workload>.json, and prints every mismatch as
(workload, set, round, cell, rep, got, want).  Exits with 1 on any mismatch
and 0 otherwise; writes no file, so a change that should keep behaviour can
be checked without touching the references.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import freeze  # noqa: E402  (pins BLAS threads before numpy is imported)

import argparse  # noqa: E402
import json  # noqa: E402

import bench  # noqa: E402


def mismatches(name, derived, frozen):
    """Yield (workload, set, round, cell, rep, got, want) where they differ.

    A cell whose replication counts differ yields one row with rep None and
    the two row lists.
    """
    for s, rounds in sorted(frozen.items(), key=lambda kv: int(kv[0])):
        for j, (got_round, want_round) in enumerate(zip(derived[s], rounds)):
            for ci, (got, want) in enumerate(zip(got_round, want_round)):
                if len(got) != len(want):
                    yield name, int(s), j, ci, None, got, want
                    continue
                for rep, (g, w) in enumerate(zip(got, want)):
                    if g != w:
                        yield name, int(s), j, ci, rep, g, w


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=sorted(bench.WORKLOADS),
                    help="repeatable; default: every workload")
    args = ap.parse_args(argv)
    bad = 0
    for name in args.workload or sorted(bench.WORKLOADS):
        workload = bench.WORKLOADS[name]
        reference = bench.load_reference(workload)
        # JSON round trip so the derived rows compare as the stored ones load
        derived = json.loads(json.dumps(freeze.freeze(workload)["outcomes"]))
        reps = 0
        for row in mismatches(name, derived, reference["outcomes"]):
            print(row)
            bad += 1
        for rounds in reference["outcomes"].values():
            reps += sum(len(cell) for cells in rounds for cell in cells)
        print(f"{name}: {reps} frozen replications re-derived, {bad} mismatches so far",
              file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
