"""Compare the speed of two source trees in one process, round by round.

    python3 scripts/ab_inprocess.py OTHER_SRC [--workload small-cells] [--rounds 60]

loads this repository's src/stepslope and OTHER_SRC's (a directory holding
stepslope/, or a checkout holding src/stepslope/) as two packages with
distinct names, pins BLAS and OpenMP to one thread as the benchmark does,
and resolves every cell of a perfbench workload in each.  Round j runs every
cell of the workload's round j (input set 0) once per tree, each as the
benchmark's run_experiment call; even rounds run this tree first and odd
rounds the other, so drift in machine speed falls on both trees alike.
One untimed round per tree comes first, for first-call costs.
Every replication is checked against perfbench/reference/<workload>.json.

Prints replications/s per tree, the ratio of their totals (this tree over
OTHER_SRC), the median of the per-round ratios, the number of rounds each
tree was faster, and one speed ratio per cell.  Exits with 1 when any
replication mismatches the reference and 0 otherwise.  perfbench/bench.py is
imported for its workloads and reference check only; nothing is written.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench")]

import envinfo  # noqa: E402

envinfo.pin_threads()

import argparse  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import bench  # noqa: E402


def package_dir(src):
    """The stepslope package directory under src or under src/src."""
    for cand in (Path(src) / "stepslope", Path(src) / "src" / "stepslope"):
        if (cand / "__init__.py").is_file():
            return cand
    raise SystemExit(f"{src}: no stepslope package (looked in stepslope/ and src/stepslope/)")


def load_simlab(pkg, name):
    """Import the package at pkg under the module name name; return its simlab."""
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(name + ".simlab")


class Tree:
    """One source tree: its simlab, resolved cells and per-cell timings."""

    def __init__(self, label, pkg, name, workload):
        self.label = label
        self.simlab = load_simlab(pkg, name)
        self.resolved = [self.simlab.resolve_schedule(workload.config(self.simlab, cell, 0, 0))
                         for cell in workload.cells]
        self.seconds = [[] for _ in workload.cells]  # per cell, one entry per round
        self.units = []

    def run_round(self, workload, j):
        """Run every cell of round j once; return the round's seconds."""
        total = 0.0
        for ci, cell in enumerate(workload.cells):
            config = workload.config(self.simlab, cell, 0, j)
            t0 = time.perf_counter()
            try:
                report = self.simlab.run_experiment(config, threads=1,
                                                    resolved=self.resolved[ci])
            except Exception as exc:  # a failed call is a mismatch, not fatal
                rows, error = None, f"{type(exc).__name__}: {exc}"
            else:
                rows = [(int(v), int(r), int(tp), bool(c))
                        for v, r, tp, c in zip(report.v, report.r, report.tp, report.converged)]
                error = None
            dt = time.perf_counter() - t0
            self.units.append((j, ci, rows, error))
            self.seconds[ci].append(dt)
            total += dt
        return total


def compare(other_src, workload_name, rounds):
    """Run the comparison and print it; return the mismatch count."""
    workload = bench.WORKLOADS[workload_name]
    reference = bench.load_reference(workload)
    trees = (Tree("this", package_dir(ROOT / "src"), "stepslope_ab_this", workload),
             Tree("other", package_dir(other_src), "stepslope_ab_other", workload))
    for tree in trees:
        # one untimed round pays each tree's first-call costs (caches, lazy imports)
        tree.run_round(workload, 0)
        tree.seconds = [[] for _ in workload.cells]
    round_reps = sum(cell.reps for cell in workload.cells)
    ratios = []
    for j in range(rounds):
        order = trees if j % 2 == 0 else trees[::-1]
        secs = {tree.label: tree.run_round(workload, j) for tree in order}
        # rate ratio this / other of one round: the other's seconds over this one's
        ratios.append(secs["other"] / secs["this"])

    bad = 0
    for tree in trees:
        _, failed, _ = bench.check_units(workload, reference, 0, tree.units)
        bad += failed
        total = sum(sum(s) for s in tree.seconds)
        print(f"{tree.label}: {rounds * round_reps / total:.1f} replications/s "
              f"over {rounds} rounds, {failed} mismatches")
    this, other = (sum(sum(s) for s in tree.seconds) for tree in trees)
    print(f"ratio of totals (this / other): {other / this:.3f}")
    print(f"median per-round ratio: {statistics.median(ratios):.3f}")
    print(f"rounds faster: this {sum(r > 1.0 for r in ratios)}, "
          f"other {sum(r < 1.0 for r in ratios)}")
    for ci, cell in enumerate(workload.cells):
        print(f"  {cell.label}: {sum(trees[1].seconds[ci]) / sum(trees[0].seconds[ci]):.3f}")
    return bad


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("other_src", metavar="OTHER_SRC",
                    help="the tree to compare with: a directory holding stepslope/ or "
                    "src/stepslope/")
    ap.add_argument("--workload", default="small-cells", choices=sorted(bench.WORKLOADS))
    ap.add_argument("--rounds", type=int, default=60)
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be positive")
    return 1 if compare(args.other_src, args.workload, args.rounds) else 0


if __name__ == "__main__":
    sys.exit(main())
