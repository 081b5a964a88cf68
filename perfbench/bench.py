"""Workloads, the timed closed loop, and the frozen behaviour reference.

A workload is a fixed list of cells.  One round runs every cell once,
each as ``run_experiment(config, threads=1, resolved=...)`` with a handful
of replications, in order, from a single caller that waits for each call
(a closed loop with one client).  Round j of input set s runs each cell's
config at seed ``preset seed + SEED_STRIDE * s + j``, so every round draws
new data; after ``workload.rounds`` rounds the inputs repeat.

The reference stores each replication's (v, r, tp, converged) for every
round of every input set, frozen by ``freeze.py``.  ``--seed n`` selects
input set ``n % SETS``; set 0 is the presets' own seeds.

Nothing here imports stepslope or numpy at module level: the import is part
of the set-up that ``setup`` times.
"""

import importlib
import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

SETS = 10
SEED_STRIDE = 1000


@dataclass(frozen=True)
class Cell:
    """One ExperimentConfig minus its seed and replication count."""

    label: str
    seed: int
    reps: int
    params: dict


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cells: tuple
    rounds: int

    def config(self, simlab, cell, seed, rnd):
        """Config of a cell in round ``rnd`` for workload seed ``seed``."""
        return simlab.ExperimentConfig(
            **cell.params,
            seed=cell.seed + SEED_STRIDE * (seed % SETS) + rnd % self.rounds,
            replications=cell.reps,
        )

    def definition(self):
        """The cell list as JSON-ready data, stored beside the reference."""
        return [asdict(c) for c in self.cells]


def _ortho(method):
    return dict(design="orthogonal-identity", method=method, n=1000, m=1000, t=50,
                signal="strong", k=5)


def _corr(method):
    return dict(design="correlated-means", method=method, n=1000, m=1000, t=10,
                signal="moderate", k=6, rho=0.5)


def _group_orth(method, k):
    return dict(design="group-orthogonal", method=method, n=5000, m=5000, t=50,
                signal="group-scaled", k=k, num_groups=1000, group_sizes=(5,))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="gaussian-full",
            why="table4 k-slope cell shape (m=2n, k=2, weak signal) scaled to 800x1600: "
            "power-iteration step size and dense FISTA matvecs",
            cells=(
                Cell("table4-kslope", 11004, 2, dict(
                    design="gaussian", method="k-slope", n=800, m=1600, t=20,
                    signal="weak", k=2, alpha=0.1, correction="auto")),
            ),
            rounds=48,
        ),
        Workload(
            name="group-gaussian-mixed",
            why="table9 gk-slope cell with group sizes 3..7 scaled to n=m=1000: "
            "group QR standardization and the unequal-weight inner group prox",
            cells=(
                Cell("table9-gkslope-mixed", 11009, 2, dict(
                    design="group-gaussian", method="gk-slope", n=1000, m=1000, t=10,
                    signal="group-scaled", k=6, num_groups=200,
                    group_sizes=(3, 4, 5, 6, 7), correction="auto")),
            ),
            rounds=48,
        ),
        Workload(
            name="small-cells",
            why="many cheap preset cells: per-replication overhead, dense identity "
            "designs, PAV prox on small problems, stepdown and Monte Carlo correction",
            cells=(
                Cell("fig1-kslope", 11010, 10, _ortho("k-slope")),
                Cell("fig1-slopebh", 11010, 10, _ortho("slope-bh")),
                Cell("table2-fslope", 11002, 10, _ortho("f-slope")),
                Cell("table3-kslope", 11003, 4, _corr("k-slope")),
                Cell("table3-fslope", 11003, 4, _corr("f-slope")),
                Cell("table3-sdkfwer", 11003, 10, _corr("sd-kfwer")),
                Cell("table3-sdfdp", 11003, 10, _corr("sd-fdp")),
                Cell("table7-gkslope", 11007, 1, _group_orth("gk-slope", 15)),
                Cell("fig4-gfslope", 11011, 1, _group_orth("gf-slope", 5)),
                Cell("gaussian-mc-kslope", 11004, 4, dict(
                    design="gaussian", method="k-slope", n=400, m=200, t=10,
                    signal="weak", k=2, correction="monte-carlo")),
            ),
            rounds=48,
        ),
    )
}


def design_bytes(cell):
    """Computed bytes of the dense float64 design one replication builds."""
    p = cell.params
    return 8 * p["n"] * p["m"]


def setup(workload):
    """Import stepslope and resolve every cell's schedule.

    Returns (simlab, resolved triples, seconds).  The schedules do not
    depend on the seed, so one resolution serves every round.
    """
    t0 = time.perf_counter()
    simlab = importlib.import_module("stepslope.simlab")
    resolved = [
        simlab.resolve_schedule(workload.config(simlab, cell, 0, 0))
        for cell in workload.cells
    ]
    return simlab, resolved, time.perf_counter() - t0


def run_rounds(workload, simlab, resolved, seed, seconds=None, rounds=None):
    """Run whole rounds until ``seconds`` have passed, or exactly ``rounds``.

    Returns (units, elapsed): one unit per run_experiment call, as
    (round, cell index, rows, error), where rows holds (v, r, tp, converged)
    per replication, or is None when the call raised and error says why.
    """
    units = []
    j = 0
    t0 = time.perf_counter()
    while True:
        for ci, cell in enumerate(workload.cells):
            config = workload.config(simlab, cell, seed, j)
            try:
                report = simlab.run_experiment(config, threads=1, resolved=resolved[ci])
            except Exception as exc:  # a failed call is counted, not fatal
                units.append((j, ci, None, f"{type(exc).__name__}: {exc}"))
                continue
            rows = [
                (int(v), int(r), int(tp), bool(c))
                for v, r, tp, c in zip(report.v, report.r, report.tp, report.converged)
            ]
            units.append((j, ci, rows, None))
        j += 1
        elapsed = time.perf_counter() - t0
        if (elapsed >= seconds) if rounds is None else (j >= rounds):
            return units, elapsed


def completed_reps(units):
    """Replications of the units whose call returned."""
    return sum(len(rows) for _, _, rows, _ in units if rows is not None)


def reference_path(workload):
    return REFERENCE_DIR / f"{workload.name}.json"


def load_reference(workload, path=None):
    """Load a workload's frozen outcomes; reject one frozen for other cells."""
    path = path or reference_path(workload)
    doc = json.loads(Path(path).read_text())
    if doc["cells"] != json.loads(json.dumps(workload.definition())):
        raise ValueError(
            f"{path}: frozen for a different cell list; re-freeze with perfbench/freeze.py"
        )
    if doc["sets"] != SETS or doc["rounds"] != workload.rounds:
        raise ValueError(f"{path}: frozen for other set or round counts")
    return doc


def check_units(workload, reference, seed, units):
    """Compare units against the reference.

    Returns (attempted, failed, mismatches): a replication fails when its
    call raised or its (v, r, tp, converged) differs from the frozen one.
    """
    frozen = reference["outcomes"][str(seed % SETS)]
    attempted = failed = 0
    mismatches = []
    for j, ci, rows, error in units:
        want = [tuple(x[:3]) + (bool(x[3]),) for x in frozen[j % workload.rounds][ci]]
        attempted += len(want)
        if rows is None:
            failed += len(want)
            mismatches.append({"round": j, "cell": ci, "error": error})
            continue
        for rep, (got, exp) in enumerate(zip(rows, want)):
            if got != exp:
                failed += 1
                mismatches.append(
                    {"round": j, "cell": ci, "rep": rep, "got": got, "want": exp}
                )
        if len(rows) != len(want):
            failed += abs(len(rows) - len(want))
            mismatches.append({"round": j, "cell": ci, "error": "replication count"})
    return attempted, failed, mismatches


def self_check(workload, reference, seed):
    """True when the comparison passes the frozen first call of the seed's
    set and fails it against a copy of the reference with one v changed."""
    key = str(seed % SETS)
    rows = [tuple(x[:3]) + (bool(x[3]),) for x in reference["outcomes"][key][0][0]]
    units = [(0, 0, rows, None)]
    bad = dict(reference, outcomes={key: json.loads(json.dumps(reference["outcomes"][key]))})
    bad["outcomes"][key][0][0][0][0] += 1
    return (check_units(workload, reference, seed, units)[1] == 0
            and check_units(workload, bad, seed, units)[1] == 1)
