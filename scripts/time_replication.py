"""Time the stages of one full-size replication of a bundled preset cell.

    python3 scripts/time_replication.py --preset table4 --cell 1 --rep 0

pins BLAS and OpenMP to one thread (as the benchmark runs), resolves the
schedule of experiment number --cell of the preset (0-based, in the order
of its JSON file), and times replication --rep at the preset's own size:
data generation, the group QR standardization (group-Gaussian designs
only) and the fit.  Prints one JSON line with the stage seconds and the
fit's counters: iterations, rounds, matvecs, full_matvecs, backoffs,
restarts, the support size (selected groups for a group fit), converged
and the final gap, and the process's peak resident memory in MB
(peak_rss_mb, from getrusage) after the replication.  Stepdown cells and
Monte Carlo corrected cells have no fixed-schedule fit to time and are
refused.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import envinfo  # noqa: E402

envinfo.pin_threads()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402

from stepslope import cli, simlab  # noqa: E402
from stepslope.groups import solve_group_slope, standardize  # noqa: E402
from stepslope.solver import solve_slope  # noqa: E402

GENERATORS = {
    "orthogonal-identity": simlab.gen_orthogonal,
    "gaussian": simlab.gen_gaussian,
    "correlated-means": simlab.gen_correlated_means,
}


def time_replication(config, rep):
    """Stage seconds and fit counters of replication rep of config."""
    mode, schedule, _ = simlab.resolve_schedule(config)
    if mode != "schedule":
        raise ValueError(f"the cell runs in {mode!r} mode, which has no fixed-schedule fit")
    fit_args = dict(sigma=config.sigma, tol=config.fit_tol, max_iter=config.fit_max_iter)
    t0 = time.perf_counter()
    if config.design in simlab.GROUP_DESIGNS:
        design, part, _, y, _ = simlab.gen_group(config, rep)
        t1 = time.perf_counter()
        sp = None if design is None else standardize(design, part)
        t2 = time.perf_counter()
        fit = solve_group_slope(design, y, part, schedule, standardized=sp, **fit_args)
    else:
        design, _, y, *_ = GENERATORS[config.design](config, rep)
        t1 = t2 = time.perf_counter()
        fit = solve_slope(design, y, schedule, **fit_args)
    t3 = time.perf_counter()
    support = fit.selected_groups if hasattr(fit, "selected_groups") else fit.support
    return dict(
        gen_s=t1 - t0, standardize_s=t2 - t1, fit_s=t3 - t2,
        iterations=fit.iterations, rounds=fit.rounds, matvecs=fit.matvecs,
        full_matvecs=fit.full_matvecs, backoffs=fit.backoffs, restarts=fit.restarts,
        support_size=len(support), converged=bool(fit.converged),
        final_gap=float(fit.final_gap),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--preset", required=True)
    ap.add_argument("--cell", type=int, required=True,
                    help="0-based index into the preset's experiments")
    ap.add_argument("--rep", type=int, default=0)
    args = ap.parse_args(argv)
    if args.preset not in cli._available_presets():
        ap.error(f"unknown preset {args.preset!r}; available: "
                 + ", ".join(cli._available_presets()))
    experiments = cli._load_preset(args.preset)["experiments"]
    if not 0 <= args.cell < len(experiments):
        ap.error(f"--cell must lie in 0..{len(experiments) - 1}")
    config = simlab.ExperimentConfig.from_dict(experiments[args.cell])
    try:
        stages = time_replication(config, args.rep)
    except ValueError as exc:
        ap.error(str(exc))
    head = dict(preset=args.preset, cell=args.cell, rep=args.rep, design=config.design,
                method=config.method, n=config.n, m=config.m, t=config.t, k=config.k)
    print(json.dumps(dict(head, **stages)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
