"""Time the stages of one full-size replication of a bundled preset cell.

    python3 scripts/time_replication.py --preset table4 --cell 1 --rep 0

pins BLAS and OpenMP to one thread (as the benchmark runs), resolves the
schedule of experiment number --cell of the preset (0-based, in the order
of its JSON file), and runs replication --rep at the preset's own size
through the stages `stepslope simulate` runs, simlab._draw then
simlab._fit, under perfbench's tracer.  Prints one JSON line with the
stage seconds: data generation, the group QR standardization (the
groups.standardize span; 0 on feature and identity designs) and the rest
of the fit.  Then the fit's counters: iterations, rounds, matvecs,
full_matvecs, backoffs, restarts, the support size (selected groups for a
group fit), converged and the final gap, and the process's peak resident
memory in MB (peak_rss_mb, from getrusage) after the replication.
Stepdown cells and Monte Carlo corrected cells have no fixed-schedule fit
to time and are refused.
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

# stepslope imports it on the first group QR; loaded here so no timed
# stage or traced allocation includes the one-time import
import scipy.linalg  # noqa: E402, F401
import tracing  # noqa: E402
from stepslope import cli, simlab  # noqa: E402


def time_replication(config, rep):
    """Stage seconds and fit counters of replication rep of config."""
    mode, schedule, _ = simlab.resolve_schedule(config)
    if mode != "schedule":
        raise ValueError(f"the cell runs in {mode!r} mode, which has no fixed-schedule fit")
    with tracing.Tracer(config.design) as tracer:
        t0 = time.perf_counter()
        data = simlab._draw(config, rep)
        t1 = time.perf_counter()
        fit = simlab._fit(config, rep, data, mode, schedule)
        t2 = time.perf_counter()
    qr_s = sum(s[tracing.END] - s[tracing.START] for s in tracer.spans
               if s[tracing.NAME] == "groups.standardize")
    support = fit.support if data.partition is None else fit.selected_groups
    return dict(
        gen_s=t1 - t0, standardize_s=qr_s, fit_s=t2 - t1 - qr_s,
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
