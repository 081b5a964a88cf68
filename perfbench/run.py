"""Run one stepslope benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload gaussian-full --seed 0 --seconds 30 --trace 0

Every measurement runs in a fresh worker process started from this file,
with BLAS and OpenMP pinned to one thread.  --trace 0 measures set-up time
in several workers and then times whole rounds of the workload for
--seconds in one more.  --trace 1 times the rounds untraced for half of
--seconds, then replays the same rounds in a traced worker and reports the
per-layer metrics.  Every replication is checked against the frozen
reference; the last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  Exits with 2 when the checkout
has no stepslope sources or reference.

--workload all runs every workload in turn, each block ending in its own
result line, and exits with 1 if any replication mismatched.
"""

import envinfo

envinfo.pin_threads()

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import bench
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_WORKERS = 3
# every worker of one run must end within this many seconds of its start
RUN_BUDGET_S = 170.0

# (name, unit, better) of every end-to-end metric
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("reps_per_s", "replications/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS) + ["all"],
                    help="one workload, or all of them in turn")
    ap.add_argument("--seed", type=int, default=0,
                    help="workload seed; selects input set seed %% %d" % bench.SETS)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: the role of a worker process
    ap.add_argument("--worker", choices=("setup", "plain", "traced"), help=argparse.SUPPRESS)
    ap.add_argument("--rounds", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker and args.workload == "all":
        ap.error("a worker runs one workload")
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


# ---- worker side ------------------------------------------------------------

def worker(args):
    """Measure in this process and print one JSON line for the parent."""
    sys.path.insert(0, str(SRC))
    workload = bench.WORKLOADS[args.workload]
    if args.worker == "setup":
        _, _, setup_s = bench.setup(workload)
        return {"setup_s": setup_s}
    if args.worker == "plain":
        simlab, resolved, setup_s = bench.setup(workload)
        units, elapsed = bench.run_rounds(
            workload, simlab, resolved, args.seed, seconds=args.seconds
        )
        return {
            "setup_s": setup_s,
            "units": units,
            "elapsed": elapsed,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    tracer = tracing.Tracer(workload.name)
    with tracer:
        simlab, resolved, _ = bench.setup(workload)
        units, elapsed = bench.run_rounds(
            workload, simlab, resolved, args.seed, rounds=args.rounds
        )
    reps = bench.completed_reps(units)
    tracer.write(OUT / f"spans-{workload.name}-seed{args.seed}.tsv")
    return {
        "units": units,
        "elapsed": elapsed,
        "layers": tracing.layer_metrics(tracer.spans, max(reps, 1), elapsed),
    }


# ---- parent side ------------------------------------------------------------

def spawn(args, role, **extra):
    """Run a worker to completion and return its JSON line.

    The worker is killed and reaped if it would overrun the run's budget.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds), "--worker", role]
    for key, value in extra.items():
        cmd += [f"--{key}", str(value)]
    timeout = max(1.0, args.deadline - time.monotonic())
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{role} worker failed:\n{proc.stderr}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if "units" in out:
        out["units"] = [
            (j, ci, None if rows is None else [tuple(r) for r in rows], err)
            for j, ci, rows, err in out["units"]
        ]
    return out


def plain_run(args, workload, reference):
    setups = [spawn(args, "setup")["setup_s"] for _ in range(SETUP_WORKERS)]
    run = spawn(args, "plain")
    setups.append(run["setup_s"])
    attempted, failed, mismatches = bench.check_units(
        workload, reference, args.seed, run["units"]
    )
    metrics = {
        "setup_s": statistics.median(setups),
        "reps_per_s": bench.completed_reps(run["units"]) / run["elapsed"],
        "peak_rss_mb": run["peak_rss_mb"],
    }
    details = {"setup_samples_s": setups, "timed_s": run["elapsed"],
               "rounds": run["units"][-1][0] + 1}
    return attempted, failed, mismatches, metrics, details


def trace_run(args, workload, reference):
    half = argparse.Namespace(**vars(args))
    half.seconds = args.seconds / 2.0
    plain = spawn(half, "plain")
    rounds = plain["units"][-1][0] + 1
    traced = spawn(args, "traced", rounds=rounds)
    attempted = failed = 0
    mismatches = []
    for run in (plain, traced):
        a, f, m = bench.check_units(workload, reference, args.seed, run["units"])
        attempted += a
        failed += f
        mismatches += m
    # the traced replay must reproduce the untraced counts exactly
    for (j, ci, rows_p, _), (_, _, rows_t, _) in zip(plain["units"], traced["units"]):
        if rows_p != rows_t:
            failed += 1
            mismatches.append({"round": j, "cell": ci, "error": "traced differs from untraced"})
    if len(plain["units"]) != len(traced["units"]):
        failed += 1
        mismatches.append({"error": "traced run made a different number of calls"})
    metrics = dict(traced["layers"])
    # share of untraced throughput lost to tracing over the same rounds
    metrics["trace_overhead_frac"] = 1.0 - plain["elapsed"] / traced["elapsed"]
    details = {"untraced_s": plain["elapsed"], "traced_s": traced["elapsed"],
               "rounds": rounds}
    return attempted, failed, mismatches, metrics, details


def run_workload(args, workload):
    """Measure one workload, print its metrics and result line.

    Returns None when the reference is unusable, else whether every
    replication matched it.
    """
    args = argparse.Namespace(**{**vars(args), "workload": workload.name,
                                 "deadline": time.monotonic() + RUN_BUDGET_S})
    try:
        reference = bench.load_reference(workload)
    except (OSError, ValueError, KeyError) as exc:
        print(f"cannot use the frozen reference: {exc}", file=sys.stderr)
        return None
    if not bench.self_check(workload, reference, args.seed):
        print("the reference check does not catch a perturbed entry", file=sys.stderr)
        return None

    if args.trace:
        attempted, failed, mismatches, values, details = trace_run(args, workload, reference)
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    else:
        attempted, failed, mismatches, values, details = plain_run(args, workload, reference)
        units = {name: unit for name, unit, _ in END_TO_END}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    env = envinfo.collect(ROOT)
    env["design_bytes"] = {c.label: bench.design_bytes(c) for c in workload.cells}
    record = {
        "workload": workload.name, "why": workload.why, "seed": args.seed,
        "input_set": args.seed % bench.SETS, "seconds": args.seconds,
        "trace": args.trace, "env": env, "details": details,
        "rep_fail_frac": failed / attempted, "mismatches": mismatches[:20],
        "metrics": metrics,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    for name, m in metrics.items():
        print(f"{workload.name} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{workload.name} rep_fail_frac = {failed / attempted:.6g} fraction")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return failed == 0


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "stepslope" / "__init__.py").is_file():
        print(f"no stepslope sources under {SRC}", file=sys.stderr)
        return 2
    if args.worker:
        print(json.dumps(worker(args)))
        return 0
    if args.workload != "all":
        # a completed run exits 0 and reports mismatches through "correct"
        return 0 if run_workload(args, bench.WORKLOADS[args.workload]) is not None else 2
    results = [run_workload(args, w) for w in bench.WORKLOADS.values()]
    if None in results:
        return 2
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
