"""Run every bundled simulation preset through the command line interface.

Each preset lands in its own run directory under the output root; the run
id is derived from the configs, so re-running with the same settings
overwrites the same directory with identical files.  Use --reps to shrink
the replication counts for a smoke pass before committing to full runs.
"""
import argparse
import json
import subprocess
import sys
import time

from stepslope.cli import _available_presets


def main():
    parser = argparse.ArgumentParser(description=__doc__.strip().split("\n")[0])
    parser.add_argument("--out", default="runs", help="run directory root")
    parser.add_argument("--reps", type=int, default=None,
                        help="override replications for every experiment")
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--only", default=None,
                        help="comma-separated preset names (default: all)")
    args = parser.parse_args()

    names = _available_presets()
    if args.only is not None:
        wanted = [w.strip() for w in args.only.split(",") if w.strip()]
        unknown = sorted(set(wanted) - set(names))
        if unknown:
            parser.error(f"unknown presets {unknown}; available: {', '.join(names)}")
        names = wanted

    failures = []
    for name in names:
        cmd = [
            sys.executable, "-m", "stepslope.cli", "simulate",
            "--preset", name, "--threads", str(args.threads), "--out", args.out,
        ]
        if args.reps is not None:
            cmd += ["--reps", str(args.reps)]
        print(f"[{name}] {' '.join(cmd)}", flush=True)
        start = time.monotonic()
        proc = subprocess.run(cmd)
        print(f"[{name}] exit {proc.returncode} in {time.monotonic() - start:.1f}s",
              flush=True)
        if proc.returncode != 0:
            failures.append(name)

    if failures:
        print(json.dumps({"failed_presets": failures}))
        sys.exit(1)
    print(f"all {len(names)} presets completed under {args.out}/")


if __name__ == "__main__":
    main()
