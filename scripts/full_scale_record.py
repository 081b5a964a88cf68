"""Record each preset cell's controlled error against its level.

    python3 scripts/full_scale_record.py [PRESET ...] [--reps N] [--threads T] [--out FILE]

runs each preset (default: every bundled one) through `stepslope simulate`
at its own replication counts (--reps overrides them) into a temporary
directory, and writes one CSV row per cell to FILE (default: stdout):

    preset, config_id, design, method, t, k, level, error, estimate, se, z,
    power, all_converged, run_id

error is the rate the method controls: kfwer (Prob(V >= k)) for k-slope,
gk-slope and sd-kfwer, prob_fdp (Prob(FDP > gamma)) for f-slope, gf-slope
and sd-fdp, each at level alpha, and fdr for slope-bh at level q.
estimate, se and power are report.csv's strings as written; se is the
binomial standard error of the estimate (for fdr, of the mean FDP).  z is
(estimate - level) / sqrt(level * (1 - level) / replications), the
estimate's distance above the level in standard errors at the level, so a
cell that never errs still has one.  all_converged is the run's
details.json flag; no details.json is kept.  The runs import stepslope
from this checkout's src/.
"""

import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# method -> (report.csv metric it controls, config field holding its level)
CONTROLLED = {
    "k-slope": ("kfwer", "alpha"), "gk-slope": ("kfwer", "alpha"),
    "sd-kfwer": ("kfwer", "alpha"), "f-slope": ("prob_fdp", "alpha"),
    "gf-slope": ("prob_fdp", "alpha"), "sd-fdp": ("prob_fdp", "alpha"),
    "slope-bh": ("fdr", "q"),
}
COLUMNS = ("preset", "config_id", "design", "method", "t", "k", "level", "error", "estimate",
           "se", "z", "power", "all_converged", "run_id")


def record_rows(preset, run_dir):
    """One row per cell of a simulate run directory, in report order."""
    with open(run_dir / "report.csv", newline="") as fh:
        report = {(row["config_id"], row["metric"]): row for row in csv.DictReader(fh)}
    details = json.loads((run_dir / "details.json").read_text())["reports"]
    rows = []
    for doc in details:
        cid, config = doc["config_id"], doc["config"]
        error, field = CONTROLLED[config["method"]]
        row = report[(cid, error)]
        level = float(row[field])
        reps = int(row["replications"])
        z = (float(row["estimate"]) - level) / math.sqrt(level * (1.0 - level) / reps)
        rows.append({
            "preset": preset, "config_id": cid, "design": row["design"],
            "method": row["method"], "t": row["t"], "k": row["k"], "level": repr(level),
            "error": error, "estimate": row["estimate"], "se": row["se"], "z": f"{z:.3f}",
            "power": report[(cid, "power")]["estimate"],
            "all_converged": str(doc["extras"]["all_converged"]).lower(),
            "run_id": run_dir.name,
        })
    return rows


def run_preset(preset, reps, threads, out_root):
    """Run one preset through simulate; return its run directory."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    out = Path(out_root) / preset
    cmd = [sys.executable, "-m", "stepslope.cli", "simulate", "--preset", preset,
           "--threads", str(threads), "--out", str(out)]
    if reps is not None:
        cmd += ["--reps", str(reps)]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{preset}: simulate failed (exit {proc.returncode}): {proc.stderr.strip()}")
    (run_dir,) = out.iterdir()
    return run_dir


def main():
    parser = argparse.ArgumentParser(description=__doc__.strip().split("\n")[0])
    parser.add_argument("presets", nargs="*", metavar="PRESET",
                        help="bundled preset names (default: all)")
    parser.add_argument("--reps", type=int, default=None,
                        help="override replications for every experiment")
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--out", default=None, help="CSV file to write (default: stdout)")
    args = parser.parse_args()
    presets = args.presets or sorted(
        p.stem for p in (ROOT / "src" / "stepslope" / "presets").glob("*.json"))

    # written once every preset has run, so a failed run leaves no partial file
    text = io.StringIO()
    writer = csv.DictWriter(text, COLUMNS, lineterminator="\n")
    writer.writeheader()
    with tempfile.TemporaryDirectory() as out_root:
        for preset in presets:
            writer.writerows(record_rows(preset, run_preset(preset, args.reps, args.threads,
                                                            out_root)))
    if args.out is None:
        sys.stdout.write(text.getvalue())
    else:
        Path(args.out).write_text(text.getvalue())


if __name__ == "__main__":
    main()
