"""Check that a simulate run directory reproduces byte for byte.

    python3 scripts/check_run.py RUN_DIR

replays RUN_DIR/manifest.json through `stepslope simulate --config` at the
manifest's thread count, into a temporary directory, and compares the bytes
of report.csv, details.json and, when the manifest lists it, kfwer_grid.csv
with RUN_DIR's.  Prints "ok" and exits 0 when every file matches; exits 1
naming the first file that differs, and 2 when the replay itself fails.
The replay imports stepslope from this checkout's src/.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def grid_ks(manifest, grid_csv):
    """The kfwer grid a run used, read back from its kfwer_grid.csv.

    A config whose schedule takes a k wrote one row at its own k; each
    other config wrote one row per grid k, so the grid is the k column of
    the first such config's block.
    """
    rows = [line.split(",") for line in Path(grid_csv).read_text().splitlines()[1:]]
    takes_k = ["k" in schedule["params"] for schedule in manifest["schedules"]]
    if all(takes_k):
        return [1]  # every row is at a config's own k, whatever the grid
    size = (len(rows) - sum(takes_k)) // takes_k.count(False)
    start = takes_k.index(False)
    return [int(row[4]) for row in rows[start:start + size]]


def check_run(run_dir):
    """Exit status of the check: 0 same bytes, 1 a file differs, 2 no replay."""
    run_dir = Path(run_dir)
    manifest = json.loads((run_dir / "manifest.json").read_text())
    outputs = manifest["outputs"]
    doc = {"experiments": [{k: v for k, v in c.items() if k != "config_id"}
                           for c in manifest["configs"]]}
    if "grid" in outputs:
        doc["kfwer_grid"] = grid_ks(manifest, run_dir / outputs["grid"])
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(doc))
        out_root = Path(tmp) / "runs"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "stepslope.cli", "simulate", "--config", str(config),
             "--threads", str(manifest["threads"]), "--out", str(out_root)],
            env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"replay failed (exit {proc.returncode}): {proc.stderr.strip()}")
            return 2
        (replay,) = out_root.iterdir()
        for name in outputs.values():
            if (replay / name).read_bytes() != (run_dir / name).read_bytes():
                print(f"{name} differs")
                return 1
    print("ok")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    sys.exit(check_run(sys.argv[1]))
