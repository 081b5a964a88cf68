"""Check that a simulate run directory reproduces byte for byte.

    python3 scripts/check_run.py RUN_DIR

replays RUN_DIR/manifest.json through `stepslope simulate --config` at the
manifest's thread count, into a temporary directory, and compares the bytes
of every output the manifest lists (report.csv, details.json and, for a run
with a kfwer grid, kfwer_grid.csv) with RUN_DIR's.  Prints "ok" and exits 0
when every file matches; exits 1 naming the first file that differs or that
the replay did not write, and 2 when RUN_DIR has no manifest or the replay
itself fails.  The replay imports stepslope from this checkout's src/.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def check_run(run_dir):
    """Exit status of the check: 0 same bytes, 1 a file differs, 2 no replay."""
    run_dir = Path(run_dir)
    manifest_path = run_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    with tempfile.TemporaryDirectory() as out_root:
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "stepslope.cli", "simulate", "--config", str(manifest_path),
             "--threads", str(manifest["threads"]), "--out", out_root],
            env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"replay failed (exit {proc.returncode}): {proc.stderr.strip()}")
            return 2
        (replay,) = Path(out_root).iterdir()
        for name in manifest["outputs"].values():
            if not (replay / name).is_file():
                print(f"{name} missing from the replay")
                return 1
            if (replay / name).read_bytes() != (run_dir / name).read_bytes():
                print(f"{name} differs")
                return 1
    print("ok")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2 or not (Path(sys.argv[1]) / "manifest.json").is_file():
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    sys.exit(check_run(sys.argv[1]))
