"""Check that simulate run directories reproduce byte for byte.

    python3 scripts/check_run.py RUN_DIR [RUN_DIR ...]

replays each RUN_DIR/manifest.json through `stepslope simulate --config` at
the manifest's thread count, into a temporary directory, and compares the
bytes of every output the manifest lists (report.csv, details.json and, for
a run with a kfwer grid, kfwer_grid.csv) with RUN_DIR's.  Prints one line
per directory, "RUN_DIR: ok" when every file matches, or naming the first
file that differs or that the replay did not write, or the failed replay.
Exits with the worst status: 0 same bytes, 1 a file differs, 2 a replay
failed; and 2 with this text, replaying nothing, when a RUN_DIR has no
manifest.  The replays import stepslope from this checkout's src/.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def check_run(run_dir):
    """(status, message) of the check: 0 same bytes, 1 a file differs, 2 no replay."""
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
            return 2, f"replay failed (exit {proc.returncode}): {proc.stderr.strip()}"
        (replay,) = Path(out_root).iterdir()
        for name in manifest["outputs"].values():
            if not (replay / name).is_file():
                return 1, f"{name} missing from the replay"
            if (replay / name).read_bytes() != (run_dir / name).read_bytes():
                return 1, f"{name} differs"
    return 0, "ok"


if __name__ == "__main__":
    dirs = sys.argv[1:]
    if not dirs or not all((Path(d) / "manifest.json").is_file() for d in dirs):
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    worst = 0
    for d in dirs:
        status, message = check_run(d)
        print(f"{d}: {message}", flush=True)
        worst = max(worst, status)
    sys.exit(worst)
