"""Check that this checkout writes the bytes a parent revision writes.

    python3 scripts/same_bytes.py PARENT_REV

extracts PARENT_REV's src/ with `git archive` into a temporary directory,
runs every preset the parent bundles through the parent's own simulate at
--reps 2 --threads 1, and replays each run directory here with check_run.
Then runs scripts/verify_frozen.py (the benchmark's frozen replications)
and the golden-data tests (tests/test_data_golden.py,
tests/test_schedule_golden.py).  Prints one line per check, e.g.
"preset table4: ok", "verify_frozen: ok" or "golden data: ok", else what
differs or failed; verify_frozen's replication counts go to stderr.  Exits
with the worst status: 0 same bytes, 1 something differs, 2 a run failed
or PARENT_REV's src/ cannot be archived.
"""

import io
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

from check_run import ROOT, check_run
from full_scale_record import available_presets, run_preset

REPS, THREADS = 2, 1


def check_presets(parent_src, presets):
    """Run each preset through PARENT_SRC's simulate, replay it here and print
    one line per preset; return the worst status."""
    worst = 0
    with tempfile.TemporaryDirectory() as out_root:
        for preset in presets:
            try:
                run_dir = run_preset(preset, REPS, THREADS, out_root, src=parent_src)
            except RuntimeError as exc:
                status, message = 2, f"parent run failed: {exc}"
            else:
                status, message = check_run(run_dir)
            print(f"preset {preset}: {message}", flush=True)
            worst = max(worst, status)
    return worst


def check_command(label, *args):
    """Run a check here, its stderr passed through; print "LABEL: ok", or its exit
    status and the last line of its stdout.  Exit 0 is ok, 1 a difference, else 2."""
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode == 0:
        print(f"{label}: ok", flush=True)
        return 0
    tail = proc.stdout.strip().splitlines()[-1:]
    print(f"{label}: exit {proc.returncode}: {' '.join(tail)}", flush=True)
    return 1 if proc.returncode == 1 else 2


def main(argv):
    if len(argv) != 1 or argv[0].startswith("-"):
        print(__doc__, file=sys.stderr)
        return 2
    (rev,) = argv
    with tempfile.TemporaryDirectory() as parent:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                                 capture_output=True)
        if archive.returncode != 0:
            print(f"parent {rev}: git archive failed: {archive.stderr.decode().strip()}")
            return 2
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(parent, filter="data")
        presets = available_presets(Path(parent) / "src")
        if not presets:
            print(f"parent {rev}: no presets under src/stepslope/presets")
            return 2
        worst = check_presets(Path(parent) / "src", presets)
    worst = max(worst, check_command("verify_frozen", "scripts/verify_frozen.py"))
    return max(worst, check_command(
        "golden data", "-m", "pytest", "-q", "-o", "pythonpath=src",
        "tests/test_data_golden.py", "tests/test_schedule_golden.py"))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
