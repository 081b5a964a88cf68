"""scripts/ab_inprocess.py compares two source trees in one process.

The script pins BLAS threads at import, so it runs in a subprocess.  The
repository against itself must load as two packages, run every small-cells
replication of two rounds in each, and match the frozen reference.
"""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_repo_against_itself_matches_the_reference():
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ab_inprocess.py"), str(ROOT / "src"),
         "--workload", "small-cells", "--rounds", "2"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0].startswith("this: ") and lines[0].endswith("over 2 rounds, 0 mismatches")
    assert lines[1].startswith("other: ") and lines[1].endswith("over 2 rounds, 0 mismatches")
    assert lines[2].startswith("ratio of totals (this / other): ")
    assert lines[3].startswith("median per-round ratio: ")
    assert lines[4].startswith("rounds faster: this ")
    # one speed ratio per cell
    assert len(lines) == 5 + 10
