"""A slice of the frozen benchmark replications, re-derived in tier-1.

scripts/verify_frozen.py re-derives every frozen replication in minutes.
This test runs the first two rounds of input sets 0 and 5 of every
benchmark workload, in a subprocess with BLAS pinned to one thread as the
benchmark runs, and fails on any replication whose (v, r, tp, converged)
differs from perfbench/reference/.  It only reads perfbench/.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SETS = (0, 5)
ROUNDS = 2

_SCRIPT = f"""
import json
import envinfo
envinfo.pin_threads()
import bench
rows = []
for name, workload in sorted(bench.WORKLOADS.items()):
    reference = bench.load_reference(workload)
    simlab, resolved, _ = bench.setup(workload)
    for seed in {SETS!r}:
        units, _ = bench.run_rounds(workload, simlab, resolved, seed, rounds={ROUNDS})
        attempted, failed, mismatches = bench.check_units(workload, reference, seed, units)
        rows.append([name, seed, attempted, failed, mismatches])
print(json.dumps(rows))
"""


def test_frozen_slice_matches_reference():
    path = os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")])
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run([sys.executable, "-c", _SCRIPT], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    rows = json.loads(out.stdout.splitlines()[-1])
    assert rows
    for name, seed, attempted, failed, mismatches in rows:
        assert attempted > 0
        assert failed == 0, (name, seed, mismatches)
