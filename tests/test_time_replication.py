"""scripts/time_replication.py times the replication path simulate runs.

The script pins BLAS threads at import and installs perfbench's tracer, so
it runs in a subprocess.  On a 900 x 900 group-Gaussian gk-SLOPE cell with
unequal group weights, its fit must select and converge as run_experiment's
replication 0 does, and its traced peak must stay near the two design-sized
arrays simulate holds (the draw X and its standardized X~, the weights
folded in place), below the third a copy of X~ would add.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

N = M = 900

_SCRIPT = f"""
import json
import sys
import tracemalloc
sys.path.insert(0, "scripts")
from time_replication import time_replication
from stepslope import simlab
config = simlab.ExperimentConfig(
    design="group-gaussian", method="gk-slope", n={N}, m={M}, t=10, k=6,
    num_groups=180, group_sizes=(3, 4, 5, 6, 7), replications=1, seed=41)
tracemalloc.start()
stages = time_replication(config, 0)
_, peak = tracemalloc.get_traced_memory()
tracemalloc.stop()
report = simlab.run_experiment(config)
print(json.dumps(dict(stages, peak=peak, r0=int(report.r[0]),
                      converged0=bool(report.converged[0]))))
"""


def test_time_replication_runs_simulates_path():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", _SCRIPT], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    got = json.loads(out.stdout.splitlines()[-1])
    assert got["support_size"] == got["r0"]
    assert got["converged"] == got["converged0"]
    assert got["iterations"] == 31
    assert got["standardize_s"] > 0.0
    assert got["peak"] < 2.5 * 8 * N * M
