"""The BLAS thread count never changes a number.

One Gaussian k-slope cell and one group-Gaussian gk-slope cell run through
`stepslope simulate` in subprocesses at OPENBLAS_NUM_THREADS=1 and 2; the
report.csv and details.json bytes must be the same at both settings.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

_CELLS = {
    "gaussian": dict(design="gaussian", method="k-slope", n=400, m=800, t=10, k=2,
                     replications=1, seed=3),
    "group-gaussian": dict(design="group-gaussian", method="gk-slope", n=500, m=500,
                           t=10, k=2, num_groups=100, group_sizes=[3, 4, 5, 6, 7],
                           replications=1, seed=3),
}


def _outputs(tmp_path, config, blas_threads):
    out = tmp_path / f"blas{blas_threads}"
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads),
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-m", "stepslope.cli", "simulate", "--config",
                    str(config), "--out", str(out)],
                   env=env, check=True, capture_output=True, timeout=300)
    (run_dir,) = out.iterdir()
    return {name: (run_dir / name).read_bytes() for name in ("report.csv", "details.json")}


@pytest.mark.parametrize("cell", list(_CELLS))
def test_blas_threads_leave_the_outputs_unchanged(tmp_path, cell):
    config = tmp_path / "cell.json"
    config.write_text(json.dumps(_CELLS[cell]))
    assert _outputs(tmp_path, config, 1) == _outputs(tmp_path, config, 2)
