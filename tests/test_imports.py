"""Import weight of the package.

scipy serves only the group QR, which imports scipy.linalg on first use;
the chi quantiles of the group schedules are stdlib math, so no schedule
loads scipy.  A serial run never loads the process pool.  Each check runs
in a fresh interpreter and reads sys.modules afterwards.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# scipy.linalg alone costs more import time and memory than the package
DEFERRED = ("scipy", "concurrent.futures.process")


def _loaded(code, prefixes):
    """Modules starting with one of prefixes after running code in a new process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    script = (
        f"{code}\n"
        "import sys\n"
        f"print('\\n'.join(sorted(m for m in sys.modules if m.startswith({prefixes!r}))))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.split()


def test_import_loads_no_heavy_scipy_subpackages():
    # scipy.optimize alone adds ~16 MB of resident memory and ~0.2 s to
    # every process that imports the package, simulation workers included
    assert _loaded("import stepslope", ("scipy.optimize", "scipy.stats", "scipy.sparse")) == []


@pytest.mark.parametrize("module", ["stepslope", "stepslope.cli"])
def test_import_loads_no_scipy_and_no_process_pool(module):
    assert _loaded(f"import {module}", DEFERRED) == []


@pytest.mark.parametrize(
    "cell",
    [
        "design='gaussian', method='k-slope', n=60, m=120, t=5, k=2, signal='weak'",
        "design='orthogonal-identity', method='f-slope', n=40, m=40, t=5",
        "design='correlated-means', method='k-slope', n=40, m=40, t=5, k=2",
    ],
    ids=["gaussian", "orthogonal-identity", "correlated-means"],
)
def test_serial_feature_run_loads_no_scipy_and_no_process_pool(cell):
    code = (
        "from stepslope import simlab\n"
        f"config = simlab.ExperimentConfig({cell}, replications=2, seed=3)\n"
        "simlab.run_experiment(config, threads=1, resolved=simlab.resolve_schedule(config))\n"
    )
    assert _loaded(code, DEFERRED) == []


def test_group_schedule_resolution_loads_no_scipy():
    code = (
        "from stepslope import simlab\n"
        "config = simlab.ExperimentConfig(design='group-gaussian', method='gk-slope', n=200,\n"
        "                                 m=48, t=4, k=2, num_groups=12, group_sizes=(3, 4, 5),\n"
        "                                 replications=1, seed=3)\n"
        "mode, schedule, _ = simlab.resolve_schedule(config)\n"
        "print(schedule.rule)\n"
    )
    rule, *loaded = _loaded(code, ("scipy",))
    assert rule == "group-kFWER-corrected"
    assert loaded == []


def test_group_lambda_command_loads_no_scipy():
    code = (
        "import sys\n"
        "from stepslope.cli import main\n"
        "sys.argv = ['stepslope', 'lambda', '--rule', 'group-kFWER-corrected', '--k', '2',\n"
        "            '--alpha', '0.1', '--n', '300', '--group-sizes', '2,2,3,3']\n"
        "main(standalone_mode=False)\n"
    )
    out = _loaded(code, ("scipy",))
    assert out[0] == "index,value"
    assert [line for line in out if line.startswith("scipy")] == []


def test_first_standardize_loads_scipy_linalg():
    code = (
        "import numpy as np\n"
        "from stepslope.groups import GroupPartition, standardize\n"
        "X = np.random.default_rng(0).normal(size=(8, 5))\n"
        "standardize(X, GroupPartition.from_sizes((2, 3)))\n"
    )
    assert "scipy.linalg" in _loaded(code, ("scipy",))


def test_working_set_growth_loads_no_numpy_ma():
    # np.union1d imports numpy.ma through np.unique; a growth round that
    # used it would charge that import to the first fit that needs one
    code = (
        "from stepslope import simlab\n"
        "c = simlab.ExperimentConfig(design='correlated-means', method='k-slope', n=4000,\n"
        "                            m=4000, t=20, k=6, replications=1, seed=3)\n"
        "_, schedule, _ = simlab.resolve_schedule(c)\n"
        "data = simlab.gen_correlated_means(c, 0)\n"
        "fit = simlab.solve_slope(data.design, data.y, schedule, sigma=c.sigma)\n"
        "print(f'rounds={fit.rounds}')\n"
    )
    rounds, *loaded = _loaded(code, ("numpy.ma",))
    assert rounds == "rounds=2"
    assert "numpy.ma" not in loaded
