"""Import weight of the package."""
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_loads_no_heavy_scipy_subpackages():
    # scipy.optimize alone adds ~16 MB of resident memory and ~0.2 s to
    # every process that imports the package, simulation workers included
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = (
        "import sys, stepslope\n"
        "heavy = ('scipy.optimize', 'scipy.stats', 'scipy.sparse')\n"
        "print('\\n'.join(sorted(m for m in sys.modules if m.startswith(heavy))))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == []
