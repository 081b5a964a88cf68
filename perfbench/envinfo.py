"""Environment stamp for benchmark results, from the standard library only.

Records what a timing depends on: source revision, interpreter and library
versions, the BLAS numpy links, thread settings, processor and last-level
cache size.  Fields that cannot be read come back as None.
"""

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def pin_threads():
    """Pin BLAS and OpenMP to one thread; call before numpy is imported.

    Worker processes inherit the setting through the environment.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"


def _git(root, *args):
    try:
        out = subprocess.run(
            ["git", *args], cwd=root, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest(root):
    """sha256 over the package sources, for checkouts that are not git trees."""
    h = hashlib.sha256()
    pkg = Path(root) / "src" / "stepslope"
    for path in sorted(pkg.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(pkg)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def _blas():
    import numpy as np

    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version"),
                "config": blas.get("openblas configuration")}
    except (TypeError, KeyError):
        return None


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def llc_bytes():
    """Size of the highest-level cache the kernel reports for cpu0."""
    best = (0, None)
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for idx in base.glob("index*"):
            level = int((idx / "level").read_text())
            size = (idx / "size").read_text().strip()
            mult = {"K": 1024, "M": 1024**2}.get(size[-1], 1)
            nbytes = int(size.rstrip("KM")) * mult
            if level > best[0]:
                best = (level, nbytes)
    except (OSError, ValueError):
        return None
    return best[1]


def collect(root):
    import numpy as np
    import scipy

    # a checkout nested in some other work tree must not report that tree
    top = _git(root, "rev-parse", "--show-toplevel")
    inside = top is not None and Path(top).resolve() == Path(root).resolve()
    rev = _git(root, "rev-parse", "HEAD") if inside else None
    status = _git(root, "status", "--porcelain") if rev else None
    return {
        "git_revision": rev,
        "git_dirty": bool(status) if status is not None else None,
        "source_sha256": source_digest(root),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "llc_bytes": llc_bytes(),
        "machine": platform.machine(),
    }
