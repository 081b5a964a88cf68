"""Generated data bytes, frozen in tests/data/orthogonal_data_golden.json
(the matrix-free designs) and tests/data/gaussian_data_golden.json (the
Gaussian designs).

For a few (seed, rep) pairs of feature- and group-orthogonal configs the
file holds the sha256 of the coefficient vector and the response that
simlab's generators draw.  The group amplitude is a norm of the image
X_g beta_g, so a change of how that norm is summed shows up here, as does
any change of the random stream's draw order.  Correlated-means entries
hash the mean, the whitened response and the raw observation ybar, all
three drawn through the O(n) equicorrelation operators, with the mean
scaled by the whitener's column norm in operator_norm_sq's closed form.
The dense matrices these operators replaced rounded differently.
scripts/freeze_golden.py rewrites the files from the *_golden_doc functions.

Gaussian entries hash the design X, beta and y that gen_gaussian and the
group-Gaussian gen_group draw, and for group designs the bytes of
standardize's x_tilde, its Fortran layout (the layout picks the BLAS
kernel of the fit's products, so it changes fitted bytes), the R factors
and the ranks.  One group design has two collinear columns in a block, so
x_tilde has fewer columns than X.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np

from stepslope.groups import standardize
from stepslope.simlab import (
    ExperimentConfig,
    gen_correlated_means,
    gen_gaussian,
    gen_group,
    gen_orthogonal,
)
from stepslope.solver import DesignMatrix

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "data" / "orthogonal_data_golden.json"
GAUSSIAN_GOLDEN = Path(__file__).parent / "data" / "gaussian_data_golden.json"

CONFIGS = {
    "feature-1000": dict(design="orthogonal-identity", method="k-slope", n=1000, m=1000,
                         t=50, k=5),
    "feature-40": dict(design="orthogonal-identity", method="f-slope", n=40, m=40, t=5,
                       sigma=0.5),
    "group-5000x5": dict(design="group-orthogonal", method="gk-slope", n=5000, m=5000,
                         t=50, k=15, num_groups=1000, group_sizes=(5,),
                         signal="group-scaled"),
    "group-mixed-inv-sqrt": dict(design="group-orthogonal", method="gf-slope", n=1000,
                                 m=1000, t=10, num_groups=200,
                                 group_sizes=(3, 4, 5, 6, 7), weight_scheme="inv-sqrt"),
    "correlated-1000": dict(design="correlated-means", method="k-slope", n=1000, m=1000,
                            t=10, k=6, signal="moderate", rho=0.5),
    "correlated-60-rho0.9": dict(design="correlated-means", method="sd-fdp", n=60, m=60,
                                 t=4, rho=0.9, sigma=0.5),
}

SEED_REPS = ((0, 0), (11007, 3), (4207, 17))

GAUSSIAN_CONFIGS = {
    "gaussian-800x1600": dict(design="gaussian", method="k-slope", n=800, m=1600, t=20,
                              k=2, signal="weak"),
    "gaussian-400x200": dict(design="gaussian", method="k-slope", n=400, m=200, t=10,
                             k=2, signal="weak", correction="monte-carlo"),
    "group-gaussian-mixed-inv-sqrt": dict(design="group-gaussian", method="gk-slope",
                                          n=1000, m=1000, t=10, k=6, num_groups=200,
                                          group_sizes=(3, 4, 5, 6, 7),
                                          weight_scheme="inv-sqrt"),
}

# (group, column offset inside it) whose next column is overwritten by the
# column's negative, a block of rank one less than its size
COLLINEAR = (57, 1)


def _digest(*arrays):
    return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()


def orthogonal_data_golden_doc():
    """The document the golden file holds, computed from the current code."""
    doc = {}
    for name, kw in CONFIGS.items():
        for seed, rep in SEED_REPS:
            config = ExperimentConfig(replications=rep + 1, seed=seed, **kw)
            if config.design == "orthogonal-identity":
                data = gen_orthogonal(config, rep)
                arrays = data.beta, data.y
            elif config.design == "correlated-means":
                data = gen_correlated_means(config, rep)
                arrays = data.beta, data.y, data.stats
            else:
                data = gen_group(config, rep)
                arrays = data.beta, data.y
            doc[f"{name} seed={seed} rep={rep}"] = _digest(*arrays)
    return doc


def _standardized_entry(design, part):
    sp = standardize(design, part)
    return {
        "x_tilde": _digest(sp.x_tilde),
        "x_tilde_f_contiguous": bool(sp.x_tilde.flags.f_contiguous),
        "x_tilde_shape": list(sp.x_tilde.shape),
        "r_factors": _digest(*sp.r_factors),
        "ranks": _digest(np.asarray(sp.ranks, dtype=np.int64)),
    }


def gaussian_data_golden_doc():
    """The document the Gaussian golden file holds, computed from the current code."""
    doc = {}
    for name, kw in GAUSSIAN_CONFIGS.items():
        for seed, rep in SEED_REPS:
            config = ExperimentConfig(replications=rep + 1, seed=seed, **kw)
            if config.design == "gaussian":
                data = gen_gaussian(config, rep)
                entry = {"data": _digest(data.design.entries, data.beta, data.y)}
            else:
                data = gen_group(config, rep)
                entry = {"data": _digest(data.design.entries, data.beta, data.y),
                         **_standardized_entry(data.design, data.partition)}
            doc[f"{name} seed={seed} rep={rep}"] = entry
    config = ExperimentConfig(replications=1, seed=0,
                              **GAUSSIAN_CONFIGS["group-gaussian-mixed-inv-sqrt"])
    data = gen_group(config, 0)
    X, part = data.design.entries.copy(), data.partition
    g, j = COLLINEAR
    col = part.groups[g][j]
    X[:, col + 1] = -X[:, col]
    doc["group-gaussian-mixed-inv-sqrt collinear seed=0 rep=0"] = {
        "data": _digest(X), **_standardized_entry(DesignMatrix(X), part)}
    return doc


def test_gaussian_data_bytes_match_golden():
    want = json.loads(GAUSSIAN_GOLDEN.read_text())
    assert gaussian_data_golden_doc() == want


def test_orthogonal_data_bytes_match_golden():
    want = json.loads(GOLDEN.read_text())
    assert orthogonal_data_golden_doc() == want


def test_freeze_golden_writes_each_file_in_its_format():
    # scripts/freeze_golden.py rewrites the three files from the *_golden_doc
    # functions; a file it would rewrite without a changed entry shows here
    spec = importlib.util.spec_from_file_location("freeze_golden",
                                                  ROOT / "scripts" / "freeze_golden.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert len(script.DOCS) == 3
    for name in script.DOCS:
        text = (GOLDEN.parent / name).read_text()
        assert script.golden_text(json.loads(text)) == text
