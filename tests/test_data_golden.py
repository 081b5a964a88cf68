"""Generated data bytes of the matrix-free designs, frozen in
tests/data/orthogonal_data_golden.json.

For a few (seed, rep) pairs of feature- and group-orthogonal configs the
file holds the sha256 of the coefficient vector and the response that
simlab's generators draw.  The group amplitude is a norm of the image
X_g beta_g, so a change of how that norm is summed shows up here, as does
any change of the random stream's draw order.  Correlated-means entries
hash the mean, the whitened response and the raw observation ybar, all
three drawn through the O(n) equicorrelation operators; they were frozen
when those replaced the dense matrices, whose products rounded
differently.
"""

import hashlib
import json
from pathlib import Path

from stepslope.simlab import (
    ExperimentConfig,
    gen_correlated_means,
    gen_group,
    gen_orthogonal,
)

GOLDEN = Path(__file__).parent / "data" / "orthogonal_data_golden.json"

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


def _digest(*arrays):
    return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()


def orthogonal_data_golden_doc():
    """The document the golden file holds, computed from the current code."""
    doc = {}
    for name, kw in CONFIGS.items():
        for seed, rep in SEED_REPS:
            config = ExperimentConfig(replications=rep + 1, seed=seed, **kw)
            if config.design == "orthogonal-identity":
                _, beta, y, *_ = gen_orthogonal(config, rep)
                arrays = beta, y
            elif config.design == "correlated-means":
                _, mu, y, _, ybar, _ = gen_correlated_means(config, rep)
                arrays = mu, y, ybar
            else:
                _, _, beta, y, _ = gen_group(config, rep)
                arrays = beta, y
            doc[f"{name} seed={seed} rep={rep}"] = _digest(*arrays)
    return doc


def test_orthogonal_data_bytes_match_golden():
    want = json.loads(GOLDEN.read_text())
    assert orthogonal_data_golden_doc() == want
