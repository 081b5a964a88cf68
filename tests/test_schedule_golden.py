"""Schedule bytes frozen in tests/data/schedule_golden.json.

Two parts: a sha256 of what resolve_schedule returns for every distinct
schedule input of the bundled presets, and the JSON text of one small
schedule per rule.  A refactor of the schedule code must leave both
unchanged.
"""

import hashlib
import json
from importlib import resources
from pathlib import Path

import numpy as np

from stepslope.schedules import RULES, build_schedule, schedule_json_text
from stepslope.simlab import ExperimentConfig, resolve_schedule

GOLDEN = Path(__file__).parent / "data" / "schedule_golden.json"

# the config fields resolve_schedule reads
SCHEDULE_FIELDS = (
    "design", "method", "n", "m", "k", "alpha", "gamma", "q",
    "num_groups", "group_sizes", "weight_scheme", "correction", "mc_replicates",
)


def _mc_design():
    X = np.random.default_rng(20240517).standard_normal((40, 12))
    return X / np.sqrt((X * X).sum(axis=0))


def _small_requests():
    ranks, weights = (1, 2, 2, 3, 5), (1.0, 2.0**0.5, 2.0**0.5, 3.0**0.5, 5.0**0.5)
    mc = dict(design=_mc_design(), replicates=20, seed=3)
    return {
        "BH": dict(m=12, q=0.1, sigma=1.5),
        "kFWER": dict(m=12, k=3, alpha=0.1),
        "FDP": dict(m=12, alpha=0.1, gamma=0.25, sigma=0.5),
        "kFWER-Gaussian": dict(m=12, k=1, alpha=0.05, n=200),
        "FDP-Gaussian": dict(m=12, alpha=0.1, gamma=0.3, n=200),
        "kFWER-MonteCarlo": dict(m=8, k=2, alpha=0.1, **mc),
        "FDP-MonteCarlo": dict(m=8, alpha=0.1, gamma=0.2, **mc),
        "group-max-FDR": dict(q=0.1, ranks=ranks, weights=weights),
        "group-kFWER": dict(k=2, alpha=0.1, ranks=ranks, weights=weights),
        "group-FDP": dict(alpha=0.1, gamma=0.25, ranks=ranks, weights=weights),
        "group-kFWER-corrected": dict(k=2, alpha=0.1, n=300, ranks=ranks, weights=weights),
        "group-FDP-corrected": dict(alpha=0.1, gamma=0.25, n=300, ranks=ranks, weights=weights),
    }


def _digest(mode, payload, provenance):
    values = payload if mode == "thresholds" else payload.values
    text = mode + json.dumps(provenance, sort_keys=True)
    text += ",".join(f"{v:.17g}" for v in values)
    return hashlib.sha256(text.encode()).hexdigest()


def schedule_golden_doc():
    """The document the golden file holds, computed from the current code."""
    presets = {}
    base = resources.files("stepslope").joinpath("presets")
    for path in sorted(base.iterdir(), key=lambda p: p.name):
        if not path.name.endswith(".json"):
            continue
        for d in json.loads(path.read_text())["experiments"]:
            cd = ExperimentConfig.from_dict(d).to_dict()
            key = json.dumps({f: cd[f] for f in SCHEDULE_FIELDS}, sort_keys=True)
            if key not in presets:
                presets[key] = _digest(*resolve_schedule(ExperimentConfig.from_dict(d)))
    rules = {
        rule: schedule_json_text(build_schedule(rule, **request))
        for rule, request in _small_requests().items()
    }
    return {"presets": presets, "rules": rules}


def test_schedule_bytes_match_golden():
    want = json.loads(GOLDEN.read_text())
    got = schedule_golden_doc()
    assert len(want["presets"]) == 42
    assert set(want["rules"]) == set(RULES)
    assert got["rules"] == want["rules"]
    assert got["presets"] == want["presets"]
