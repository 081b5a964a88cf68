"""scripts/full_scale_record.py: one row per preset cell, read off simulate's report."""
import csv
import json
import math
import subprocess
import sys
from pathlib import Path

from click.testing import CliRunner

from stepslope.cli import main

ROOT = Path(__file__).resolve().parent.parent


def test_record_rows_equal_the_runs_report_aggregates(tmp_path):
    # fig1 holds k-slope, f-slope and slope-bh cells: all three controlled errors
    out = tmp_path / "record.csv"
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "full_scale_record.py"),
                           "fig1", "--reps", "2", "--out", str(out)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))

    res = CliRunner().invoke(main, ["simulate", "--preset", "fig1", "--reps", "2",
                                    "--out", str(tmp_path / "runs")])
    assert res.exit_code == 0, res.output
    (run_dir,) = (tmp_path / "runs").iterdir()
    with open(run_dir / "report.csv", newline="") as fh:
        report = {(r["config_id"], r["metric"]): r for r in csv.DictReader(fh)}
    details = json.loads((run_dir / "details.json").read_text())["reports"]

    assert [r["config_id"] for r in rows] == [d["config_id"] for d in details]
    errors = {"k-slope": ("kfwer", "alpha"), "f-slope": ("prob_fdp", "alpha"),
              "slope-bh": ("fdr", "q")}
    assert {r["method"] for r in rows} == set(errors)
    for row, doc in zip(rows, details):
        error, level_field = errors[row["method"]]
        want = report[(row["config_id"], error)]
        level = doc["config"][level_field]
        assert row["preset"] == "fig1" and row["run_id"] == run_dir.name
        assert row["error"] == error and float(row["level"]) == level
        for name in ("design", "method", "t", "k"):
            assert row[name] == want[name]
        assert (row["estimate"], row["se"]) == (want["estimate"], want["se"])
        assert row["power"] == report[(row["config_id"], "power")]["estimate"]
        assert row["all_converged"] == str(doc["extras"]["all_converged"]).lower()
        z = (float(want["estimate"]) - level) / math.sqrt(level * (1 - level) / 2)
        assert float(row["z"]) == round(z, 3)


def test_unknown_preset_is_refused_before_any_run(tmp_path):
    out = tmp_path / "record.csv"
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "full_scale_record.py"),
                           "table2", "nosuch", "--out", str(out)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "unknown presets ['nosuch']; available: fig1, fig4," in proc.stderr
    assert not out.exists()
