"""scripts/check_run.py replays run directories' manifests and compares bytes.

The run has a kfwer grid and puts a config whose schedule takes a k ahead
of two that do not, so the replay must take the grid from the manifest
and write kfwer_grid.csv too.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

from click.testing import CliRunner

from stepslope.cli import main

ROOT = Path(__file__).resolve().parent.parent


def _check(*run_dirs):
    return subprocess.run([sys.executable, str(ROOT / "scripts" / "check_run.py"),
                           *map(str, run_dirs)], capture_output=True, text=True, timeout=300)


def _flip_a_byte(path):
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 1
    path.write_bytes(bytes(data))


def _grid_run(tmp_path):
    cell = dict(design="orthogonal-identity", n=20, m=20, t=2, k=2, replications=3, seed=1)
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({
        "experiments": [dict(cell, method=method)
                        for method in ("k-slope", "slope-bh", "f-slope")],
        "kfwer_grid": [1, 3, 4],
    }))
    res = CliRunner().invoke(main, ["simulate", "--config", str(cfg),
                                    "--out", str(tmp_path / "runs")])
    assert res.exit_code == 0, res.output
    (run_dir,) = (tmp_path / "runs").iterdir()
    assert (run_dir / "kfwer_grid.csv").exists()
    return run_dir


def test_check_run_passes_a_clean_run_and_names_a_changed_file(tmp_path):
    run_dir = _grid_run(tmp_path)

    clean = _check(run_dir)
    assert clean.returncode == 0, clean.stdout + clean.stderr
    assert clean.stdout.strip() == f"{run_dir}: ok"

    _flip_a_byte(run_dir / "details.json")
    changed = _check(run_dir)
    assert changed.returncode == 1
    assert changed.stdout.strip() == f"{run_dir}: details.json differs"


def test_check_run_reports_each_directory_and_exits_with_the_worst(tmp_path):
    clean = _grid_run(tmp_path)
    changed = tmp_path / "changed"
    shutil.copytree(clean, changed)
    _flip_a_byte(changed / "report.csv")
    res = _check(clean, changed)
    assert res.returncode == 1, res.stdout + res.stderr
    assert res.stdout.splitlines() == [f"{clean}: ok", f"{changed}: report.csv differs"]
    # a directory without a manifest stops the check before any replay
    res = _check(clean, tmp_path)
    assert res.returncode == 2 and res.stdout == ""
    assert "python3 scripts/check_run.py RUN_DIR" in res.stderr


def test_check_run_names_an_output_the_replay_did_not_write(tmp_path):
    # a manifest without the grid, as simulate wrote before it recorded one
    run_dir = _grid_run(tmp_path)
    path = run_dir / "manifest.json"
    manifest = json.loads(path.read_text())
    del manifest["kfwer_grid"]
    path.write_text(json.dumps(manifest))
    res = _check(run_dir)
    assert res.returncode == 1
    assert res.stdout.strip() == f"{run_dir}: kfwer_grid.csv missing from the replay"


def test_check_run_without_a_manifest_prints_usage(tmp_path):
    res = _check(tmp_path)
    assert res.returncode == 2
    assert "python3 scripts/check_run.py RUN_DIR" in res.stderr
    assert "Traceback" not in res.stderr
