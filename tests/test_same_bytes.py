"""scripts/same_bytes.py runs a parent's presets through its own simulate and
replays them here.

The preset loop takes the parent's source directory, so a copy of this
checkout's src/ stands in for a parent without git.
"""
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))

import same_bytes  # noqa: E402


def _parent_copy(tmp_path):
    src = tmp_path / "parent" / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def test_an_unchanged_parent_replays_ok(tmp_path, capsys):
    assert same_bytes.check_presets(_parent_copy(tmp_path), ["fig1"]) == 0
    assert capsys.readouterr().out == "preset fig1: ok\n"


def test_a_parent_with_another_signal_names_the_differing_file(tmp_path, capsys):
    src = _parent_copy(tmp_path)
    simlab = src / "stepslope" / "simlab.py"
    text = simlab.read_text()
    edited = re.sub(r'("strong": lambda c: )3\.0 \*', r"\g<1>0.5 *", text)
    assert edited != text
    simlab.write_text(edited)
    assert same_bytes.check_presets(src, ["fig1"]) == 1
    # details.json is the first output the manifest lists
    assert capsys.readouterr().out == "preset fig1: details.json differs\n"


def test_an_unknown_rev_exits_2_before_any_preset():
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "same_bytes.py"),
                           "no-such-rev"], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout.startswith("parent no-such-rev: git archive failed")
    assert "preset" not in proc.stdout
