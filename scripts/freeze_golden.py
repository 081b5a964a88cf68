"""Rewrite the frozen byte files of tests/data from the current code.

    python3 scripts/freeze_golden.py

writes tests/data/orthogonal_data_golden.json, gaussian_data_golden.json and
schedule_golden.json from the ``*_golden_doc()`` functions of the tests that
read them, as ``json.dumps(doc, indent=1, sort_keys=True)`` plus a newline,
and prints the name of each file whose bytes changed.  On code that keeps
every frozen byte it rewrites nothing, so ``git diff tests/data`` after a run
shows exactly the entries a change moved.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "src")]

import test_data_golden  # noqa: E402
import test_schedule_golden  # noqa: E402

DOCS = {
    "orthogonal_data_golden.json": test_data_golden.orthogonal_data_golden_doc,
    "gaussian_data_golden.json": test_data_golden.gaussian_data_golden_doc,
    "schedule_golden.json": test_schedule_golden.schedule_golden_doc,
}


def golden_text(doc):
    """The text a golden file holds for doc."""
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def main():
    for name, make in DOCS.items():
        path = ROOT / "tests" / "data" / name
        text = golden_text(make())
        if path.read_text() != text:
            path.write_text(text)
            print(f"rewrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
