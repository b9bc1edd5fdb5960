"""The scripts under ``demos/`` and the README's quick start run to completion.

Each demo, and the README's first ``python`` block, runs as its own
process, with the package under test first on the import path, and must
exit 0 and print something.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_is_collected():
    assert [p.name for p in DEMOS] == [
        "indian_buffet.py",
        "posterior_walkthrough.py",
        "verify_and_truncate.py",
    ]


def run_cleanly(args, cwd):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_cleanly(script, tmp_path):
    run_cleanly([str(script)], tmp_path)


def test_readme_quick_start_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^```python\n(.*?)^```", readme, re.DOTALL | re.MULTILINE)
    assert block, "README.md has no ```python block"
    run_cleanly(["-c", block.group(1)], tmp_path)
