"""The scripts under ``demos/`` and the README's examples run to completion.

Each demo, and the README's first ``python`` block, runs as its own
process, with the package under test first on the import path, and must
exit 0 and print something.  The model config under the README's "Command
line" heading must sample: ``expcrm sample-prior`` on it exits 0 and writes
a header and one draw.
"""

import json
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


def run_cleanly(args, cwd) -> str:
    """Run ``python args`` in ``cwd``, assert it exits 0, and return what it printed."""
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
    return proc.stdout


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_cleanly(script, tmp_path):
    assert run_cleanly([str(script)], tmp_path).strip()


def test_readme_quick_start_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^```python\n(.*?)^```", readme, re.DOTALL | re.MULTILINE)
    assert block, "README.md has no ```python block"
    assert run_cleanly(["-c", block.group(1)], tmp_path).strip()


def test_readme_model_config_samples(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1]
    block = re.search(r"^```json\n(.*?)^```", section, re.DOTALL | re.MULTILINE)
    assert block, "README.md's command-line section has no ```json block"
    (tmp_path / "model.json").write_text(block.group(1), encoding="utf-8")
    argv = ["-m", "expcrm.cli", "sample-prior", "--model", "model.json", "--out", "draws.jsonl"]
    run_cleanly(argv, tmp_path)
    header, draw = (tmp_path / "draws.jsonl").read_text(encoding="utf-8").splitlines()
    policy = json.loads(header)["truncation"]["policy"]
    assert policy == json.loads(block.group(1))["truncation"]
    assert json.loads(draw)["rep"] == 0
