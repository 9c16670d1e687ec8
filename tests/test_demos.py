"""Each demo walkthrough, and the README's quick start, runs to completion
as a script."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run_script(script, cwd):
    # tmp_path as cwd keeps the scripts' CSV files out of the repository
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(script)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")),
                         ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    _run_script(demo, tmp_path)


def test_readme_quick_start_runs(tmp_path):
    # the first python block of the README, so the documented API stays live
    block = re.search(r"^```python\n(.*?)^```$",
                      (ROOT / "README.md").read_text(), re.M | re.S)
    script = tmp_path / "quick_start.py"
    script.write_text(block.group(1))
    _run_script(script, tmp_path)
