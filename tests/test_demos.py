"""Every demo script and README's quick start run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(args, tmp_path):
    # outputs go under tmp_path: the working directory, the temp root and
    # the default output root
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "TMPDIR": str(tmp_path), "QCPLANE_OUT": str(tmp_path)}
    done = subprocess.run([sys.executable, *args], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_demos_found():
    assert len(DEMOS) >= 7


@pytest.mark.parametrize("demo", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_exits_zero(demo, tmp_path):
    run_python([str(demo)], tmp_path)


def test_readme_quick_start_exits_zero(tmp_path):
    # README holds one python block, the quick start
    readme = (ROOT / "README.md").read_text()
    (block,) = [part.split("```", 1)[0] for part in readme.split("```python\n")[1:]]
    run_python(["-c", block], tmp_path)
