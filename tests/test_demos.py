"""Each demo script runs to the end, names no path it has removed, and
leaves nothing behind in the temp dir."""

import os
import subprocess
import sys

import pytest

from conftest import REPO_ROOT

DEMOS = sorted((REPO_ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs_clean(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"),
               TMPDIR=str(tmp_path))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    output = (proc.stdout + proc.stderr).splitlines()
    assert [line for line in output if str(tmp_path) in line] == []
    assert list(tmp_path.iterdir()) == []
