"""Each script in demos/ runs to completion against the imported package."""

import os
import pathlib
import subprocess
import sys

import pytest

import mvlab

DEMOS = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_zero(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(mvlab.__file__))}
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
