"""Every narrative script under demos/ runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, str(script)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout
