"""The benchmark's tracer still finds every name it rebinds.

`perfbench/tracer.py` wraps package functions and methods by name, so a
rename or removal in `src/` would only show in a traced benchmark run.  This
installs the tracer in a fresh interpreter, reading `perfbench/` only.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # leave perfbench/ as it is
    done = subprocess.run(
        [sys.executable, "-c", "from tracer import Tracer; Tracer().install()"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
