"""Every benchmark workload's own checks pass on one seeded round.

`perfbench/workloads.py` checks each op's output against oracles that do
not use the package, and a failed check shows only in a benchmark run.
This runs one round of each workload through `worker.run_round`, as a
measuring run counts it, in a fresh interpreter that reads `perfbench/`
and writes its round files under the test's own directory.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ROUND = """
import json, sys
from pathlib import Path
from worker import Tally, run_round
from workloads import WORKLOADS

out = {}
for name, workload in sorted(WORKLOADS.items()):
    workdir = Path(sys.argv[2]) / name
    workdir.mkdir()
    tally = Tally()
    run_round(workload, workload.make_round(int(sys.argv[1]), 0, workdir), tally)
    out[name] = [tally.attempted, tally.failed, tally.messages]
print(json.dumps(out))
"""


def test_one_round_of_each_workload_passes_its_checks(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # leave perfbench/ as it is
    env["PYTHONHASHSEED"] = "0"  # as perfbench/run.py starts its workers
    done = subprocess.run([sys.executable, "-c", ROUND, "1", str(tmp_path)],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    tallies = json.loads(done.stdout.splitlines()[-1])
    assert sorted(tallies) == ["random_covers", "tower_cli", "tower_survey"]
    for name, (attempted, failed, messages) in tallies.items():
        assert attempted >= 100 and failed == 0, (name, messages)
