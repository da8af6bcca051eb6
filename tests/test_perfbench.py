"""The end-to-end benchmark still runs and checks every call on this checkout.

Each workload of ``BENCHMARK.json`` runs for 0.2 s with the tracer on, as
``python3 perfbench/run.py --workload W --seed 1 --seconds 0.2 --trace 1``
from the checkout root, in a process of its own.  Its last output line is
the JSON result: every call must have passed its checks (``correct``) and
none may have raised (``failed``).  Spans go to the git-ignored
``.perfbench_out/``; nothing under ``perfbench/`` changes.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_correct(workload):
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.2", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
    summary = json.loads(result.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True, result.stderr[-2000:]
    assert summary["failed"] == 0
