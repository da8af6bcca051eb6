"""The end-to-end benchmark still runs and checks every call on this checkout.

Each workload of ``BENCHMARK.json`` runs for 0.2 s with the tracer on, as
``python3 perfbench/run.py --workload W --seed 1 --seconds 0.2 --trace 1``
from the checkout root, in a process of its own.  Its last output line is
the JSON result: every call must have passed its checks (``correct``) and
none may have raised (``failed``).  Spans go to the git-ignored
``.perfbench_out/``; nothing under ``perfbench/`` changes.  One workload also
runs untraced (``--trace 0``), the mode that times set-up and reports the
end-to-end metrics the benchmark compares.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def run_workload(workload, trace):
    """The JSON summary of a 0.2 s run of ``workload``, which must have exited
    0 with every call correct and none failed."""
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.2", "--trace", trace],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
    summary = json.loads(result.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True, result.stderr[-2000:]
    assert summary["failed"] == 0
    return summary


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_correct(workload):
    run_workload(workload, "1")


def test_untraced_run_reports_every_end_to_end_metric():
    metrics = run_workload("oracle-cli", "0")["metrics"]
    for name in ("setup_s", "ops_per_s", "ok_share", "peak_rss_mb"):
        value = metrics[name]["value"]
        assert math.isfinite(value) and value > 0, (name, value)
