"""Benchmark self-test.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Checks that

- every function the tracer wraps still exists in its module;
- BENCHMARK.json lists exactly the workloads and metrics this benchmark reports;
- on each workload, every layer it is meant to stress records at least one
  call, so a rename cannot silently drop a layer, and every layer is
  stressed by some workload;
- every ``*.calls`` count repeats exactly when a seed is run twice;
- the traced calls pass their output checks.

Prints each failure and exits 1 if there is any; prints ``selftest: ok``
otherwise.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import bootstrap

bootstrap.prepare()

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SEED = 7


def traced_calls(name: str, scratch: Path) -> tuple[dict, workloads.Ledger]:
    workload = workloads.WORKLOADS[name](SEED, scratch)
    ledger = workloads.Ledger()
    tracer, _, _ = run.trace_rounds(workload, ledger)
    metrics = tracer.metrics()
    if set(metrics) | {"trace.speed_ratio"} != set(spans.metric_units()):
        ledger.problems.append("traced metrics differ from spans.metric_units()")
    ledger.close()
    calls = {k: v for k, v in metrics.items() if k.endswith(".calls")}
    return calls, ledger


def check_spec() -> list[str]:
    spec = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())
    failures = []
    listed = [w["name"] for w in spec["workloads"]]
    if listed != list(workloads.WORKLOADS):
        failures.append(f"BENCHMARK.json workloads {listed} != {list(workloads.WORKLOADS)}")
    listed = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if listed != run.END_TO_END:
        failures.append(f"BENCHMARK.json end_to_end {listed} != {run.END_TO_END}")
    listed = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    if listed != spans.metric_units():
        failures.append("BENCHMARK.json per_layer differs from spans.metric_units()")
    return failures


def main() -> int:
    missing = spans.missing_functions()
    if missing:
        for name in missing:
            print(f"selftest: wrapped function {name} no longer exists")
        return 1
    failures = check_spec()
    stressed = set()
    with tempfile.TemporaryDirectory(dir=bootstrap.OUT) as scratch:
        workloads.warm_up(Path(scratch))
        for name, workload in workloads.WORKLOADS.items():
            first, ledger = traced_calls(name, Path(scratch))
            second, _ = traced_calls(name, Path(scratch))
            if first != second:
                changed = sorted(k for k in first if first[k] != second[k])
                failures.append(f"{name}: call counts differ between two runs of seed {SEED}: {changed}")
            failures += [f"{name}: {problem}" for problem in ledger.problems]
            for layer in workload.stress_layers:
                if not any(v for k, v in first.items() if k.split(".")[0] == layer):
                    failures.append(f"{name}: layer {layer} recorded no call")
            stressed.update(workload.stress_layers)
    if stressed != set(spans.LAYERS):
        failures.append(f"layers no workload stresses: {sorted(set(spans.LAYERS) - stressed)}")
    for failure in failures:
        print(f"selftest: {failure}")
    if failures:
        return 1
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
