"""kerrgate benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload's inputs come from ``--seed``;
the program is driven as a closed loop (next call after the previous one
returns) from this one process and thread for ``--seconds`` seconds, and
every call's output is checked.  With ``--trace 0`` the end-to-end metrics
are reported; with ``--trace 1`` the same loop runs, then its first rounds
run again, alternately untraced and under the span tracer, and the
per-layer metrics are reported.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.

Throughput uses each call slot's fastest call in the run.  On the shared
2-core machine this was tuned on, identical work runs at two speeds about
1.7x apart, switching within a second, and the mix drifts over minutes:
medians over a 25 s run differ by 20-30% between runs, while the fastest of
many short calls repeats within a few percent.  Medians are still printed.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import bootstrap

bootstrap.prepare()  # before NumPy loads: pins thread pools, finds kerrgate

import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
#: fresh processes timed per run for setup_s, spread evenly over the measured
#: loop so they sample the whole run; the median is reported
SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 60
#: p90 is reported only when at least this many samples lie beyond it
TAIL_SAMPLES = 10

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "ok_share": "share",
    "peak_rss_mb": "MiB",
}


@dataclass
class Timings:
    """Seconds per call, in call order, over whole rounds.

    Every round of a workload has the same number of calls, and call slot
    ``k`` of every round makes the same kind of call.
    """

    slots: int = 0
    round_ops: int = 0
    call_s: list[float] = field(default_factory=list)

    def rounds(self) -> int:
        return len(self.call_s) // self.slots

    def round_s(self) -> list[float]:
        return [sum(self.call_s[i : i + self.slots]) for i in range(0, len(self.call_s), self.slots)]

    def best_by_slot(self) -> list[float]:
        """Fastest call of each slot over the run's rounds."""
        return [min(self.call_s[k :: self.slots]) for k in range(self.slots)]


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def time_setup() -> float:
    """Wall time of a fresh process that imports the CLI and warms up."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py")],
        cwd=bootstrap.ROOT,
        check=True,
        timeout=SETUP_TIMEOUT_S,
    )
    return time.perf_counter() - start


def run_round(workload, index: int, ledger, timings: Timings, tracer=None) -> None:
    calls = workload.round(index)
    timings.slots = len(calls)
    timings.round_ops = sum(call.ops for call in calls)
    for call in calls:
        if tracer is not None:
            tracer.call_index = len(timings.call_s)
        timings.call_s.append(workloads.execute(call, ledger))


def measure(workload, seconds: float, ledger, setup_probes: int = 0) -> tuple[Timings, list[float]]:
    """Closed loop over whole rounds for ``seconds`` of looping.

    With ``setup_probes``, the loop is cut into that many equal parts and one
    set-up (:func:`time_setup`) is timed before each part; probe time does not
    count towards ``seconds``.  Returns the call timings and the set-up times.
    """
    timings, setups = Timings(), []
    parts = max(setup_probes, 1)
    index = 0
    for _ in range(parts):
        if setup_probes:
            setups.append(time_setup())
        deadline = time.perf_counter() + seconds / parts
        first = True
        while first or time.perf_counter() < deadline:
            run_round(workload, index, ledger, timings)
            index += 1
            first = False
    return timings, setups


def end_to_end(workload, seconds: float, ledger) -> tuple[dict, list[str]]:
    timings, setups = measure(workload, seconds, ledger, SETUP_REPEATS)
    calls_ms = sorted(s * 1e3 for s in timings.call_s)
    n = len(calls_ms)
    notes = [
        f"calls={n} rounds={timings.rounds()} ops_per_round={timings.round_ops}",
        f"call_ms.p50 = {statistics.median(calls_ms):.6g} ms (all calls, n={n})",
    ]
    if n >= 10 * TAIL_SAMPLES:
        p90 = statistics.quantiles(calls_ms, n=10)[8]
        notes.append(f"call_ms.p90 = {p90:.6g} ms (all calls, n={n})")
    else:
        notes.append(f"call_ms.p90 not reported: {n} calls, fewer than {10 * TAIL_SAMPLES}")
    median_round = statistics.median(timings.round_s())
    notes.append(f"ops_per_s over the median round = {timings.round_ops / median_round:.6g} 1/s")
    notes.append(f"setup runs (s): {' '.join(f'{t:.3f}' for t in setups)}")
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": timings.round_ops / sum(timings.best_by_slot()),
        "ok_share": ledger.ok_share(),
        "peak_rss_mb": rss_kib / 1024.0,
    }
    return metrics, notes


def trace_rounds(workload, ledger) -> tuple[spans.Tracer, Timings, Timings]:
    """Run each of the workload's first rounds untraced, then traced.

    Alternating round by round lets both sides see the same machine state,
    and the tracer is removed before every untraced round.
    """
    tracer = spans.Tracer()
    plain, traced = Timings(), Timings()
    for index in range(workload.traced_rounds):
        run_round(workload, index, ledger, plain)
        tracer.install()
        try:
            run_round(workload, index, ledger, traced, tracer)
        finally:
            tracer.uninstall()
    return tracer, plain, traced


def per_layer(workload, seconds: float, ledger, seed: int) -> tuple[dict, list[str]]:
    measure(workload, seconds, ledger)
    tracer, plain, traced = trace_rounds(workload, ledger)
    path = bootstrap.OUT / f"spans-{workload.name}-seed{seed}.csv"
    tracer.write(path)
    metrics = tracer.metrics()
    # traced ops/s over untraced ops/s, measured the way ops_per_s is
    metrics["trace.speed_ratio"] = sum(plain.best_by_slot()) / sum(traced.best_by_slot())
    return metrics, [f"spans={len(tracer.start)} written to {path.relative_to(bootstrap.ROOT)}"]


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    ledger = workloads.Ledger()
    with tempfile.TemporaryDirectory(dir=bootstrap.OUT) as scratch:
        workloads.warm_up(Path(scratch))
        workload = workloads.WORKLOADS[args.workload](args.seed, Path(scratch))
        if args.trace:
            metrics, notes = per_layer(workload, args.seconds, ledger, args.seed)
            units = {name: unit for name, (unit, _) in spans.metric_units().items()}
        else:
            metrics, notes = end_to_end(workload, args.seconds, ledger)
            units = END_TO_END
    ledger.close()

    print(f"workload={workload.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for note in notes:
        print(f"  {note}")
    print(
        f"  attempted={ledger.attempted} failed={ledger.failed} "
        f"logical_errors={ledger.logical_errors} "
        f"logical_error_share={ledger.logical_errors / ledger.attempted:.6g}"
    )
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    for problem in ledger.problems[:20]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not ledger.problems,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
