"""Benchmark self-test at a tiny size (about 20 seconds).

    PYTHONPATH=src python3 perfbench/selftest.py

Runs every workload traced at time scale 20000 with a 5000-cycle quantum
and checks that

* the traced results hash the same as the untraced ones, so the wrappers
  perturb nothing (the worker's output check fails a run otherwise);
* span counts reconcile with the untraced counters: thermal advances
  equal ``PerfCounters.thermal_advances``, µops generated are at least the
  µops fetched, host-stepped and skipped cycles equal the ``PerfCounters``
  sums, and batch lanes seen at ``simulate_lockstep`` equal the
  ``RUNNER_METRICS`` delta;
* every per-layer metric of ``BENCHMARK.json`` is reported, and
  ``layers.json`` maps each one and each workload;
* the output check rejects a broken invariant and a wrong digest.

Exits non-zero on the first failure.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
from pathlib import Path

import check
import suite
import worker

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent


def require(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def reconcile(name: str, run) -> None:
    metrics, tracer = run.metrics, run.tracer
    if name == "scalar_attack":
        advances = tracer.calls("RCThermalModel.advance")
        require(
            advances == metrics["thermal.advances"],
            f"thermal advances: {advances} spans vs "
            f"{metrics['thermal.advances']} in PerfCounters",
        )
        for key, metric in (
            ("stepped", "pipeline.stepped_cycles"),
            ("idle_skipped", "pipeline.idle_skipped_cycles"),
            ("stall_skipped", "pipeline.stall_skipped_cycles"),
        ):
            require(
                tracer.host_cycles[key] == metrics[metric],
                f"{key}: {tracer.host_cycles[key]} at the core vs "
                f"{metrics[metric]} in PerfCounters",
            )
        fetched = sum(t.fetched for result in run.simulated for t in result.threads)
        require(
            metrics["workloads.uops"] >= fetched > 0,
            f"µops generated {metrics['workloads.uops']} < fetched {fetched}",
        )
        check_rejects(run.cold)
    if name == "policy_sweep":
        require(metrics["batch.lanes"] > 0, "the sweep batched no lanes")
        require(
            tracer.batch_lanes == metrics["batch.lanes"],
            f"batch lanes: {tracer.batch_lanes} at simulate_lockstep vs "
            f"{metrics['batch.lanes']} in RUNNER_METRICS",
        )


def check_rejects(pairs) -> None:
    item, result = next(
        (item, result) for item, result in pairs if "variant2|sedation" in item.label
    )
    require(not check.problems(item, result), f"clean result failed: {item.label}")
    broken = dataclasses.replace(result, cycles=result.cycles + 1)
    require(check.problems(item, broken), "a broken invariant passed the check")
    pinned = dataclasses.replace(item, pin="gzip+variant2|sedation")
    require(check.problems(pinned, result), "a wrong digest passed the check")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ledger = json.loads((HERE / "layers.json").read_text())
    per_layer = [metric["name"] for metric in bench["per_layer"]]
    names = [workload["name"] for workload in bench["workloads"]]
    require(sorted(names) == sorted(suite.WORKLOADS), f"workloads {names}")
    require(
        sorted(ledger["workloads"]) == sorted(names),
        "layers.json workloads differ from BENCHMARK.json",
    )
    require(
        sorted(ledger["per_layer"]) == sorted(per_layer),
        "layers.json per-layer metrics differ from BENCHMARK.json",
    )
    scratch = ROOT / ".perfbench" / "selftest"
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        for name, cls in suite.WORKLOADS.items():
            workload = cls(7, scratch / name, time_scale=20000.0, quantum_cycles=5000)
            run = worker.measure_traced(workload)
            tally = run.tally
            require(
                tally.failed == 0,
                f"{name}: {tally.failed} of {tally.attempted} failed: "
                f"{tally.problems[:3]}",
            )
            missing = [m for m in per_layer if m not in run.metrics]
            require(not missing, f"{name}: per-layer metrics missing {missing}")
            reconcile(name, run)
            print(f"ok {name}: {tally.attempted} results checked, "
                  f"overhead {run.metrics['trace.overhead_frac']:+.1%}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
