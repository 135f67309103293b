"""One benchmark run of one workload, in a fresh process.

``run.py`` starts this script with the checkout's ``src`` on
``PYTHONPATH``.  It sets the workload up (imports, specs, first pipeline),
prints ``READY``, then measures and prints ``RESULT <json>`` as its last
line.  With ``--setup-only`` it stops after ``READY``; ``run.py`` starts
several of those to time set-up in fresh interpreters.

Untraced, a run repeats the cold pass until ``--seconds`` have gone by
(at least once) and reports the end-to-end metrics.  Traced, it makes an
untraced cold pass and ``warm_groups`` untraced groups of warm passes,
then a traced cold pass and ``warm_groups`` traced groups, and reports per-layer
metrics plus the tracing overhead (traced cold time ÷ untraced cold time
− 1).  Every result of every pass goes through the output check.  Times
are in reference seconds (:mod:`speedclock`); raw wall times go to the
run record beside them.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy

from repro.sim import RUNNER_METRICS, RunResult

import check
import suite
from speedclock import SpeedClock
from tracer import SPANS, Tracer


class Tally:
    """Output-check accounting over every result a run receives."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}

    def check(self, pairs, reference: dict[str, str] | None = None) -> None:
        """Check ``pairs``; with ``reference``, also require equal digests."""
        for item, result in pairs:
            self.attempted += 1
            found = check.problems(item, result)
            if not found and isinstance(result, RunResult):
                digest = check.digest(result)
                self.digests.setdefault(item.label, digest)
                if reference is not None and reference.get(item.label) != digest:
                    found.append(f"{item.label}: digest differs from its cold run")
            if found:
                self.failed += 1
                self.problems.extend(found)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def timed(clock: SpeedClock, fn):
    """(reference seconds, raw wall seconds, value) of one call."""
    start = time.perf_counter()
    value = fn()
    end = time.perf_counter()
    return clock.seconds(start, end), end - start, value


def warm_group(workload: suite.Workload) -> list:
    """One timed group of warm passes."""
    return [workload.warm() for _ in range(workload.warm_group)]


def simulated_results(pairs) -> list[RunResult]:
    return [result for _, result in pairs if isinstance(result, RunResult)]


def measure(workload: suite.Workload, seconds: float) -> tuple[dict, Tally]:
    """Tracing off: the end-to-end metrics (all but ``setup_s``).

    Cold passes repeat until ``seconds`` have gone by (at least one); times
    are medians over them, and every repeat must hash as the first.
    """
    tally = Tally()
    cold_s, cold_wall = [], []
    reference = None
    with SpeedClock() as clock:
        start = time.perf_counter()
        while not cold_s or time.perf_counter() - start < seconds:
            seconds_ref, wall, pairs = timed(clock, workload.cold)
            cold_s.append(seconds_ref)
            cold_wall.append(wall)
            tally.check(pairs, reference)
            if reference is None:
                reference, first = dict(tally.digests), pairs
    results = simulated_results(first)
    cycles = sum(result.cycles for result in results)
    committed = sum(t.committed for result in results for t in result.threads)
    median_s = statistics.median(cold_s)
    metrics = {
        "sim_cycles_per_s": cycles / median_s,
        "uops_per_s": committed / median_s,
        "sweep_cold_s": median_s,
        "campaign_s": median_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fig5_gap_pts": workload.fig5_gap_pts(
            {item.label: result for item, result in first}
        ),
        "failed_ops_frac": tally.failed_frac,
        "cold_passes": len(cold_s),
        "cold_wall_s": statistics.median(cold_wall),
    }
    return metrics, tally


@dataclass
class TracedRun:
    metrics: dict
    tally: Tally
    tracer: Tracer
    #: the traced cold pass, and every RunResult simulated while traced
    cold: list
    simulated: list[RunResult]


def measure_traced(workload: suite.Workload) -> TracedRun:
    """Tracing on: per-layer metrics, checked against an untraced cold pass.

    The untraced cold pass is followed by untraced groups of warm passes,
    which give ``sweep_warm_ms_per_spec``: the median over groups of host
    time ÷ specs served.  Self times are scaled by the traced passes'
    reference-speed factor, so they are in the same reference seconds as
    the end-to-end metrics.
    """
    tally = Tally()
    with SpeedClock() as clock:
        untraced_s, _, untraced = timed(clock, workload.cold)
        tally.check(untraced)
        reference = dict(tally.digests)
        warm_ms_per_spec = []
        for _ in range(workload.warm_groups):
            warm_s, _, group = timed(clock, lambda: warm_group(workload))
            warm_ms_per_spec.append(
                1000.0 * warm_s / sum(len(pairs) for pairs in group)
            )
            for pairs in group:
                tally.check(pairs, reference)
        before = dict(RUNNER_METRICS.counters)
        tracer = Tracer()
        start = time.perf_counter()
        with tracer:
            with tracer.span("pass.cold"):
                traced_s, _, cold = timed(clock, workload.cold)
            warm = []
            for _ in range(workload.warm_groups):
                with tracer.span("pass.warm"):
                    warm += warm_group(workload)
        end = time.perf_counter()
        speed = clock.seconds(start, end) / (end - start)
    after = dict(RUNNER_METRICS.counters)
    tally.check(cold, reference)
    for pairs in warm:
        tally.check(pairs, reference)

    simulated = simulated_results(cold)
    if workload.warm_simulates:
        for pairs in warm:
            simulated += simulated_results(pairs)
    metrics = layer_metrics(tracer, speed, simulated, before, after)
    metrics["sweep_warm_ms_per_spec"] = statistics.median(warm_ms_per_spec)
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    metrics["failed_ops_frac"] = tally.failed_frac
    return TracedRun(metrics, tally, tracer, cold, simulated)


def _layer_paths(layer: str) -> list[str]:
    return sorted({path for _, path, span_layer, _ in SPANS if span_layer == layer})


def layer_metrics(
    tracer: Tracer, speed: float, simulated: list[RunResult], before: dict, after: dict
) -> dict:
    """Self times and counts per layer.

    Self times, µops generated, memory accesses, usage samples, DTM
    boundaries, cache lookups and journal records come from spans, so they
    cover this process only (pool workers run untraced).  Cycle, thermal
    and DTM-action counts come from the ``RunResult``s simulated in the
    traced passes, batch shape and retries from ``RUNNER_METRICS`` deltas.
    """
    self_s = {layer: speed * value for layer, value in tracer.layer_self().items()}
    perf = [result.perf for result in simulated if result.perf is not None]
    threads = [thread for result in simulated for thread in result.threads]

    def delta(name: str) -> int:
        return after.get(name, 0) - before.get(name, 0)

    def ratio(numerator: float, denominator: float, scale: float = 1.0) -> float:
        return scale * numerator / denominator if denominator else 0.0

    uops = tracer.calls("SyntheticSource.next_uop", "ProgramSource.next_uop")
    fetched = sum(thread.fetched for thread in threads)
    lanes = delta("runner.batch_lanes")
    cohorts = delta("runner.batch_cohorts")
    events = [
        result.telemetry["events"]["emitted"]
        for result in simulated
        if result.telemetry is not None
    ]
    return {
        "workloads.self_s": self_s["workloads"],
        "workloads.uops": uops,
        "workloads.ns_per_uop": ratio(self_s["workloads"], uops, 1e9),
        "pipeline.self_s": self_s["pipeline"],
        "pipeline.ns_per_stepped_cycle": ratio(
            self_s["pipeline"], tracer.host_cycles["stepped"], 1e9
        ),
        "pipeline.stepped_cycles": sum(p.stepped_cycles for p in perf),
        "pipeline.idle_skipped_cycles": sum(p.idle_skipped_cycles for p in perf),
        "pipeline.stall_skipped_cycles": sum(p.stall_skipped_cycles for p in perf),
        "pipeline.commit_ratio": ratio(
            sum(thread.committed for thread in threads), fetched
        ),
        "memory.self_s": self_s["memory"],
        "memory.accesses": tracer.calls(*_layer_paths("memory")),
        "power.self_s": self_s["power"],
        "thermal.self_s": self_s["thermal"],
        "thermal.advances": sum(p.thermal_advances for p in perf),
        "thermal.propagator_builds": sum(p.propagator_builds for p in perf),
        "core.self_s": self_s["core"],
        "core.samples": tracer.calls(*_layer_paths("core")),
        "dtm.self_s": self_s["dtm"],
        "dtm.boundaries": tracer.calls(*_layer_paths("dtm")),
        "dtm.actions": sum(
            r.stall_engagements + r.sedations + r.safety_net_engagements
            for r in simulated
        ),
        "batch.self_s": self_s["batch"],
        "batch.lanes": lanes,
        "batch.cohorts": cohorts,
        "batch.splits": delta("runner.batch_splits"),
        "batch.sharing_factor": ratio(lanes, cohorts),
        "parallel.self_s": self_s["parallel"],
        "parallel.cache_hits": tracer.cache["hits"],
        "parallel.cache_misses": tracer.cache["misses"],
        "parallel.retries": delta("runner.retries"),
        "rollup.self_s": self_s["rollup"],
        "durable.records": tracer.calls("CampaignJournal.append"),
        "durable.append_s": speed * tracer.total_s("CampaignJournal.append"),
        "telemetry.events_per_run": statistics.fmean(events) if events else 0.0,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(suite.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--trace-out", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = suite.WORKLOADS[args.workload](args.seed, args.scratch)
    workload.setup()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        run = measure_traced(workload)
        metrics, tally = run.metrics, run.tally
        if args.trace_out is not None:
            args.trace_out.parent.mkdir(parents=True, exist_ok=True)
            args.trace_out.write_text(
                json.dumps(dict(run.tracer.to_dict(), metrics=metrics), indent=1)
            )
    else:
        metrics, tally = measure(workload, args.seconds)
    for problem in tally.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    payload = {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
        "env": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "sim_seed": workload.sim_seed,
            "fault_seed": workload.fault_seed,
        },
    }
    print("RESULT " + json.dumps(payload), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
