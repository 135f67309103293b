"""Outside-in layer tracing: wrap each layer's public functions from here.

The simulator is not edited.  :class:`Tracer` replaces a fixed table of
functions and methods (:data:`SPANS`) with wrappers that time every call,
keep a stack of open spans, and charge each span's duration to its parent.
A layer's *self time* is the sum over its spans of the span's duration
minus the part its child spans cover.

Two kinds of span are kept in memory and written when the run ends:

* every span name gets an aggregate (calls, total, self);
* coarse spans (entry points that run a handful of times per pass) are also
  kept one record each, with start, end and the enclosing coarse span, so
  the run's structure can be read back.

Pool workers are forked from the traced process; an ``at_fork`` hook puts
the original functions back in the child, so workers run untraced and their
spans are not seen.  Their work only shows through the results they return.
"""

from __future__ import annotations

import importlib
import os
import time
from dataclasses import dataclass

#: (module, attribute path, layer, coarse).  A module attribute is patched
#: where callers look it up: ``run_many`` and ``_cache_load`` are imported by
#: name into ``durable``, ``simulate_lockstep`` into ``parallel``,
#: ``sample_sensors`` into ``batch``, so those modules are patched too.
SPANS: tuple[tuple[str, str, str, bool], ...] = (
    ("repro.workloads.synthetic", "SyntheticSource.next_uop", "workloads", False),
    ("repro.workloads.synthetic", "SyntheticSource.peek_pc", "workloads", False),
    ("repro.workloads.program_source", "ProgramSource.next_uop", "workloads", False),
    ("repro.workloads.program_source", "ProgramSource.peek_pc", "workloads", False),
    ("repro.pipeline.smt", "SMTCore.run_cycles", "pipeline", False),
    ("repro.pipeline.smt", "SMTCore.skip_cycles", "pipeline", False),
    ("repro.memory.hierarchy", "MemoryHierarchy.access_instruction", "memory", False),
    ("repro.memory.hierarchy", "MemoryHierarchy.access_data", "memory", False),
    ("repro.power.accounting", "PowerAccountant.block_powers", "power", False),
    ("repro.power.accounting", "PowerAccountant.idle_powers", "power", False),
    ("repro.thermal.rcmodel", "RCThermalModel.advance", "thermal", False),
    ("repro.thermal.sensors", "SensorBank.sample", "thermal", False),
    ("repro.sim.batch", "_advance_groups", "thermal", False),
    ("repro.sim.batch", "sample_sensors", "thermal", False),
    ("repro.core.usage", "UsageMonitor.sample", "core", False),
    ("repro.core.usage", "BatchUsageMonitor.sample", "core", False),
    ("repro.dtm.base", "DTMPolicy.on_sensor", "dtm", False),
    ("repro.dtm.stop_and_go", "StopAndGo.on_sensor", "dtm", False),
    ("repro.dtm.dvfs", "DVFS.on_sensor", "dtm", False),
    ("repro.dtm.ttdfs", "TTDFS.on_sensor", "dtm", False),
    ("repro.dtm.fetch_gating", "FetchGating.on_sensor", "dtm", False),
    ("repro.dtm.sedation", "SedationPolicy.on_sensor", "dtm", False),
    ("repro.sim.cohort", "LaneDTM.on_sensor", "dtm", False),
    ("repro.sim.cohort", "LaneDTM.on_sensor_stalled", "dtm", False),
    ("repro.sim.simulator", "Simulator.run", "sim", True),
    ("repro.sim.parallel", "simulate_lockstep", "batch", True),
    ("repro.sim.parallel", "run_many", "parallel", True),
    ("repro.sim.durable", "run_many", "parallel", True),
    ("repro.sim.parallel", "_cache_load", "parallel", False),
    ("repro.sim.durable", "_cache_load", "parallel", False),
    ("repro.sim.rollup", "build_rollup", "rollup", True),
    ("repro.sim.rollup", "write_rollup", "rollup", True),
    ("repro.sim.durable", "build_rollup", "rollup", True),
    ("repro.sim.durable", "write_rollup", "rollup", True),
    ("repro.sim.durable", "run_durable", "durable", True),
    ("repro.sim.durable", "CampaignJournal.append", "durable", True),
)

#: Layers whose self time is reported; ``sim`` is the scalar run loop and
#: ``bench`` the benchmark's own pass spans, kept in the trace file only.
LAYERS = (
    "workloads", "pipeline", "memory", "power", "thermal", "core", "dtm",
    "batch", "parallel", "rollup", "durable", "sim", "bench",
)

#: Tracers installed in this process; the at-fork hook uninstalls them in
#: the child so pool workers run the original code.
_INSTALLED: list[Tracer] = []
_FORK_HOOK_REGISTERED = False


def _uninstall_in_child() -> None:
    for tracer in list(_INSTALLED):
        tracer.uninstall()


@dataclass
class Stat:
    """Aggregate of one span name."""

    layer: str
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Install wrappers, accumulate spans, report per-layer self time."""

    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        #: coarse span records: (id, parent id, name, start, end)
        self.records: list[tuple[int, int, str, float, float]] = []
        #: host-executed pipeline cycles, counted at SMTCore.run_cycles /
        #: skip_cycles (the core's own idle counter splits run_cycles)
        self.host_cycles = {"stepped": 0, "idle_skipped": 0, "stall_skipped": 0}
        self.cache = {"hits": 0, "misses": 0}
        self.batch_lanes = 0
        self._stack: list[float] = []
        self._ids: list[int] = [0]
        self._next_id = 1
        self._patched: list[tuple[object, str, object]] = []

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        global _FORK_HOOK_REGISTERED
        if self._patched:
            raise RuntimeError("tracer already installed")
        for module_name, path, layer, coarse in SPANS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            stat = self.stats.setdefault(path, Stat(layer))
            hooks = self._count_hooks(path)
            wrapper = self._wrap(original, stat, path if coarse else None, hooks)
            setattr(owner, attr, wrapper)
            self._patched.append((owner, attr, original))
        _INSTALLED.append(self)
        if not _FORK_HOOK_REGISTERED:
            os.register_at_fork(after_in_child=_uninstall_in_child)
            _FORK_HOOK_REGISTERED = True

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        if self in _INSTALLED:
            _INSTALLED.remove(self)

    def __enter__(self) -> Tracer:
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- spans ----------------------------------------------------------------

    def span(self, name: str, layer: str = "bench"):
        """A coarse span around the benchmark's own code (a context manager)."""
        stat = self.stats.setdefault(name, Stat(layer))
        return _BenchSpan(self, stat, name)

    def _wrap(self, fn, stat: Stat, record_name: str | None, hooks):
        stack = self._stack
        clock = time.perf_counter
        if record_name is None and hooks is None:
            def traced(*args, **kwargs):
                stack.append(0.0)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    child = stack.pop()
                    stat.calls += 1
                    stat.total_s += elapsed
                    stat.self_s += elapsed - child
                    if stack:
                        stack[-1] += elapsed
            return traced

        def traced_full(*args, **kwargs):
            if record_name is not None:
                span_id = self._open_record()
            before = hooks[0](args) if hooks is not None else None
            stack.append(0.0)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                elapsed = end - start
                child = stack.pop()
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - child
                if stack:
                    stack[-1] += elapsed
                if hooks is not None:
                    hooks[1](args, before, result)
                if record_name is not None:
                    self._close_record(span_id, record_name, start, end)
        return traced_full

    def _open_record(self) -> int:
        span_id = self._next_id
        self._next_id += 1
        self._ids.append(span_id)
        return span_id

    def _close_record(self, span_id: int, name: str, start: float, end: float) -> None:
        self._ids.pop()
        self.records.append((span_id, self._ids[-1], name, start, end))

    def _count_hooks(self, path: str):
        """(before, after) count hooks for the spans that count something."""
        host, cache = self.host_cycles, self.cache
        if path == "SMTCore.run_cycles":
            def idle_before(args):
                return args[0].perf_idle_skipped

            def run_after(args, idle_at_start, result) -> None:
                idle = args[0].perf_idle_skipped - idle_at_start
                host["idle_skipped"] += idle
                host["stepped"] += max(0, args[1]) - idle
            return idle_before, run_after
        if path == "SMTCore.skip_cycles":
            def skip_after(args, _, result) -> None:
                host["stall_skipped"] += max(0, args[1])
            return _nothing, skip_after
        if path == "_cache_load":
            def enabled(args):
                return args[0] is not None

            def load_after(args, looked_up, result) -> None:
                if looked_up:
                    cache["hits" if result is not None else "misses"] += 1
            return enabled, load_after
        if path == "simulate_lockstep":
            def lanes_after(args, _, result) -> None:
                self.batch_lanes += len(args[0])
            return _nothing, lanes_after
        return None

    # -- reporting --------------------------------------------------------------

    def layer_self(self) -> dict[str, float]:
        totals = dict.fromkeys(LAYERS, 0.0)
        for stat in self.stats.values():
            totals[stat.layer] = totals.get(stat.layer, 0.0) + stat.self_s
        return totals

    def calls(self, *paths: str) -> int:
        return sum(self.stats[path].calls for path in paths if path in self.stats)

    def total_s(self, *paths: str) -> float:
        return sum(self.stats[path].total_s for path in paths if path in self.stats)

    def to_dict(self) -> dict:
        return {
            "layers_self_s": self.layer_self(),
            "spans": {
                name: {
                    "layer": stat.layer,
                    "calls": stat.calls,
                    "total_s": stat.total_s,
                    "self_s": stat.self_s,
                }
                for name, stat in sorted(self.stats.items())
            },
            "host_cycles": dict(self.host_cycles),
            "cache": dict(self.cache),
            "records": [
                {"id": i, "parent": p, "name": n, "start": s, "end": e}
                for i, p, n, s, e in sorted(self.records)
            ],
        }


class _BenchSpan:
    def __init__(self, tracer: Tracer, stat: Stat, name: str) -> None:
        self.tracer = tracer
        self.stat = stat
        self.name = name

    def __enter__(self):
        self.span_id = self.tracer._open_record()
        self.tracer._stack.append(0.0)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        elapsed = end - self.start
        stack = self.tracer._stack
        child = stack.pop()
        self.stat.calls += 1
        self.stat.total_s += elapsed
        self.stat.self_s += elapsed - child
        if stack:
            stack[-1] += elapsed
        self.tracer._close_record(self.span_id, self.name, self.start, end)


def _nothing(args) -> None:
    return None
