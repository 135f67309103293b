"""Cohorts: lock-step lane groups, each lane driving its own DTM policy.

The batch engine (:mod:`repro.sim.batch`) runs one SMT pipeline on behalf
of many config-variant lanes.  That is sound exactly as long as every lane
would drive the pipeline identically — and a DTM action is the one thing
that breaks it.  Every lane therefore carries the very policy object a
scalar :class:`~repro.sim.simulator.Simulator` would build for its config
(:func:`~repro.sim.simulator.build_policy`), held by :class:`LaneDTM`, and
this module defines the **pipeline-visible divergence contract** that
decides when lanes can no longer share a pipeline:

*Pipeline-visible state* is everything the scalar run loop or the shared
power accountant consumes:

* ``global_stall`` — the policy's stall flag (stop-and-go, sedation's
  safety net), which selects the run loop's skip branch;
* ``slowdown`` — the DVFS/TTDFS/fetch-gating frequency divisor, which
  changes how a span is split into run and skip cycles;
* ``power_scale`` — the dynamic-power factor handed to
  ``PowerAccountant.block_powers`` (the accountant advances its snapshot
  once per boundary, so lanes sharing it must agree on the scale);
* the per-thread sedated / throttle actuation flags, which gate fetch
  inside the pipeline.

Everything else a policy owns — engagement counters, the sedation
controller's per-resource FSM states, deadlines, and culprit-membership
sets — is *invisible*: it influences nothing until it changes one of the
visible knobs, so it rides along per lane without constraining the batch.

A :class:`Cohort` is a set of lanes whose visible state (and therefore
whole visible *history*) is identical.  At every sensor boundary
:class:`LaneDTM` calls the ``on_sensor`` of each lane whose hottest
reading falls outside its policy's quiet band; if the lanes' visible
tuples then disagree, the cohort **splits**: lanes are partitioned by
:meth:`LaneDTM.visible_key`, the largest partition keeps the live pipeline,
and every other partition forks the pipeline and accountant at the boundary
(:meth:`~repro.pipeline.smt.SMTCore.fork`) — a snapshot of the shared
prefix — and continues as its own (possibly width-1) lock-step group.
Nothing ever restarts from cycle 0.  Each child takes its lanes' rows of
every lane bank through :func:`~repro.lanes.gather_lanes`.

Exactness is by construction: the decisions are the scalar policies' own
``on_sensor`` calls, fed the lane's reported reading; a sedation
controller sees the cohort's pipeline and EWMA bank through its lane's
:class:`LaneView`.  A lane is skipped only inside its quiet band, where
its ``on_sensor`` would change nothing.
"""

from __future__ import annotations

import dataclasses
import json
from typing import NamedTuple

import numpy as np

from ..lanes import gather_lanes
from ..thermal import RCThermalModel
from ..thermal.sensors import SensorReading


def network_key(thermal) -> str:
    """Grouping key for lanes that share one RC thermal network.

    Everything in the thermal config feeds the network except the sensor
    fields: noise perturbs only *reported* values (per lane), and the
    sensor interval is already batch-shared.  Built by deletion, so a new
    ThermalConfig field lands in the key (= splits groups) by default.
    """
    payload = dataclasses.asdict(thermal)
    del payload["sensor_noise_k"]
    del payload["sensor_noise_seed"]
    del payload["sensor_interval"]
    return json.dumps(payload, sort_keys=True)


class NetworkGroup:
    """One shared RC network: lanes with equal thermal configs.

    All lanes of a group observe the same block powers (one pipeline per
    cohort), so they share a single packed-state trajectory — the group
    advances one state vector, not one per lane.
    """

    __slots__ = ("model", "state", "ideal", "advances")

    def __init__(self, model: RCThermalModel) -> None:
        self.model = model
        self.state = model.state_vector()
        self.ideal = model.package.ideal
        self.advances = 0

    def fork(self) -> "NetworkGroup":
        """Independent continuation for a split-off cohort.

        The model fork shares the solved eigenbasis but owns its propagator
        cache and perf counters from here on — exactly the cache/counter
        state a scalar run would hold at the split cycle.
        """
        clone = NetworkGroup.__new__(NetworkGroup)
        clone.model = self.model.fork()
        clone.state = self.state.copy()
        clone.ideal = self.ideal
        clone.advances = self.advances
        return clone


class LaneThread(NamedTuple):
    """One thread as a lane's sedation controller sees it."""

    tid: int
    sedated: bool
    throttle_modulus: int
    halted: bool


class LaneView:
    """One lane's window onto its cohort: the controller's core and monitor.

    A :class:`~repro.core.sedation.SelectiveSedationController` reads
    threads, actuates them, and reads EWMAs through the objects it was
    built with.  Handed this view for both, it actuates the lane's own
    *belief* flags (which :meth:`LaneDTM.visible_key` reports and
    :meth:`Cohort.adopt_visible` applies to the shared pipeline), reads
    ``halted`` from the shared pipeline, and reads EWMAs from the lane's
    row of the cohort's :class:`~repro.core.ewma.EwmaBank`.
    """

    __slots__ = ("sedated", "throttle", "core", "bank", "row")

    def __init__(self, core, bank, row: int) -> None:
        threads = len(core.threads)
        self.sedated = [False] * threads
        self.throttle = [0] * threads
        self.bind(core, bank, row)

    def bind(self, core, bank, row: int) -> None:
        """Point the view at the cohort the lane now rides in."""
        self.core = core
        self.bank = bank
        self.row = row

    @property
    def threads(self) -> list[LaneThread]:
        return [
            LaneThread(tid, self.sedated[tid], self.throttle[tid], thread.halted)
            for tid, thread in enumerate(self.core.threads)
        ]

    def set_sedated(self, tid: int, sedated: bool) -> None:
        self.sedated[tid] = sedated

    def set_throttled(self, tid: int, modulus: int) -> None:
        self.throttle[tid] = modulus

    def weighted_average(self, tid: int, block: int) -> float:
        return float(self.bank.values[self.row, tid, block])


class LaneDTM:
    """The DTM policies of one cohort's lanes behind a quiet-band filter.

    ``policies[i]`` is lane ``i``'s scalar policy and ``views[i]`` its
    :class:`LaneView`; ``low``/``high`` cache each policy's
    :meth:`~repro.dtm.base.DTMPolicy.quiet_band`, so a boundary costs one
    vector compare and an ``on_sensor`` call per lane outside its band.
    """

    #: Per-lane fields, gathered by :meth:`take`.
    LANE_FIELDS = ("policies", "views", "low", "high")

    def __init__(self, policies: list, views: list[LaneView]) -> None:
        self.policies = policies
        self.views = views
        bands = [policy.quiet_band() for policy in policies]
        self.low = np.array([band[0] for band in bands])
        self.high = np.array([band[1] for band in bands])

    def on_sensor(self, cycle: int, temps: np.ndarray) -> bool:
        """Feed every acting lane its reading ``temps[lane]``.

        Returns True when some lane's visible state changed (the caller
        then partitions by :meth:`visible_key`).
        """
        hottest = temps.max(axis=1)
        acting = (hottest <= self.low) | (hottest >= self.high)
        if not acting.any():
            return False
        changed = False
        for lane in np.flatnonzero(acting).tolist():
            policy = self.policies[lane]
            before = self.visible_key(lane)
            policy.on_sensor(SensorReading(cycle, temps[lane].copy()))
            self.low[lane], self.high[lane] = policy.quiet_band()
            if self.visible_key(lane) != before:
                changed = True
        return changed

    #: A stalled cohort's boundary is the same dispatch: only stop-and-go
    #: and sedation lanes stall, and their bands then hold just the resume
    #: check.  The separate name keeps stalled boundaries apart in traces.
    on_sensor_stalled = on_sensor

    # -- splitting ----------------------------------------------------------

    def visible_key(self, lane: int) -> tuple:
        """The pipeline-visible tuple partitioning lanes into cohorts."""
        policy = self.policies[lane]
        view = self.views[lane]
        return (
            policy.global_stall,
            policy.slowdown,
            policy.power_scale,
            tuple(view.sedated),
            tuple(view.throttle),
        )

    def take(self, indices: np.ndarray, core, bank) -> "LaneDTM":
        """New bank for the selected lanes, riding ``core`` and ``bank``.

        Policies and views move by reference, like the
        :class:`~repro.sim.soa.LaneRngBank` streams: a lane lives in
        exactly one cohort, so its policy keeps one history across splits.
        """
        clone = gather_lanes(self, indices)
        for row, view in enumerate(clone.views):
            view.bind(core, bank, row)
        return clone


class Cohort:
    """One lock-step group: lanes with identical pipeline-visible history.

    Owns one pipeline (+ power accountant), one usage-monitor bank, one
    crossing detector, the per-lane sensor-noise RNG bank, the DTM bank,
    and one thermal network group per distinct thermal config among its
    lanes.  ``lanes`` maps row position → original spec index;
    ``workloads`` names the trajectory every lane of this cohort shares
    (heterogeneous batches run one cohort tree per trajectory).
    """

    #: Per-lane fields, gathered by :meth:`_take`; ``group_list`` and
    #: ``group_rows`` are derived from ``group_keys`` and rebuilt instead.
    LANE_FIELDS = ("lanes", "group_keys")

    __slots__ = (
        "lanes",
        "workloads",
        "core",
        "accountant",
        "monitor",
        "detector",
        "rng",
        "dtm",
        "groups",
        "group_keys",
        "group_list",
        "group_rows",
        "stalled",
        "slowdown",
        "power_scale",
        "next_sample",
        "next_sensor",
        "last_thermal",
    )

    def __init__(
        self,
        lanes,
        workloads,
        core,
        accountant,
        monitor,
        detector,
        rng,
        dtm,
        groups,
        group_keys,
        next_sample: int,
        next_sensor: int,
    ) -> None:
        self.lanes = np.asarray(lanes, dtype=np.int64)
        self.workloads = tuple(workloads)
        self.core = core
        self.accountant = accountant
        self.monitor = monitor
        self.detector = detector
        self.rng = rng
        self.dtm = dtm
        self.group_keys = list(group_keys)
        self._bind_groups(dict(groups))
        self.stalled = False
        self.slowdown = 1
        self.power_scale = 1.0
        self.next_sample = next_sample
        self.next_sensor = next_sensor
        self.last_thermal = core.cycle

    @property
    def width(self) -> int:
        return len(self.lanes)

    def _bind_groups(self, groups: dict) -> None:
        """Install ``groups`` and rebuild the positional view of them.

        ``groups`` preserves first-occurrence order of ``group_keys``, so
        the ordinal of a lane's group is stable across splits — the sensor
        gather (:func:`repro.sim.soa.sample_sensors`) indexes the stacked
        group states with the lane → ordinal array instead of a per-lane
        dict lookup.
        """
        ordinals = {key: position for position, key in enumerate(groups)}
        self.groups = groups
        self.group_list = list(groups.values())
        self.group_rows = np.array(
            [ordinals[key] for key in self.group_keys], dtype=np.int64
        )

    def adopt_visible(self) -> None:
        """Make the cohort (and its pipeline) match its lanes' visible state.

        Callable only when every lane agrees (post-partition invariant), so
        lane 0 speaks for the cohort.  Thread flags are applied through the
        core's own setters, exactly as the scalar controller would.
        """
        stalled, slowdown, power_scale, sedated, throttle = (
            self.dtm.visible_key(0)
        )
        self.stalled = stalled
        self.slowdown = slowdown
        self.power_scale = power_scale
        core = self.core
        for tid, thread in enumerate(core.threads):
            if thread.sedated != sedated[tid]:
                core.set_sedated(tid, sedated[tid])
            if thread.throttle_modulus != throttle[tid]:
                core.set_throttled(tid, throttle[tid])

    def split(self, partitions: list[list[int]]) -> list["Cohort"]:
        """Divide into one child per partition of lane positions.

        The largest partition (first on ties) keeps the live pipeline,
        accountant, thermal models, and propagator caches; every other
        child forks them at this boundary (``SMTCore.fork``,
        ``PowerAccountant.fork``, ``NetworkGroup.fork``) — the shared
        prefix becomes each child's own history.  All children are built
        before any visible state is applied, so every fork snapshots the
        same pre-divergence pipeline.
        """
        keeper = max(
            range(len(partitions)), key=lambda index: len(partitions[index])
        )
        children = [
            self._take(positions, reuse=index == keeper)
            for index, positions in enumerate(partitions)
        ]
        for child in children:
            child.adopt_visible()
        return children

    def _take(self, positions: list[int], reuse: bool) -> "Cohort":
        indices = np.asarray(positions, dtype=np.int64)
        child = gather_lanes(self, indices)
        if not reuse:
            # Structured fork: the in-flight uop graph, caches, and
            # counters are cloned (identity-preserving); stream cursors
            # fork in O(1); the forked accountant points at the forked
            # core.
            child.core = self.core.fork()
            child.accountant = self.accountant.fork(child.core)
        child.monitor = self.monitor.take(indices, child.core)
        child.detector = self.detector.take(indices)
        child.rng = self.rng.take(indices)
        child.dtm = self.dtm.take(indices, child.core, child.monitor.bank)
        child._bind_groups({
            key: self.groups[key] if reuse else self.groups[key].fork()
            for key in dict.fromkeys(child.group_keys)
        })
        return child
