"""Quiet bands: the contract that lets the batch kernel skip a policy call.

Every DTM policy reports ``quiet_band() -> (low, high)``, the hottest
temperatures over which its ``on_sensor`` changes nothing in its current
state.  The lock-step kernel (:class:`repro.sim.cohort.LaneDTM`) calls a
lane's policy only when its reading leaves that band, so a band that is
too wide would silently drop a DTM decision.  The property tests drive
each of the six policies through a random reading sequence and then feed
a reading strictly inside the band: no attribute may change.  The kernel
test checks the filter itself on a mixed cohort, against scalar runs.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.blocks import NUM_BLOCKS
from repro.config import (
    EMERGENCY_TEMPERATURE_K,
    LOWER_THRESHOLD_K,
    NORMAL_OPERATING_K,
    UPPER_THRESHOLD_K,
    scaled_config,
)
from repro.core.ewma import EwmaBank
from repro.dtm import DTMPolicy, StopAndGo
from repro.sim import RunSpec
from repro.sim.batch import simulate_lockstep
from repro.sim.cohort import LaneView
from repro.sim.results import result_to_dict
from repro.sim.simulator import build_pipeline, build_policy, run_workloads
from repro.thermal import RCThermalModel
from repro.thermal.sensors import SensorReading

POLICIES = ("ideal", "stop_and_go", "dvfs", "ttdfs", "fetch_gating", "sedation")

#: The default Kelvin ladder, plus the TTDFS tracking point (emergency - 1).
LADDER = (
    NORMAL_OPERATING_K,
    LOWER_THRESHOLD_K,
    UPPER_THRESHOLD_K,
    EMERGENCY_TEMPERATURE_K - 1.0,
    EMERGENCY_TEMPERATURE_K,
)

CONFIG = scaled_config(time_scale=8_000.0, quantum_cycles=15_000)
CORE = build_pipeline(CONFIG, ["gcc", "swim"])
THERMAL = RCThermalModel(CONFIG.thermal)

#: Per-block distance below a reading's hottest block.
drops = st.lists(
    st.one_of(st.just(0.0), st.floats(0.0, 8.0, allow_nan=False)),
    min_size=NUM_BLOCKS,
    max_size=NUM_BLOCKS,
)
readings = st.lists(
    st.tuples(
        st.integers(1, 40_000),
        st.one_of(
            st.sampled_from(LADDER), st.floats(350.0, 362.0, allow_nan=False)
        ),
        drops,
    ),
    max_size=30,
)


def reading(cycle: int, hottest: float, below: list[float]) -> SensorReading:
    temps = hottest - np.array(below)
    temps[int(np.argmin(below))] = hottest
    return SensorReading(cycle, temps)


def make_policy(name: str, mode: str, cooling: int, ewma: np.ndarray):
    """A policy of ``name``; sedation reads EWMAs through a lane view."""
    config = dataclasses.replace(
        CONFIG.with_policy(name),
        sedation=dataclasses.replace(
            CONFIG.sedation,
            sedation_mode=mode,
            expected_cooling_cycles=cooling,
        ),
    )
    bank = EwmaBank(config.sedation.ewma_shift, ewma.shape)
    bank.values = ewma
    view = LaneView(CORE, bank, 0)
    return build_policy(config, view, view, THERMAL)


def snapshot(policy) -> dict:
    """Every attribute a reading could change, deep-copied."""
    state = {
        key: value
        for key, value in vars(policy).items()
        if key not in ("telemetry", "controller")
    }
    controller = getattr(policy, "controller", None)
    if controller is not None:
        state["controller"] = {
            key: value
            for key, value in vars(controller).items()
            if key not in ("core", "monitor", "config", "telemetry", "reports")
        }
        state["reports"] = list(vars(controller.reports).values())
        view = controller.core
        state["flags"] = (view.sedated, view.throttle)
    return copy.deepcopy(state)


@pytest.mark.parametrize("name", POLICIES)
@settings(max_examples=80, deadline=None)
@given(
    sequence=readings,
    mode=st.sampled_from(("gate", "throttle")),
    cooling=st.integers(1, 60_000),
    ewma=st.lists(
        st.floats(0.0, 4.0, allow_nan=False),
        min_size=2 * NUM_BLOCKS,
        max_size=2 * NUM_BLOCKS,
    ),
    where=st.one_of(
        st.sampled_from(("low", "high")), st.floats(0.0, 1.0)
    ),
    below=drops,
)
def test_reading_inside_quiet_band_changes_nothing(
    name, sequence, mode, cooling, ewma, where, below
):
    policy = make_policy(
        name, mode, cooling, np.array(ewma).reshape(1, 2, NUM_BLOCKS)
    )
    cycle = 0
    for step, peak, spread in sequence:
        cycle += step
        policy.on_sensor(reading(cycle, peak, spread))

    low, high = policy.quiet_band()
    lo, hi = max(low, 340.0), min(high, 370.0)
    assume(lo < hi)
    if where == "low":
        hottest = math.nextafter(lo, math.inf)
    elif where == "high":
        hottest = math.nextafter(hi, -math.inf)
    else:
        hottest = lo + where * (hi - lo)
    assume(low < hottest < high)

    before = snapshot(policy)
    policy.on_sensor(reading(cycle + 1, hottest, below))
    assert snapshot(policy) == before


def test_quiet_bands_follow_policy_state():
    ewma = np.zeros((1, 2, NUM_BLOCKS))
    stop_go = make_policy("stop_and_go", "gate", 100, ewma)
    assert stop_go.quiet_band() == (-math.inf, EMERGENCY_TEMPERATURE_K)
    stop_go.on_sensor(SensorReading(1, np.full(NUM_BLOCKS, 359.0)))
    assert stop_go.quiet_band() == (NORMAL_OPERATING_K, math.inf)
    assert make_policy("ideal", "gate", 100, ewma).quiet_band() == (
        -math.inf, math.inf,
    )
    ttdfs = make_policy("ttdfs", "gate", 100, ewma)
    ttdfs.on_sensor(SensorReading(1, np.full(NUM_BLOCKS, 358.5)))
    low, high = ttdfs.quiet_band()
    assert not low < high  # stepped: every reading may move the clock


# -- the kernel's band filter on a mixed cohort -------------------------------


def canonical(result) -> str:
    payload = result_to_dict(result)
    payload["perf"]["wall_seconds"] = 0.0
    return json.dumps(payload, sort_keys=True)


def test_kernel_calls_only_lanes_outside_their_band(monkeypatch):
    base = scaled_config(time_scale=8_000.0, quantum_cycles=15_000)
    hot_limit = dataclasses.replace(
        base.thermal, emergency_k=375.0, normal_operating_k=370.0
    )
    configs = [
        base.with_policy("ideal"),
        # never reaches its emergency point: stays inside its band
        dataclasses.replace(base, thermal=hot_limit).with_policy("stop_and_go"),
        # the attack drives it past emergency: it must act
        base.with_policy("stop_and_go"),
    ]
    specs = [RunSpec(("gzip", "variant2"), config) for config in configs]

    calls: list[tuple[int, float, tuple[float, float]]] = []
    original = StopAndGo.on_sensor

    def spy(self, reading):
        calls.append((id(self), reading.hottest_k, self.quiet_band()))
        original(self, reading)

    def never(self, reading):
        raise AssertionError("the ideal lane left an all-quiet band")

    monkeypatch.setattr(StopAndGo, "on_sensor", spy)
    monkeypatch.setattr(DTMPolicy, "on_sensor", never)
    metrics: dict = {}
    batched, deferred = simulate_lockstep(specs, metrics)
    monkeypatch.undo()

    assert not deferred and metrics["trajectories"] == 1
    assert metrics["splits"] >= 1  # the acting lane left the shared cohort
    for _, hottest, (low, high) in calls:
        assert not low < hottest < high  # only acting readings reach a policy
    callers = {caller for caller, _, _ in calls}
    assert len(callers) == 1  # the quiet stop-and-go lane was never called
    assert batched[2].stall_engagements > 0
    assert batched[1].stall_engagements == 0
    for index, config in enumerate(configs):
        scalar = run_workloads(config, ["gzip", "variant2"])
        assert canonical(batched[index]) == canonical(scalar), config.dtm_policy
