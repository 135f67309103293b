"""Cohort splits: the lane-bank clone protocol and the keeper rule.

Every lane bank names its per-lane fields in ``LANE_FIELDS`` and clones
through :func:`repro.lanes.gather_lanes`.  These tests split a real
heterogeneous root cohort and walk every attribute of the cohort and of
each bank on each child, so a per-lane field that a class forgets to
declare fails here, at runtime, on the objects the kernel really builds.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.config import scaled_config
from repro.pipeline.banks import StreamBank
from repro.power import EnergyModel
from repro.sim import RunSpec
from repro.sim.batch import _advance_cohort, _build_root
from repro.sim.cohort import Cohort

#: Five lanes: more than the two threads, fewer than the thirteen blocks,
#: so a per-thread or per-block array never passes for a per-lane one.
LANES = 5
POLICIES = ("sedation", "stop_and_go", "dvfs", "ttdfs", "fetch_gating")

#: Per-lane attributes a class rebuilds after the gather instead of
#: gathering: the positional view of a cohort's network groups.
DERIVED = {Cohort: frozenset({"group_list", "group_rows"})}


def lane_specs() -> list[RunSpec]:
    base = scaled_config(time_scale=8_000.0, quantum_cycles=15_000)
    specs = []
    for lane, policy in enumerate(POLICIES):
        config = base.with_policy(policy)
        config = dataclasses.replace(
            config,
            thermal=dataclasses.replace(
                config.thermal,
                emergency_k=config.thermal.emergency_k + 0.5 * lane,
                sensor_noise_k=0.05 * (lane + 1),
                sensor_noise_seed=11 + lane,
            ),
            sedation=dataclasses.replace(
                config.sedation, ewma_shift=2 + lane
            ),
        )
        specs.append(RunSpec(("gcc", "swim"), config))
    return specs


def advanced_root(cycles: int = 600) -> Cohort:
    """A root cohort run far enough that every lane's rows differ."""
    specs = lane_specs()
    config = specs[0].config
    sample_interval = config.sedation.sample_interval
    sensor_interval = config.thermal.sensor_interval
    cohort = _build_root(
        specs, list(range(LANES)), StreamBank(), EnergyModel.default(),
        sample_interval, sensor_interval,
    )
    assert _advance_cohort(
        cohort, cycles, sample_interval, sensor_interval,
        config.thermal.seconds_per_cycle,
    ) is None, "the warm-up must not split the root"
    assert cohort.width == LANES and cohort.core.cycle == cycles
    return cohort


def attribute_names(obj) -> set[str]:
    names = set(getattr(obj, "__dict__", {}))
    for klass in type(obj).__mro__:
        names.update(getattr(klass, "__slots__", ()))
    return {name for name in names if hasattr(obj, name)}


def is_lane_sized(value) -> bool:
    if isinstance(value, np.ndarray):
        return value.ndim >= 1 and len(value) == LANES
    return isinstance(value, list) and len(value) == LANES


def banks_of(parent, child, path="cohort"):
    """Pairs of (path, parent bank, child bank) reachable from a cohort."""
    yield path, parent, child
    for name in sorted(attribute_names(parent)):
        value = getattr(parent, name)
        if hasattr(type(value), "LANE_FIELDS"):
            yield from banks_of(
                value, getattr(child, name), f"{path}.{name}"
            )


def stamp_lane_rows(cohort) -> None:
    """Overwrite every declared per-lane array with distinct rows.

    A short warm-up leaves some per-lane arrays uniform (no emergency has
    fired yet, every quiet band starts at -inf); distinct rows let the walk
    check the partition order too.  The stamped cohort is only split, never
    run.
    """
    for path, bank, _same in banks_of(cohort, cohort):
        for name in type(bank).LANE_FIELDS:
            value = getattr(bank, name)
            if not isinstance(value, np.ndarray):
                continue
            ramp = np.arange(LANES).reshape((LANES,) + (1,) * (value.ndim - 1))
            if value.dtype == bool:
                cells = np.arange(value[0].size).reshape(value.shape[1:])
                value[...] = cells < ramp
            else:
                value[...] = ramp
            rows = {row.tobytes() for row in value}
            assert len(rows) == LANES, f"{path}.{name}"


def assert_gathered(path, name, parent_value, child_value, rows):
    where = f"{path}.{name}"
    if isinstance(parent_value, np.ndarray):
        assert isinstance(child_value, np.ndarray), where
        assert child_value.dtype == parent_value.dtype, where
        np.testing.assert_array_equal(
            child_value, parent_value[rows], err_msg=where
        )
        assert not np.shares_memory(child_value, parent_value), where
    else:
        assert isinstance(child_value, list), where
        assert len(child_value) == len(rows), where
        for row, position in enumerate(rows):
            assert child_value[row] is parent_value[position], where


class TestClonePerLaneFields:
    PARTITIONS = [[3, 0], [4, 1, 2]]

    def test_every_per_lane_field_is_declared_and_gathered(self):
        parent = advanced_root()
        stamp_lane_rows(parent)
        before = {
            path: {
                name: getattr(bank, name)
                for name in attribute_names(bank)
            }
            for path, bank, _same in banks_of(parent, parent)
        }
        children = parent.split(self.PARTITIONS)
        walked = set()
        for rows, child in zip(self.PARTITIONS, children, strict=True):
            for path, bank, clone in banks_of(parent, child):
                walked.add(type(bank))
                declared = type(bank).LANE_FIELDS
                derived = DERIVED.get(type(bank), frozenset())
                names = attribute_names(bank)
                assert set(declared) <= names, (
                    f"{path}: declares missing fields "
                    f"{sorted(set(declared) - names)}"
                )
                assert not set(declared) & derived, path
                lane_sized = {
                    name for name in names
                    if is_lane_sized(before[path][name])
                }
                undeclared = lane_sized - set(declared) - derived
                assert not undeclared, (
                    f"{path}: per-lane fields missing from LANE_FIELDS: "
                    f"{sorted(undeclared)}"
                )
                for name in declared:
                    assert_gathered(
                        path, name, before[path][name],
                        getattr(clone, name), rows,
                    )
        assert {klass.__name__ for klass in walked} == {
            "Cohort", "BatchUsageMonitor", "EwmaBank",
            "BatchCrossingDetector", "LaneRngBank", "LaneDTM",
        }

    def test_derived_group_layout_points_at_each_lanes_group(self):
        parent = advanced_root()
        assert len(parent.groups) == LANES  # one network per emergency_k
        keys = list(parent.group_keys)
        for rows, child in zip(
            self.PARTITIONS, parent.split(self.PARTITIONS), strict=True
        ):
            assert child.group_keys == [keys[position] for position in rows]
            assert list(child.groups) == child.group_keys
            for row, key in enumerate(child.group_keys):
                ordinal = int(child.group_rows[row])
                assert child.group_list[ordinal] is child.groups[key]

    def test_views_follow_their_lanes(self):
        parent = advanced_root()
        for rows, child in zip(
            self.PARTITIONS, parent.split(self.PARTITIONS), strict=True
        ):
            for row, view in enumerate(child.dtm.views):
                assert view.core is child.core
                assert view.bank is child.monitor.bank
                assert view.row == row
            assert child.monitor.core is child.core
            assert child.lanes.tolist() == rows


class TestSplitKeeper:
    @pytest.mark.parametrize(
        ("partitions", "keeper"),
        [
            ([[3, 0], [4, 1, 2]], 1),  # the largest partition keeps
            ([[1, 3], [0, 4], [2]], 0),  # first of the tied largest keeps
        ],
    )
    def test_keeper_reuses_and_others_fork(self, partitions, keeper):
        parent = advanced_root()
        cycle = parent.core.cycle
        counts = [list(row) for row in parent.core.access_counts]
        children = parent.split(partitions)
        for index, child in enumerate(children):
            if index == keeper:
                assert child.core is parent.core
                assert child.accountant is parent.accountant
                for key, group in child.groups.items():
                    assert group is parent.groups[key]
            else:
                assert child.core is not parent.core
                assert child.accountant is not parent.accountant
                assert child.core.cycle == cycle
                assert [list(row) for row in child.core.access_counts] == counts
                for key, group in child.groups.items():
                    assert group is not parent.groups[key]
                    np.testing.assert_array_equal(
                        group.state, parent.groups[key].state
                    )

    def test_advancing_one_child_leaves_siblings_unchanged(self):
        parent = advanced_root()
        children = parent.split([[1, 3], [0, 4], [2]])
        snapshots = [
            (
                child.core.cycle,
                [list(row) for row in child.core.access_counts],
                [group.state.copy() for group in child.group_list],
                child.monitor.bank.values.copy(),
            )
            for child in children
        ]
        config = lane_specs()[0].config
        mover = children[1]
        _advance_cohort(
            mover, mover.core.cycle + 240,
            config.sedation.sample_interval, config.thermal.sensor_interval,
            config.thermal.seconds_per_cycle,
        )
        assert mover.core.cycle > snapshots[1][0]
        for index in (0, 2):
            cycle, counts, states, values = snapshots[index]
            child = children[index]
            assert child.core.cycle == cycle
            assert [list(row) for row in child.core.access_counts] == counts
            for group, state in zip(child.group_list, states, strict=True):
                np.testing.assert_array_equal(group.state, state)
            np.testing.assert_array_equal(child.monitor.bank.values, values)

    def test_adopt_visible_applies_each_childs_flags(self):
        parent = advanced_root()
        threads = len(parent.core.threads)
        # Give the lanes of one partition a different visible belief, as a
        # sedation or throttle decision would, before the split.
        for position in (3, 0):
            view = parent.dtm.views[position]
            view.sedated[threads - 1] = True
            view.throttle[0] = 4
        children = parent.split([[3, 0], [4, 1, 2]])
        for child in children:
            for position in range(child.width):
                assert child.dtm.visible_key(position) == (
                    child.dtm.visible_key(0)
                )
            _stall, _slow, _scale, sedated, throttle = child.dtm.visible_key(0)
            for tid, thread in enumerate(child.core.threads):
                assert thread.sedated == sedated[tid]
                assert thread.throttle_modulus == throttle[tid]
        assert children[0].core.threads[threads - 1].sedated
        assert not children[1].core.threads[threads - 1].sedated
