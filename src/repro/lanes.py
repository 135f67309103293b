"""The lane-bank clone protocol shared by every lock-step SoA bank.

A batch cohort's per-lane state lives in banks whose leading axis is the
lane (:class:`~repro.core.ewma.EwmaBank`,
:class:`~repro.core.usage.BatchUsageMonitor`,
:class:`~repro.thermal.sensors.BatchCrossingDetector`,
:class:`~repro.sim.soa.LaneRngBank`, :class:`~repro.sim.cohort.LaneDTM`
and :class:`~repro.sim.cohort.Cohort` itself).  When a cohort splits, each
child takes its lanes' rows of every bank.  Each bank class names its
per-lane fields once, in a ``LANE_FIELDS`` tuple, and :func:`gather_lanes`
is the one clone routine: every undeclared field is shared with the
parent by construction, every declared one is gathered.
"""

from __future__ import annotations

import copy

import numpy as np


def gather_lanes(bank, indices):
    """Clone ``bank`` holding only the lanes at ``indices``, in that order.

    The clone is a shallow copy, so every field the class does not list in
    ``LANE_FIELDS`` is shared with ``bank``.  Each listed field is gathered:
    an ``ndarray`` by fancy indexing (a copy, so siblings never alias), a
    ``list`` element by element (the elements move by reference — a lane
    lives in exactly one cohort, so its objects keep one history).
    """
    rows = np.asarray(indices, dtype=np.int64)
    clone = copy.copy(bank)
    for name in type(bank).LANE_FIELDS:
        value = getattr(bank, name)
        if isinstance(value, list):
            value = [value[row] for row in rows.tolist()]
        else:
            value = value[rows]
        setattr(clone, name, value)
    return clone
