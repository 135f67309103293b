"""Heterogeneous-lane SoA support: RNG banks and the sensor gather.

PRs 5–6 batched lanes that shared *everything* the pipeline consumes —
workloads, machine, and seed — which excluded exactly the sweeps the paper
runs (every figure varies workload pairs or seeds).  This module carries
the per-trajectory state that lets :func:`repro.sim.batch.simulate_lockstep`
accept **heterogeneous** lanes:

* :class:`~repro.pipeline.banks.StreamBank` (in the pipeline package,
  beside the streams it registers) — one generated uop stream per distinct
  stream identity, shared across every trajectory group and cohort that
  replays it.  A workload appearing in many mixes — ``gcc`` in
  ``(gcc, swim)`` and ``(gcc, mcf)`` lanes — is generated once per seed,
  not once per mix, and the kernel builds its pipelines on the bank's
  cursors, so forking a pipeline at a cohort split costs O(in-flight uops),
  not a deep copy of generators.
* :class:`LaneRngBank` — the vectorized counterpart of the per-lane
  sensor-noise ``random.Random`` streams.  The **RNG-bank contract**: each
  lane owns one scalar ``Random(sensor_noise_seed)`` and draws one Gaussian
  per block, in block order, at every sensor boundary — the one draw loop
  :func:`repro.thermal.sensors.add_sensor_noise` — and the lane's stream
  object travels with the lane across cohort splits, so its draw sequence
  never depends on which cohort the lane currently rides in.
* :func:`sample_sensors` — the gather of every lane's reported reading
  from its thermal network group's packed state, vectorized over lanes.

Lanes whose workloads halt at different times need no special masking:
the halt is part of the trajectory (a halted thread stops fetching inside
its trajectory group's shared pipeline), and lanes never share a pipeline
across trajectories in the first place.
"""

from __future__ import annotations

import random

import numpy as np

from ..blocks import NUM_BLOCKS
from ..lanes import gather_lanes
from ..thermal.sensors import add_sensor_noise


class LaneRngBank:
    """Per-lane sensor-noise streams, drawn in the exact scalar order.

    Vector counterpart of the ``random.Random(sensor_noise_seed)`` each
    scalar :class:`~repro.thermal.sensors.SensorBank` owns.  NumPy's
    Gaussian generator is *not* bit-compatible with CPython's
    ``Random.gauss``, so the draws themselves stay scalar — the bank's job
    is carrying the streams per lane, skipping all work when no lane is
    noisy (the common case), and gathering on splits.
    """

    #: Per-lane fields, gathered by :meth:`take`.
    LANE_FIELDS = ("sigmas", "rngs")

    def __init__(self, thermals) -> None:
        self.sigmas = np.array([t.sensor_noise_k for t in thermals])
        self.rngs = [
            random.Random(t.sensor_noise_seed)
            if t.sensor_noise_k > 0.0
            else None
            for t in thermals
        ]
        self.noisy = bool((self.sigmas > 0.0).any())

    def fill(self, temps: np.ndarray) -> None:
        """Add each noisy lane's per-block Gaussian error to its row."""
        if not self.noisy:
            return
        for lane, rng in enumerate(self.rngs):
            if rng is not None:
                add_sensor_noise(temps[lane], rng, self.sigmas[lane])

    def take(self, indices: np.ndarray) -> "LaneRngBank":
        """New bank carrying the selected lanes' streams and sigmas.

        The ``Random`` objects move by reference: a lane lives in exactly
        one cohort, so its stream keeps advancing one draw sequence no
        matter how many times its cohort splits.
        """
        clone = gather_lanes(self, indices)
        clone.noisy = bool((clone.sigmas > 0.0).any())
        return clone


def sample_sensors(cohort, temps: np.ndarray) -> None:
    """Fill ``temps`` with every lane's reported reading; record crossings.

    Gathers each lane's temperatures from its network group's packed state
    (one stacked ``take`` when a cohort spans several thermal configs, a
    single broadcast copy otherwise), applies the per-lane noise bank, and
    folds the readings into the crossing detector — the vector form of
    ``SensorBank.sample`` minus fault injection (unbatchable).
    """
    group_list = cohort.group_list
    if len(group_list) == 1:
        group = group_list[0]
        if group.ideal:
            temps[:] = group.model.t_block
        else:
            temps[:] = group.state[:NUM_BLOCKS]
    else:
        stacked = np.stack(
            [
                group.model.t_block if group.ideal
                else group.state[:NUM_BLOCKS]
                for group in group_list
            ]
        )
        np.take(stacked, cohort.group_rows, axis=0, out=temps)
    cohort.rng.fill(temps)
    cohort.detector.observe(temps)
