"""The paper's weighted-average access-rate estimator.

At every sampling instant (every 1000 cycles in the paper)::

    Wt.Avg = (1 - x) * Wt.Avg + x * access_rate

with ``x = 1/2**shift`` so the multiplications reduce to shift operations —
the paper uses ``x = 1/128`` (a 7-bit shift), retaining memory over roughly
``2**shift`` samples (~0.5 M cycles at the paper's sampling rate).

Two implementations are provided: a float :class:`Ewma` used by the
simulator, and :class:`FixedPointEwma`, the bit-exact integer datapath a
hardware implementation would use (one subtract, one shift, one add), kept to
demonstrate the paper's claim that the monitor is cheap and used in tests to
bound the fixed-point error.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from ..lanes import gather_lanes


class Ewma:
    """Float exponentially weighted moving average with power-of-two x."""

    __slots__ = ("shift", "x", "value", "samples", "missed")

    def __init__(self, shift: int, initial: float = 0.0) -> None:
        if not 0 <= shift <= 30:
            raise ConfigError("EWMA shift out of range [0, 30]")
        self.shift = shift
        self.x = 1.0 / (1 << shift)
        self.value = initial
        self.samples = 0
        self.missed = 0

    def update(self, sample: float) -> float:
        """Blend in one sample and return the new average."""
        self.value += (sample - self.value) * self.x
        self.samples += 1
        return self.value

    def miss(self) -> float:
        """Record a missed sampling tick; the average is left untouched.

        The hardware datapath has no "no sample arrived" input: a missed
        tick simply does not clock the register, and the *next* sample's
        rate is computed over the widened elapsed window (see
        :meth:`repro.core.usage.UsageMonitor.sample`).  The counter exists
        so fault-injection tests can assert how many ticks were lost.
        """
        self.missed += 1
        return self.value

    def reset(self, value: float = 0.0) -> None:
        self.value = value
        self.samples = 0
        self.missed = 0

    @property
    def window_samples(self) -> int:
        """Effective memory, in samples (the paper's '1000 sample points')."""
        return 1 << self.shift


class EwmaBank:
    """A whole array of :class:`Ewma` registers updated in one step.

    The batch engine (:mod:`repro.sim.batch`) tracks one EWMA per
    ``(lane, thread, block)`` triple; updating them one object at a time
    would dominate the vectorized sample loop.  The bank stores the values
    as one ndarray and applies the *identical* float expression
    ``value + (sample - value) * x`` elementwise, so every element is
    bit-equal to the scalar :class:`Ewma` fed the same samples.

    ``shifts`` may be a scalar or any array broadcastable against ``shape``
    (e.g. ``(B, 1, 1)`` for per-lane blend factors); ``x = 2**-shift`` is
    computed with ``ldexp`` so it is the exact power of two ``Ewma`` uses,
    and is expanded to one factor per register so it splits with its lane.
    """

    __slots__ = ("x", "values", "samples", "missed")

    #: Per-lane (leading-axis) fields, gathered by :meth:`take`.
    LANE_FIELDS = ("x", "values")

    def __init__(
        self, shifts: int | np.ndarray, shape: tuple[int, ...]
    ) -> None:
        shift_arr = np.asarray(shifts, dtype=np.int64)
        if np.any((shift_arr < 0) | (shift_arr > 30)):
            raise ConfigError("EWMA shift out of range [0, 30]")
        self.x = np.ldexp(1.0, -np.broadcast_to(shift_arr, shape))
        self.values = np.zeros(shape)
        self.samples = 0
        self.missed = 0

    def update(self, samples: np.ndarray) -> np.ndarray:
        """Blend one broadcastable sample array into every register."""
        self.values = self.values + (samples - self.values) * self.x
        self.samples += 1
        return self.values

    def update_where(
        self, samples: np.ndarray, mask: np.ndarray
    ) -> np.ndarray:
        """Blend one sample array into the registers selected by ``mask``.

        Registers where ``mask`` (broadcastable against the bank shape) is
        False are not clocked — their values come back bit-identical, the
        scalar monitor's frozen-snapshot behavior for sedated threads.
        Clocked registers see the exact :meth:`update` expression, so a
        full-True mask is indistinguishable from :meth:`update`.
        """
        updated = self.values + (samples - self.values) * self.x
        self.values = np.where(mask, updated, self.values)
        self.samples += 1
        return self.values

    def take(self, indices: np.ndarray) -> "EwmaBank":
        """New bank holding the selected leading-axis (lane) slices.

        Used when a lock-step cohort splits: each child cohort carries away
        its lanes' registers and blend factors (see
        :func:`~repro.lanes.gather_lanes`).
        """
        return gather_lanes(self, indices)

    def miss(self) -> np.ndarray:
        """Record one missed tick bank-wide; no register is clocked."""
        self.missed += 1
        return self.values

    def reset(self) -> None:
        self.values = np.zeros_like(self.values)
        self.samples = 0
        self.missed = 0


class FixedPointEwma:
    """Bit-exact integer EWMA: ``avg += (sample - avg) >> shift``.

    ``fraction_bits`` scales samples into fixed point so small rates survive
    the shift.  All arithmetic is integer adds/subtracts/shifts — exactly the
    "peripheral arithmetic logic" the paper budgets per resource per thread.
    """

    __slots__ = ("shift", "fraction_bits", "raw", "samples", "missed")

    def __init__(self, shift: int, fraction_bits: int = 16) -> None:
        if not 0 <= shift <= 30:
            raise ConfigError("EWMA shift out of range [0, 30]")
        if not 0 <= fraction_bits <= 32:
            raise ConfigError("fraction_bits out of range [0, 32]")
        self.shift = shift
        self.fraction_bits = fraction_bits
        self.raw = 0
        self.samples = 0
        self.missed = 0

    def update(self, sample: float) -> float:
        scaled = int(round(sample * (1 << self.fraction_bits)))
        self.raw += (scaled - self.raw) >> self.shift
        self.samples += 1
        return self.value

    def miss(self) -> float:
        """Missed tick: the register is not clocked (see :meth:`Ewma.miss`)."""
        self.missed += 1
        return self.value

    @property
    def value(self) -> float:
        return self.raw / (1 << self.fraction_bits)

    def reset(self) -> None:
        self.raw = 0
        self.samples = 0
        self.missed = 0
