"""Dynamic thermal management policy interface.

A policy observes sensor readings and controls the pipeline through three
knobs the simulator honors:

* ``global_stall`` — clock-gate the whole core (stop-and-go's mechanism);
* ``slowdown`` / ``power_scale`` — run the core at a fraction of full speed
  with scaled dynamic power (DVFS's mechanism);
* direct per-thread sedation through the core (selective sedation).

All policies see the same sensor stream the paper assumes: one reading per
sensor interval, every block instrumented.
"""

from __future__ import annotations

import math

from ..telemetry.session import NULL_TELEMETRY
from ..thermal.sensors import SensorReading

#: Quiet band of a policy no reading can move: :meth:`DTMPolicy.on_sensor`
#: of the base (ideal) policy.
ALWAYS_QUIET = (-math.inf, math.inf)

#: Empty quiet band: every reading may change the policy's state.
NEVER_QUIET = (math.inf, -math.inf)


class DTMPolicy:
    """Base policy: never throttles (the ideal-sink companion)."""

    name = "ideal"

    def __init__(self) -> None:
        self.global_stall = False
        self.slowdown = 1
        self.power_scale = 1.0
        self.engagements = 0
        #: telemetry session; inert by default, so emission sites can call
        #: it unconditionally at state *transitions* (never per sensor tick)
        self.telemetry = NULL_TELEMETRY

    def attach_telemetry(self, session) -> None:
        """Route this policy's state transitions to a telemetry session."""
        self.telemetry = session

    def on_sensor(self, reading: SensorReading) -> None:
        """Observe a sensor reading; update throttle state."""
        return None

    def quiet_band(self) -> tuple[float, float]:
        """``(low, high)``: hottest temperatures that change nothing now.

        A reading whose hottest block lies strictly between ``low`` and
        ``high`` leaves every attribute of the policy unchanged in its
        current state, so the batch kernel skips the :meth:`on_sensor`
        call for it.  The band assumes no telemetry session and no
        actuator fault model, which batch lanes never carry.  A subclass
        that overrides :meth:`on_sensor` without overriding this method is
        called at every reading.
        """
        if type(self).on_sensor is DTMPolicy.on_sensor:
            return ALWAYS_QUIET
        return NEVER_QUIET

    def describe(self) -> str:
        return f"{self.name} (engaged {self.engagements}x)"
