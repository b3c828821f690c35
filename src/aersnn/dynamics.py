"""LIF neuron and spike-trace parameters.

A neuron carries a membrane voltage ``v`` and an activity trace ``x``. Per
timestep the cycle is: integrate incoming weights into ``v``, leak both
quantities one iterative step, then compare ``v`` against the threshold.
A crossing resets ``v`` hard to the rest level (no refractory period) and
bumps the trace by ``alpha`` up to the ``x_max`` ceiling.

The event engine applies these update rules to whole neuron populations
(see ``event_engine``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .numerics import DecayParams


@dataclass(frozen=True)
class LifParams:
    v_rest: float
    v_thresh: float
    tau_v: float
    dt: float = 1.0

    def __post_init__(self) -> None:
        if self.v_thresh <= self.v_rest:
            raise ValueError(
                f"v_thresh ({self.v_thresh}) must exceed v_rest ({self.v_rest})"
            )
        # Validates tau_v > 0 and dt/tau_v < 1.
        DecayParams(tau=self.tau_v, dt=self.dt)


@dataclass(frozen=True)
class TraceParams:
    tau_x: float
    alpha: float
    x_max: float = 10.0
    dt: float = 1.0

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.x_max < self.alpha:
            raise ValueError(
                f"x_max ({self.x_max}) must be at least alpha ({self.alpha})"
            )
        DecayParams(tau=self.tau_x, dt=self.dt)
