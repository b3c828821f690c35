"""Synaptic weight update rules.

The learning path uses trace-based STDP: each weight update reads only the
local pre- or post-synaptic activity trace, so no spike history is stored.

* depression (LTD), applied when the pre-neuron spikes:
      w' = clamp(w - alpha_post * x_post)
* potentiation (LTP), applied when the post-neuron spikes:
      w' = clamp(w + alpha_pre * x_pre)
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class StdpParams:
    alpha_pre: float
    alpha_post: float
    w_min: float = 0.0
    w_max: float = 1.0

    def __post_init__(self) -> None:
        if self.alpha_pre <= 0:
            raise ValueError(f"alpha_pre must be positive, got {self.alpha_pre}")
        if self.alpha_post <= 0:
            raise ValueError(f"alpha_post must be positive, got {self.alpha_post}")
        if self.w_min >= self.w_max:
            raise ValueError(
                f"w_min ({self.w_min}) must be below w_max ({self.w_max})"
            )
