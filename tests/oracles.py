"""Test-only oracles: closed-form references the engine's iterative
update rules are checked against. Nothing in ``aersnn`` calls them."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class PairStdpParams:
    a_pre: float
    a_post: float
    tau_pre: float
    tau_post: float

    def __post_init__(self) -> None:
        for name in ("a_pre", "a_post", "tau_pre", "tau_post"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class SpikeTrain:
    """Strictly increasing spike timestamps of one neuron."""

    times: tuple[int, ...]

    def __post_init__(self) -> None:
        for a, b in zip(self.times, self.times[1:]):
            if b <= a:
                raise ValueError(f"spike times must strictly increase, got {a} then {b}")


def pair_stdp_delta(pre: SpikeTrain, post: SpikeTrain, p: PairStdpParams) -> float:
    """Pair-based weight change summed over all (t_pre, t_post) pairs.

    A pair with the post spike later (dt > 0) potentiates by
    ``a_pre * exp(-dt / tau_pre)``; a pair with the post spike earlier
    depresses by ``a_post * exp(dt / tau_post)``. Coincident pairs
    (dt == 0) contribute nothing.
    """
    total = 0.0
    for t_pre in pre.times:
        for t_post in post.times:
            dt = t_post - t_pre
            if dt > 0:
                total += p.a_pre * math.exp(-dt / p.tau_pre)
            elif dt < 0:
                total -= p.a_post * math.exp(dt / p.tau_post)
    return total


def exp_decay_reference(x0: float, t: float, tau: float) -> float:
    """Continuous-decay ground truth ``x0 * exp(-t / tau)``, used only to
    bound the iterative kernels in tests."""
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    return x0 * math.exp(-t / tau)
