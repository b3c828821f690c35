"""Test-only oracles: closed-form references the engine's iterative
update rules are checked against, the one-grid reference for the
encoder's row blocks, the one-stream-at-a-time references
for the engine's lanes and for the training pass that runs them, and a
per-class loop for the classifier. Nothing in ``aersnn`` calls them."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from aersnn.config import STREAM_TRAIN, derive_seed
from aersnn.encoders import poisson_encode
from aersnn.event_engine import _plan_lanes, packet_array
from aersnn.topology import reset_for_sample


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


def one_grid_encode(features, timesteps: int, max_rate: float, seed: int) -> np.recarray:
    """Reference for ``encoders.poisson_encode``: the sample's whole
    ``(timesteps, n)`` grid drawn in one call, compared against the firing
    probabilities, its spikes in row-major order."""
    features = np.asarray(features, dtype=np.float64)
    grid = np.random.default_rng(seed).random((timesteps, features.size)) < features * max_rate
    ts, ids = np.divmod(np.flatnonzero(grid), features.size)
    return packet_array(ids, ts)


def run_one_by_one(engine, streams, stop_ts: int) -> list:
    """Reference for ``EventEngine.run_lanes``: each stream through ``run``
    alone, the store's voltages, traces and pending inhibition reset
    before each to what they held at the call. The store ends as the last
    stream left it."""
    store = engine.store
    start = [a.copy() for a in store.arrays()[1:]]
    results = []
    for packets in streams:
        for state, saved in zip(store.arrays()[1:], start):
            state[:] = saved
        results.append(engine.run(packets, stop_ts))
    return results


def step_by_handlers(engine, packets, stop_ts: int) -> None:
    """Reference for the updates of a run: the stream through the handlers
    called outside a run, one timestep at a time, on the store's state.
    Such calls update the live weights or the batched deltas at every
    step, where a run that learns in lanes records them and folds the
    records by the block."""
    _, ids, block_ts, offsets = _plan_lanes([packets], stop_ts, engine.store.n_input)
    b = 0
    for t in range(stop_ts):
        while block_ts[b] == t:
            engine.integrate_handler(ids[offsets[b]:offsets[b + 1]].reshape(1, -1))
            b += 1
        engine.leak_handler()
        engine.fire_handler()


def train_one_by_one(engine, samples, cfg) -> dict:
    """Reference for ``evaluator.train_pass``: every epoch runs each sample
    from the reset store through ``run`` alone, with learning on, and
    flushes the accumulated deltas after every ``cfg.batch_size`` samples
    and at the end of the epoch. Returns the same totals."""
    totals = {"samples": 0, "packets_in": 0, "packets_out": 0}
    engine.learning = True
    for epoch in range(cfg.epochs):
        for idx, sample in enumerate(samples):
            reset_for_sample(engine.store)
            seed = derive_seed(cfg.seed, STREAM_TRAIN, epoch, idx)
            result = engine.run(poisson_encode(sample, cfg.encoder_params(seed)), cfg.timesteps)
            totals["samples"] += 1
            totals["packets_in"] += result.stats.packets_in
            totals["packets_out"] += result.stats.packets_out
            if (idx + 1) % cfg.batch_size == 0:
                engine.apply_accumulated_updates()
        engine.apply_accumulated_updates()
    return totals


def classify_by_loop(counts, labels) -> int:
    """Reference for ``evaluator.classify``: each class's mean count taken
    over a mask of its neurons, 0 for a class with none, then the argmax
    with ties to the lowest class id."""
    n_classes = labels.response.shape[1]
    scores = np.zeros(n_classes, dtype=np.float64)
    for c in range(n_classes):
        mask = labels.label == c
        if mask.any():
            scores[c] = counts[mask].mean()
    return int(np.argmax(scores))
