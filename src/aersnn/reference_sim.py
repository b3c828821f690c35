"""Dense time-stepped float64 simulator of the identical network model.

This is the ground-truth oracle for the event engine: it walks a T x
n_input boolean spike grid one timestep at a time and applies the same
update rules in the same phase order, but is written independently and
imports nothing from the event engine. Every arithmetic expression below
follows the normative float forms of the numerics module, so a correct
engine must agree with it bit for bit in float mode.

Per timestep t:

1. for each input i spiking at t, in ascending i: add weight row i to the
   voltages; if learning, depress row i by the post traces and bump input
   trace i;
2. decay voltages toward rest, subtract the previous step's queued
   inhibition (floored at v_floor), clear it, decay all traces if learning;
3. scan neurons in ascending j: each one at or above threshold potentiates
   its weight column by the input traces and bumps its trace if learning,
   resets to rest, queues inhibition against all others, and is recorded
   as an output spike at t.
"""

from __future__ import annotations

import numpy as np

from .topology import LifParams, StateStore, StdpParams, TopologyParams, TraceParams


def dense_simulate(
    store: StateStore,
    lif: LifParams,
    trace: TraceParams,
    stdp: StdpParams,
    topology: TopologyParams,
    input_grid: np.ndarray,
    *,
    learning: bool = True,
    v_floor: float | None = None,
) -> np.ndarray:
    """Run the dense reference over a spike grid, mutating ``store``.

    Returns the T x n_exc boolean output grid. Rejects fixed-mode stores;
    this oracle exists only for the float semantics.
    """
    if store.numeric.is_fixed:
        raise ValueError("dense_simulate supports float-mode stores only")
    grid = np.asarray(input_grid, dtype=bool)
    if grid.ndim != 2 or grid.shape[1] != store.n_input:
        raise ValueError(
            f"input grid must be T x {store.n_input}, got {grid.shape}"
        )

    steps = grid.shape[0]
    decay_v = lif.dt / lif.tau_v
    decay_x = trace.dt / trace.tau_x
    floor = lif.floor if v_floor is None else float(v_floor)
    w = store.w
    v = store.exc_v
    x_exc = store.exc_x
    x_in = store.input_x
    pending = store.pending
    out = np.zeros((steps, store.n_exc), dtype=bool)

    for t in range(steps):
        for i in np.nonzero(grid[t])[0]:
            v += w[i]
            if learning:
                w[i] = np.clip(w[i] - stdp.alpha_post * x_exc, stdp.w_min, stdp.w_max)
                x_in[i] = min(x_in[i] + trace.alpha, trace.x_max)

        v -= (v - lif.v_rest) * decay_v
        v -= pending
        np.maximum(v, floor, out=v)
        if learning:
            x_exc -= x_exc * decay_x
            x_in -= x_in * decay_x
        pending[:] = 0.0

        for j in np.nonzero(v >= lif.v_thresh)[0]:
            if learning:
                w[:, j] = np.clip(
                    w[:, j] + stdp.alpha_pre * x_in, stdp.w_min, stdp.w_max
                )
                x_exc[j] = min(x_exc[j] + trace.alpha, trace.x_max)
            v[j] = lif.v_rest
            pending[:j] += topology.w_inh
            pending[j + 1:] += topology.w_inh
            out[t, j] = True

    return out
