"""Event-driven core: the AER packet format and codec, and the engine that
closes one timestep at a time with one array pass per phase.

Spikes enter and leave as AER packets, a (neuron id, timestamp) pair. A
stream of them is one record array of ``PACKET_DTYPE``: a packed
little-endian u16 ``neuron_id`` and u32 ``timestamp``, 6 bytes per packet,
which is byte for byte the binary trace file format.

The engine closes timesteps ``0 .. stop_ts - 1`` in order. Per step:

    integrate  the step's packets in stream order: add the packet's weight
               row to the excitatory voltages, depress that row by the
               post-synaptic traces, then bump the input trace.
    leak       all voltages decay one iterative step toward rest, queued
               lateral inhibition is subtracted (floored at v_floor) and
               cleared, all traces decay.
    fire       every neuron at or above threshold spikes: its weight
               column is potentiated by the input traces, the voltage
               resets to rest, the trace is bumped, inhibition is queued
               against all the others, and an output packet is emitted.
               Simultaneous crossings all fire, in ascending id order.

A step without packets still leaks and fires, so gaps decay state exactly
as if the quiet steps had been driven. Input timestamps must be
non-decreasing and below ``stop_ts``; the whole stream is checked before
any state changes, and a violation raises ``ProtocolError``. The output
buffer is drained after every step and holds ``fifo_capacity`` packets:
more neurons than that firing in one step raises ``FifoOverflowError``.

``run`` owns the stream, as the controller does in hardware: once per
stream it drops the ids outside the input layer, and splits the ids of a
step that does not ascend into consecutive runs of distinct ids, since an
id repeated within a step must integrate its row as depressed by its
earlier occurrence. The handlers only integrate, leak and fire. ``run``
also counts, into one per-step record (``STEP_DTYPE``), the packets that
arrived, the packets integrated and the neurons fired; ``EngineStats``
holds its column sums. ``run`` returns both in its ``RunResult``, and the
engine keeps the last record as ``steps``.

Each phase handles a whole step with array operations, yet equals the
packet-by-packet, neuron-by-neuron definition above bit for bit, in both
numeric modes, because:

* the voltage sum adds the rows ``v, w[i1], w[i2], ...`` one at a time, in
  stream order: a reduction down the rows of a C-ordered stack, or a
  cumulative sum, never regroups them;
* the post-synaptic traces do not change within integrate, so every row
  gets the same depression: it is subtracted from the rows already
  gathered for the voltage sum, which are clipped in place and scattered
  back once;
* fixed-point adds saturate. When no prefix of the cumulative sum leaves
  the voltage format, no add saturated and the last prefix is the result;
  otherwise that step falls back to sequential saturating adds;
* a run of distinct ids reads each row once, so a repeated id, which
  ``run`` puts in the next run, sees its depressed row;
* the input traces do not change within fire, so every fired column gets
  the same potentiation. The fired ids are ascending; when they form one
  range of consecutive ids (as when every neuron fires), the columns are
  potentiated and clipped in place through one slice, otherwise through
  one gather and scatter. Clips are two-sided, so weights loaded
  from outside ``[w_min, w_max]`` are brought inside as the oracle does;
* pending inhibition is zero at fire time, as the leak just cleared it.
  The credit k firings queue is then a function of k alone, tabulated once
  per engine for k = 0..n_exc and handed to ``queue_inhibition``.

No handler tests the numeric mode: the store's arithmetic object (see
``numerics``) does each float- or fixed-specific step, so one set of
handlers serves both modes and matches the dense float oracle
(``reference_sim``) bit for bit.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .dynamics import LifParams, TraceParams
from .numerics import DecayParams
from .plasticity import StdpParams
from .topology import (
    StateStore,
    TopologyParams,
    atomic_open,
    inhibition_credit,
    queue_inhibition,
)

__all__ = [
    "PACKET_DTYPE",
    "STEP_DTYPE",
    "EngineStats",
    "EventEngine",
    "RunResult",
    "check_store",
    "EngineError",
    "ProtocolError",
    "FifoOverflowError",
    "packet_array",
    "write_aer_file",
    "read_aer_file",
    "write_aer_text",
    "write_activation_log",
]

PACKET_DTYPE = np.dtype([("neuron_id", "<u2"), ("timestamp", "<u4")])
PACKET_BYTES = PACKET_DTYPE.itemsize  # 6
# one row per timestep of a run: packets that arrived, packets integrated
# (the rest were dropped) and neurons fired
STEP_DTYPE = np.dtype([("packets_in", "<i8"), ("integrated", "<i8"), ("fired", "<i8")])


class EngineError(Exception):
    pass


class ProtocolError(EngineError):
    """Input stream violated the AER contract (e.g. decreasing timestamps)."""


class FifoOverflowError(EngineError):
    """More neurons fired in one timestep than the output FIFO holds."""


def _field(values, name: str, top: int) -> np.ndarray:
    arr = np.asarray(values)
    if arr.size and (arr.dtype.kind not in "iuO" or arr.min() < 0 or arr.max() > top):
        raise ValueError(f"{name} must be integers in [0, {top}]")
    return arr


def packet_array(ids, timestamps) -> np.recarray:
    """Packets from parallel id and timestamp sequences. A value that does
    not fit its field raises ``ValueError``; nothing wraps."""
    ids = _field(ids, "neuron_id", 0xFFFF)
    timestamps = _field(timestamps, "timestamp", 0xFFFFFFFF)
    if ids.shape != timestamps.shape:
        raise ValueError(f"{ids.shape} ids but {timestamps.shape} timestamps")
    packets = np.recarray(ids.shape, dtype=PACKET_DTYPE)
    packets.neuron_id = ids
    packets.timestamp = timestamps
    return packets


def write_aer_file(path, packets: np.ndarray) -> int:
    """Binary trace: a flat stream of encoded packets. Returns the count."""
    np.asarray(packets, dtype=PACKET_DTYPE).tofile(path)
    return len(packets)


def read_aer_file(path) -> np.recarray:
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size % PACKET_BYTES:
            raise ValueError(f"trace length {size} is not a multiple of {PACKET_BYTES}")
        return np.fromfile(fh, dtype=PACKET_DTYPE).view(np.recarray)


def write_aer_text(path, packets: np.ndarray) -> int:
    """Debug form: one ``timestamp,neuron_id`` pair per line."""
    packets = np.asarray(packets, dtype=PACKET_DTYPE)
    rows = np.column_stack((packets["timestamp"], packets["neuron_id"]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        np.savetxt(fh, rows, fmt="%d", delimiter=",")
    return len(packets)


@dataclass
class EngineStats:
    """The counters of one run. Each step leaks and fires once, so
    ``timesteps`` and ``packets_integrated`` count the phase activations."""
    packets_in: int = 0
    packets_integrated: int = 0
    packets_dropped: int = 0
    packets_out: int = 0
    timesteps: int = 0
    idle_steps: int = 0

    @classmethod
    def from_steps(cls, steps: np.ndarray) -> "EngineStats":
        """The column sums of a per-step record of ``STEP_DTYPE``."""
        n_in, n_int = int(steps["packets_in"].sum()), int(steps["integrated"].sum())
        return cls(packets_in=n_in, packets_integrated=n_int, packets_dropped=n_in - n_int,
                   packets_out=int(steps["fired"].sum()), timesteps=len(steps),
                   idle_steps=int((steps["integrated"] == 0).sum()))

    def as_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class RunResult:
    outputs: np.recarray
    stats: EngineStats
    steps: np.ndarray


def _check_stream(ts: np.ndarray, stop_ts: int) -> None:
    """Raise for the first packet, in stream order, whose timestamp is
    below its predecessor's or not below ``stop_ts``."""
    back = np.flatnonzero(ts[1:] < ts[:-1])
    past = np.flatnonzero(ts >= stop_ts)
    i_back = int(back[0]) + 1 if back.size else ts.size
    i_past = int(past[0]) if past.size else ts.size
    if i_back <= i_past and back.size:
        raise ProtocolError(
            f"timestamp went backwards: {ts[i_back]} after {ts[i_back - 1]}"
        )
    if past.size:
        raise ProtocolError(f"packet timestamp {ts[i_past]} is past stop_ts {stop_ts}")


def check_store(store: StateStore, lif: LifParams, topology: TopologyParams) -> None:
    """Raise ValueError unless ``store`` has the layer sizes of ``topology``
    and the rest voltage of ``lif``: samples start at the store's rest
    (``reset_for_sample``), while the engine leaks toward and resets to
    the one in ``lif``."""
    if topology.n_input != store.n_input or topology.n_exc != store.n_exc:
        raise ValueError(
            f"topology {topology.n_input}x{topology.n_exc} does not match "
            f"store {store.n_input}x{store.n_exc}"
        )
    if lif.v_rest != store.v_rest:
        raise ValueError(f"lif.v_rest {lif.v_rest} does not match store v_rest {store.v_rest}")


def _step_runs(ids: np.ndarray, ts: np.ndarray) -> dict[int, list[np.ndarray]]:
    """The ids of each timestep that has any, as consecutive runs in which
    no id repeats (``ts`` is non-decreasing). A step whose ids ascend is
    one run; any other is cut before each id already seen in its run."""
    if not ts.size:
        return {}
    cuts = np.flatnonzero(ts[1:] != ts[:-1]) + 1
    steps = {t: [step] for t, step in zip(ts[np.r_[0, cuts]].tolist(), np.split(ids, cuts))}
    unsorted = (ids[1:] <= ids[:-1]) & (ts[1:] == ts[:-1])
    for t in set(ts[1:][unsorted].tolist()):
        step = steps[t][0]
        runs, seen, start = [], set(), 0
        for k, i in enumerate(step.tolist()):
            if i in seen:
                runs.append(step[start:k])
                seen.clear()
                start = k
            seen.add(i)
        steps[t] = runs + [step[start:]]
    return steps


class EventEngine:
    """Owns one state store and drives it one timestep at a time.

    One engine instance is strictly sequential, mirroring the
    time-multiplexed hardware; run independent stores for parallelism.
    ``learning`` can be toggled between runs (inference leaves weights
    bit-identical). With ``accumulate_updates`` the depression and
    potentiation amounts collect in a side buffer instead of the live
    weights until ``apply_accumulated_updates`` is called, which is how
    multi-sample learning batches are realized.
    """

    def __init__(
        self,
        store: StateStore,
        lif: LifParams,
        trace: TraceParams,
        stdp: StdpParams,
        topology: TopologyParams,
        *,
        learning: bool = True,
        v_floor: float | None = None,
        fifo_capacity: int = 4096,
        accumulate_updates: bool = False,
    ):
        check_store(store, lif, topology)
        if fifo_capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {fifo_capacity}")
        self.store = store
        self.lif = lif
        self.trace = trace
        self.stdp = stdp
        self.topology = topology
        self.learning = learning
        self.v_floor = -lif.v_thresh if v_floor is None else float(v_floor)
        self.fifo_capacity = fifo_capacity
        self.accumulate_updates = accumulate_updates
        # the per-step record of the last run
        self.steps = np.zeros(0, dtype=STEP_DTYPE)
        self._w_delta = None
        if accumulate_updates:
            self._w_delta = np.zeros_like(store.w)

        ar = self.arith = store.arith
        self._decay_v = ar.coef(DecayParams(tau=lif.tau_v, dt=lif.dt).decay)
        self._decay_x = ar.coef(DecayParams(tau=trace.tau_x, dt=trace.dt).decay)
        self._thresh = ar.voltage(lif.v_thresh)
        self._rest = ar.voltage(lif.v_rest)
        self._floor = ar.voltage(self.v_floor)
        self._alpha = ar.voltage(trace.alpha)
        self._x_max = ar.voltage(trace.x_max)
        self._a_pre = ar.coef(stdp.alpha_pre)
        self._a_post = ar.coef(stdp.alpha_post)
        self._w_min = ar.weight(stdp.w_min)
        self._w_max = ar.weight(stdp.w_max)
        self._inh_credit = inhibition_credit(store, topology.w_inh)

    # -- handlers ---------------------------------------------------------

    def integrate_handler(self, ids: np.ndarray) -> int:
        """Apply input spikes in stream order: add each id's weight row to
        the excitatory voltages, depress the rows by the post-synaptic
        traces, bump the input traces. The ids must be inside the input
        layer and distinct; ``run`` drops and splits a stream so. Returns
        the number of spikes integrated."""
        store = self.store
        rows = store.w[ids]
        self.arith.add_rows(store.exc_v, rows)
        if self.learning:
            drop = self.arith.mul_w(store.exc_x, self._a_post)
            if self._w_delta is not None:
                self._w_delta[ids] -= drop
            else:
                rows -= drop
                store.w[ids] = np.clip(rows, self._w_min, self._w_max, out=rows)
        # x_max is quantized into the voltage format in fixed mode, so the
        # ceiling clamp also covers saturation
        store.input_x[ids] = np.minimum(store.input_x[ids] + self._alpha, self._x_max)
        return len(ids)

    def leak_handler(self) -> None:
        store, ar = self.store, self.arith
        v = store.exc_v
        v -= ar.mul_v(v - self._rest, self._decay_v)
        v -= store.pending
        ar.saturate_v(v)
        np.maximum(v, self._floor, out=v)
        store.exc_x -= ar.mul_v(store.exc_x, self._decay_x)
        store.input_x -= ar.mul_v(store.input_x, self._decay_x)
        store.pending[:] = 0

    def fire_handler(self, ts: int) -> np.ndarray:
        """Fire every neuron at or above threshold in step ``ts``; returns
        their ids in ascending order."""
        store = self.store
        fired = np.flatnonzero(store.exc_v >= self._thresh)
        if fired.size > self.fifo_capacity:
            raise FifoOverflowError(
                f"{fired.size} neurons fired at step {ts}, "
                f"output FIFO holds {self.fifo_capacity}"
            )
        if fired.size:
            if self.learning:
                self._potentiate(fired, self.arith.mul_w(store.input_x, self._a_pre)[:, None])
            store.exc_v[fired] = self._rest
            store.exc_x[fired] = np.minimum(store.exc_x[fired] + self._alpha, self._x_max)
            queue_inhibition(store, fired, self._inh_credit)
        return fired

    def _potentiate(self, fired: np.ndarray, gain: np.ndarray) -> None:
        """Add ``gain`` to the fired columns of the live weights, clipped, or
        of the batched deltas. Ascending fired ids that form one range of
        consecutive ids are updated in place through a column slice, any
        other set through one gather and scatter."""
        clip = self._w_delta is None
        target = self.store.w if clip else self._w_delta
        lo, hi = int(fired[0]), int(fired[-1]) + 1
        one_range = hi - lo == fired.size
        cols = target[:, lo:hi] if one_range else target[:, fired]
        cols += gain
        if clip:
            np.clip(cols, self._w_min, self._w_max, out=cols)
        if not one_range:
            target[:, fired] = cols

    def apply_accumulated_updates(self) -> None:
        """Fold the batched weight deltas into the live weights (clamped)."""
        if self._w_delta is None:
            return
        w = self.store.w
        w += self._w_delta
        np.clip(w, self._w_min, self._w_max, out=w)
        self._w_delta[:] = 0

    # -- controller -------------------------------------------------------

    def run(self, packets: np.ndarray, stop_ts: int) -> RunResult:
        """Simulate timesteps ``0 .. stop_ts - 1`` over a packet array
        sorted by timestamp (see the module docstring for the contract).
        Output packets are stamped with the step they fired in."""
        packets = np.asarray(packets)
        ids = packets["neuron_id"].astype(np.intp)
        ts = packets["timestamp"].astype(np.int64)
        _check_stream(ts, stop_ts)
        steps = np.zeros(stop_ts, dtype=STEP_DTYPE)
        steps["packets_in"] = np.bincount(ts, minlength=stop_ts)
        keep = ids < self.store.n_input
        ids, ts = ids[keep], ts[keep]
        steps["integrated"] = np.bincount(ts, minlength=stop_ts)
        runs = _step_runs(ids, ts)
        fired_per_step = []
        for t in range(stop_ts):
            for run in runs.get(t, ()):
                self.integrate_handler(run)
            self.leak_handler()
            fired_per_step.append(self.fire_handler(t))
        steps["fired"] = [f.size for f in fired_per_step]
        self.steps = steps
        outputs = packet_array(np.concatenate([np.empty(0, np.intp)] + fired_per_step),
                               np.repeat(np.arange(stop_ts), steps["fired"]))
        return RunResult(outputs=outputs, stats=EngineStats.from_steps(steps), steps=steps)


def write_activation_log(path, steps: np.ndarray, n_exc: int) -> None:
    """Write a run's per-step record as ``ts,phase,count`` lines: per step
    the spikes integrated, the ``n_exc`` neurons leaked and the neurons
    fired."""
    counts = zip(steps["integrated"].tolist(), steps["fired"].tolist())
    with atomic_open(path, "w", encoding="utf-8", newline="\n") as fh:
        for t, (n, fired) in enumerate(counts):
            fh.write(f"{t},integrate,{n}\n{t},leak,{n_exc}\n{t},fire,{fired}\n")
