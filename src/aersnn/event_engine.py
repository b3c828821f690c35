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
any state changes, and a violation raises ``ProtocolError``. Ids outside
the input layer are dropped and counted. The output buffer is drained
after every step and holds ``fifo_capacity`` packets: more neurons than
that firing in one step raises ``FifoOverflowError``.

Each phase handles a whole step with array operations, yet equals the
packet-by-packet, neuron-by-neuron definition above bit for bit, in both
numeric modes, because:

* the voltage sum adds the rows ``v, w[i1], w[i2], ...`` one at a time, in
  stream order: a reduction down the rows of a C-ordered stack, or a
  cumulative sum, never regroups them;
* the post-synaptic traces do not change within integrate, so every row
  gets the same depression, applied by one clip of the gathered rows;
* fixed-point adds saturate. When no prefix of the cumulative sum leaves
  the voltage format, no add saturated and the last prefix is the result;
  otherwise that step falls back to sequential saturating adds;
* an id repeated within a step must integrate its row as depressed by its
  earlier occurrence, so the step is split into consecutive runs of
  distinct ids, each integrated as above;
* the input traces do not change within fire, so every fired column gets
  the same potentiation;
* pending inhibition is zero at fire time, as the leak just cleared it;
  ``queue_inhibition`` relies on that for its closed form.

No handler tests the numeric mode: the store's arithmetic object (see
``numerics``) does each float- or fixed-specific step, and with it the
handlers match the scalar dynamics and plasticity transitions in both.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .dynamics import LifParams, TraceParams
from .numerics import DecayParams
from .plasticity import StdpParams
from .topology import StateStore, TopologyParams, queue_inhibition

__all__ = [
    "PACKET_DTYPE",
    "EngineStats",
    "EventEngine",
    "RunResult",
    "EngineError",
    "ProtocolError",
    "FifoOverflowError",
    "packet_array",
    "write_aer_file",
    "read_aer_file",
    "write_aer_text",
]

PACKET_DTYPE = np.dtype([("neuron_id", "<u2"), ("timestamp", "<u4")])
PACKET_BYTES = PACKET_DTYPE.itemsize  # 6


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
    packets_in: int = 0
    packets_integrated: int = 0
    packets_dropped: int = 0
    packets_out: int = 0
    integrate_activations: int = 0
    leak_activations: int = 0
    fire_activations: int = 0
    timesteps: int = 0
    idle_steps: int = 0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class RunResult:
    outputs: np.recarray
    stats: EngineStats


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


def _distinct_runs(ids: np.ndarray) -> list[np.ndarray]:
    """Split ids into consecutive runs in which no id repeats."""
    if ids.size < 2 or (ids[1:] > ids[:-1]).all():
        return [ids]
    runs, seen, start = [], set(), 0
    for k, i in enumerate(ids.tolist()):
        if i in seen:
            runs.append(ids[start:k])
            seen.clear()
            start = k
        seen.add(i)
    runs.append(ids[start:])
    return runs


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
        log_activations: bool = False,
    ):
        if topology.n_input != store.n_input or topology.n_exc != store.n_exc:
            raise ValueError(
                f"topology {topology.n_input}x{topology.n_exc} does not match "
                f"store {store.n_input}x{store.n_exc}"
            )
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
        self.stats = EngineStats()
        self.activation_log: list[tuple[int, str, int]] | None = (
            [] if log_activations else None
        )
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

    # -- handlers ---------------------------------------------------------

    def integrate_handler(self, ids: np.ndarray) -> int:
        """Apply one timestep's input spikes, in stream order. Ids outside
        the input layer are dropped and counted, never raised. Returns the
        number of spikes integrated."""
        ids = np.asarray(ids)
        sel = ids[ids < self.store.n_input]
        n = int(sel.size)
        self.stats.packets_dropped += int(ids.size) - n
        self.stats.packets_integrated += n
        self.stats.integrate_activations += n
        if n:
            for run in _distinct_runs(sel):
                self._integrate_distinct(run)
        return n

    def _integrate_distinct(self, sel: np.ndarray) -> None:
        store = self.store
        rows = store.w[sel]
        self.arith.add_rows(store.exc_v, rows)
        if self.learning:
            drop = self.arith.mul_w(store.exc_x, self._a_post)
            if self._w_delta is not None:
                self._w_delta[sel] -= drop
            else:
                store.w[sel] = np.clip(rows - drop, self._w_min, self._w_max)
        # x_max is quantized into the voltage format in fixed mode, so the
        # ceiling clamp also covers saturation
        store.input_x[sel] = np.minimum(store.input_x[sel] + self._alpha, self._x_max)

    def leak_handler(self) -> None:
        store, ar = self.store, self.arith
        self.stats.leak_activations += 1
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
        self.stats.fire_activations += 1
        fired = np.flatnonzero(store.exc_v >= self._thresh)
        if fired.size > self.fifo_capacity:
            raise FifoOverflowError(
                f"{fired.size} neurons fired at step {ts}, "
                f"output FIFO holds {self.fifo_capacity}"
            )
        if fired.size:
            if self.learning:
                gain = self.arith.mul_w(store.input_x, self._a_pre)[:, None]
                if self._w_delta is not None:
                    self._w_delta[:, fired] += gain
                else:
                    cols = store.w[:, fired]
                    cols += gain
                    store.w[:, fired] = np.clip(cols, self._w_min, self._w_max, out=cols)
            store.exc_v[fired] = self._rest
            store.exc_x[fired] = np.minimum(store.exc_x[fired] + self._alpha, self._x_max)
            queue_inhibition(store, fired, self.topology.w_inh)
            self.stats.packets_out += int(fired.size)
        return fired

    def apply_accumulated_updates(self) -> None:
        """Fold the batched weight deltas into the live weights (clamped)."""
        if self._w_delta is None:
            return
        np.clip(
            self.store.w + self._w_delta, self._w_min, self._w_max, out=self.store.w
        )
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
        self.stats = EngineStats(packets_in=int(ts.size))
        log = self.activation_log = [] if self.activation_log is not None else None
        cuts = np.flatnonzero(ts[1:] != ts[:-1]) + 1
        steps = dict(zip(ts[np.r_[0, cuts]].tolist(), np.split(ids, cuts))) if ts.size else {}
        fired_per_step = []
        for t in range(stop_ts):
            step_ids = steps.get(t)
            n = 0 if step_ids is None else self.integrate_handler(step_ids)
            if not n:
                self.stats.idle_steps += 1
            self.leak_handler()
            fired = self.fire_handler(t)
            self.stats.timesteps += 1
            fired_per_step.append(fired)
            if log is not None:
                log += [(t, "integrate", n), (t, "leak", self.store.n_exc),
                        (t, "fire", int(fired.size))]
        counts = np.array([f.size for f in fired_per_step], dtype=np.intp)
        outputs = packet_array(np.concatenate([np.empty(0, np.intp)] + fired_per_step),
                               np.repeat(np.arange(counts.size), counts))
        return RunResult(outputs=outputs, stats=self.stats)


def write_activation_log(path, entries: Iterable[tuple[int, str, int]]) -> None:
    """Dump an activation log as ``ts,phase,count`` lines."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for ts, phase, count in entries:
            fh.write(f"{ts},{phase},{count}\n")
