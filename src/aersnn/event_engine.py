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

``run_lanes`` runs several streams in lockstep lanes, and ``run`` is its
one-lane case. The handlers act on lane state, ``(lanes, n)`` voltages,
traces and pending inhibition; outside a run, and in a one-lane run, that
is the store's own arrays. Every lane starts from the store's state at
the call and the last lane's end state is written back, so lanes equal
the streams run one by one through ``run`` from that state. A learning
run takes more than one lane only when its updates accumulate and the
store's arithmetic sums them exactly (``learns_in_lanes``: fixed mode):
the lanes then read the same frozen weights and add their depressions and
potentiations into one delta buffer, lane after lane, where int64 adds
give the same sums in any order. Float deltas would round differently in
another order, so a float learning run, and one that updates the live
weights, runs one lane. Every stream is checked before any state
changes, the lowest bad lane raising; a FIFO overflow raises for the
lowest lane that overflows, as run one by one it would come first.

The run owns its streams, as the controller does in hardware: once per
call it drops the ids outside the input layer, and splits the ids of a
step that does not ascend into consecutive runs of distinct ids, since an
id repeated within a step must integrate its row as depressed by its
earlier occurrence. It counts, into one per-step record per lane
(``STEP_DTYPE``), the packets that arrived, the packets integrated and
the neurons fired, so no handler counts; ``EngineStats`` holds its column
sums. Each lane's ``RunResult`` holds both, and the engine keeps the last
lane's record as ``steps``.

Each phase handles a whole step with array operations, yet equals the
packet-by-packet, neuron-by-neuron definition above bit for bit, in both
numeric modes, because:

* the voltage sum adds the rows ``v, w[i1], w[i2], ...`` one at a time, in
  stream order: a reduction down the rows of a C-ordered stack, or a
  cumulative sum, never regroups them;
* with learning off, or with the updates accumulating, the weights are
  frozen within a run, so it reads its rows from one C-ordered copy,
  converted once to the voltage format in fixed mode, however many lanes
  it has; only a run that learns into the live weights reads the store's
  rows, and writes them back depressed. A lane with fewer
  ids in a run reads the pad id ``n_input``, whose row adds nothing:
  ``x + (-0.0)`` is ``x`` for every float, -0.0 included, and a
  saturating add of 0 leaves a fixed value as it is. Pad ids are left
  out of the depressions;
* the post-synaptic traces do not change within integrate, so every row
  gets the same depression: it is subtracted from the rows already
  gathered for the voltage sum, which are clipped in place and scattered
  back once;
* fixed-point adds saturate. When no prefix of the cumulative sum leaves
  the voltage format, no add saturated and the last prefix is the result;
  otherwise that lane falls back to sequential saturating adds;
* a run of distinct ids reads each row once, so a repeated id, which
  the run puts in the next run, sees its depressed row;
* the input traces do not change within fire, so every fired column gets
  the same potentiation. The fired ids are ascending; when they form one
  range of consecutive ids (as when every neuron fires), the columns are
  potentiated and clipped in place through one slice, otherwise through
  one gather and scatter. Clips are two-sided, so weights loaded
  from outside ``[w_min, w_max]`` are brought inside as the oracle does;
* pending inhibition is zero at fire time, as the leak just cleared it.
  The credit k firings of a lane queue is then a function of k alone,
  tabulated once per engine for k = 0..n_exc and handed to
  ``queue_inhibition``.

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


def _plan_lanes(streams: list, stop_ts: int, n_input: int) -> tuple[np.ndarray, list]:
    """Check every stream, lowest lane first. Return the lanes' ``(lanes,
    stop_ts)`` step records of the packets that arrived and those
    integrated, and per timestep the ``(lanes, K)`` id arrays the lanes
    integrate in turn: a lane's ids of the step inside the input layer,
    cut into consecutive runs in which no id repeats (a step whose ids
    ascend is one run, any other is cut before each id already seen in
    its run). Array k holds run k of every lane, short rows filled up with
    the pad id ``n_input``."""
    streams = [np.asarray(packets) for packets in streams]
    for packets in streams:
        _check_stream(packets["timestamp"], stop_ts)
    n_lanes = len(streams)
    bounds = np.cumsum([0] + [packets.size for packets in streams]).tolist()
    key = np.empty(bounds[-1], dtype=np.int64)  # lane * stop_ts + timestep
    ids = np.empty(bounds[-1], dtype=np.intp)
    for lane, packets in enumerate(streams):
        np.add(packets["timestamp"], lane * stop_ts, out=key[bounds[lane]:bounds[lane + 1]],
               dtype=np.int64)
        ids[bounds[lane]:bounds[lane + 1]] = packets["neuron_id"]
    steps = np.zeros((n_lanes, stop_ts), dtype=STEP_DTYPE)
    steps["packets_in"] = np.bincount(key, minlength=steps.size).reshape(steps.shape)
    keep = ids < n_input
    if not keep.all():
        key, ids = key[keep], ids[keep]
    steps["integrated"] = np.bincount(key, minlength=steps.size).reshape(steps.shape)
    runs = [[] for _ in range(stop_ts)]
    if not ids.size:
        return steps, runs
    # a cell is one run of one lane's step, block (t, k) run k of step t
    new_cell = np.concatenate(([True], key[1:] != key[:-1]))
    back = np.flatnonzero(~new_cell[1:] & (ids[1:] <= ids[:-1])) + 1
    if back.size:
        ends = np.flatnonzero(new_cell).tolist() + [ids.size]
        for c in sorted(set(np.searchsorted(ends, back, "right").tolist())):
            seen = set()
            for j, i in enumerate(ids[ends[c - 1]:ends[c]].tolist(), ends[c - 1]):
                if i in seen:
                    new_cell[j] = True
                    seen.clear()
                seen.add(i)
    cell = np.flatnonzero(new_cell)
    size = np.diff(cell, append=ids.size)
    cell_key = key[cell]
    cell_lane, cell_ts = np.divmod(cell_key, stop_ts)
    # the run index of a cell counts the cells of its lane's step before it
    index = np.arange(cell.size)
    first = np.concatenate(([True], cell_key[1:] != cell_key[:-1]))
    cell_run = index - np.maximum.accumulate(np.where(first, index, 0))
    n_runs = int(cell_run.max()) + 1
    block = cell_ts * n_runs + cell_run
    width = np.zeros(stop_ts * n_runs, dtype=np.intp)
    np.maximum.at(width, block, size)
    offset = np.concatenate(([0], np.cumsum(width * n_lanes)))
    flat = ids  # one lane's cells are its blocks, in order
    if n_lanes > 1:
        flat = np.full(offset[-1], n_input, dtype=np.intp)
        start = offset[block] + cell_lane * width[block]
        flat[np.repeat(start - cell, size) + np.arange(ids.size)] = ids
    shape = (n_lanes, -1) if n_lanes > 1 else (-1,)
    blocks = np.flatnonzero(width)
    for b, lo, hi in zip(blocks.tolist(), offset[blocks].tolist(), offset[blocks + 1].tolist()):
        runs[b // n_runs].append(flat[lo:hi].reshape(shape))
    return steps, runs


class EventEngine:
    """Owns one state store and drives it one timestep at a time.

    One engine instance is strictly sequential, mirroring the
    time-multiplexed hardware; run independent stores for parallelism.
    ``learning`` can be toggled between runs (inference leaves weights
    bit-identical). With ``accumulate_updates`` the depression and
    potentiation amounts collect in a side buffer instead of the live
    weights until ``apply_accumulated_updates``, which ``evaluator``'s
    sample driver calls after each learning batch. Then the weights stay
    frozen within a batch, and where the arithmetic sums exactly (fixed
    mode) the samples of a batch may learn in lanes of one ``run_lanes``.
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
        # the per-step record of the last run
        self.steps = np.zeros(0, dtype=STEP_DTYPE)
        # the batched weight deltas, if updates accumulate
        self._w_delta = np.zeros_like(store.w) if accumulate_updates else None

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
        # the rows a frozen run integrates, and its first overflow of each
        # lane above 0
        self._frozen = None
        self._overflows: dict[int, FifoOverflowError] = {}
        self._bind_store()

    def _bind(self, *state: np.ndarray) -> None:
        """Make the voltages, traces, input traces and pending inhibition
        in ``state`` the handlers' lane state: ``(lanes, n)`` arrays, or
        the store's own 1-D arrays as its one lane."""
        self._v, self._ex, self._ix, self._pend = state
        self._vf, self._exf, self._ixf = (a.reshape(-1) for a in state[:3])
        # the flat index of each lane's first input trace
        self._ix_offset = (np.arange(len(self._ix))[:, None] * self._ix.shape[1]
                           if self._ix.ndim > 1 else 0)

    def _bind_store(self) -> None:
        self._bind(*self.store.arrays()[1:])

    # -- handlers ---------------------------------------------------------

    def integrate_handler(self, ids: np.ndarray) -> None:
        """Apply one run of input spikes per lane, in stream order: lane b
        adds the weight rows ``ids[b, 0], ids[b, 1], ...`` to its
        excitatory voltages, depresses the rows by its post-synaptic
        traces and bumps its input traces; with the store's state as the
        one lane, ``ids`` is that lane's 1-D run. The ids of a lane must be
        inside the input layer and distinct; ``run_lanes`` drops and splits
        its streams so, and fills short rows of a frozen run with the pad id
        ``n_input``."""
        ar = self.arith
        if self._frozen is not None:
            ar.add_rows(self._v, self._frozen[ids])
            bumped = (ids + self._ix_offset).reshape(-1)
        else:
            # live-weight learning runs one lane: the store's rows as they are
            store, bumped = self.store, ids
            rows = store.w[bumped]
            ar.add_rows(self._v, ar.w_to_v(rows))
        if self.learning:
            drop = ar.mul_w(self._ex, self._a_post)
            if self._w_delta is None:
                # live weights are never copied, so the rows were gathered above
                rows -= drop
                store.w[bumped] = np.clip(rows, self._w_min, self._w_max, out=rows)
            elif ids.ndim == 1:
                self._w_delta[ids] -= drop
            else:
                # a lane's ids are distinct, but lanes share ids: lane by
                # lane, without the pad ids, which have no row
                n_input = self.store.n_input
                for lane_ids, lane_drop in zip(ids, drop):
                    self._w_delta[lane_ids[lane_ids < n_input]] -= lane_drop
        # x_max is quantized into the voltage format in fixed mode, so the
        # ceiling clamp also covers saturation
        ix = self._ixf
        ix[bumped] = np.minimum(ix[bumped] + self._alpha, self._x_max)

    def leak_handler(self) -> None:
        ar, v = self.arith, self._v
        v -= ar.mul_v(v - self._rest, self._decay_v)
        v -= self._pend
        ar.saturate_v(v)
        np.maximum(v, self._floor, out=v)
        self._ex -= ar.mul_v(self._ex, self._decay_x)
        self._ix -= ar.mul_v(self._ix, self._decay_x)
        self._pend[:] = 0

    def fire_handler(self, ts: int) -> np.ndarray:
        """Fire every neuron at or above threshold in step ``ts``, in every
        lane; returns the flat indices ``lane * n_exc + id`` of the fired
        neurons in ascending order, which with one lane are their ids."""
        v = self._vf
        fired = np.flatnonzero(v >= self._thresh)
        if fired.size > self.fifo_capacity:
            counts = np.bincount(fired // self.store.n_exc)
            for lane in np.flatnonzero(counts > self.fifo_capacity).tolist():
                error = FifoOverflowError(f"{counts[lane]} neurons fired at step {ts}, "
                                          f"output FIFO holds {self.fifo_capacity}")
                if lane == 0:
                    raise error
                # a lane below may still overflow: run_lanes raises at the end
                self._overflows.setdefault(lane, error)
        if fired.size:
            if self.learning:
                gain = self.arith.mul_w(self._ix, self._a_pre)
                if gain.ndim == 1:
                    self._potentiate(fired, gain[:, None])
                else:
                    # lane by lane, each its fired ids and its input traces
                    n_exc = self.store.n_exc
                    ends = np.searchsorted(fired, np.arange(0, v.size + 1, n_exc)).tolist()
                    for lane, (lo, hi) in enumerate(zip(ends, ends[1:])):
                        if hi > lo:
                            self._potentiate(fired[lo:hi] - lane * n_exc, gain[lane, :-1, None])
            v[fired] = self._rest
            ex = self._exf
            ex[fired] = np.minimum(ex[fired] + self._alpha, self._x_max)
            queue_inhibition(self.store, fired, self._inh_credit, self._pend)
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

    @property
    def learns_in_lanes(self) -> bool:
        """Whether a learning run takes more than one stream: the updates
        collect in ``_w_delta``, so the weights the lanes read stay frozen,
        and the arithmetic sums them exactly, so lanes may add them in
        another order than the streams run one by one."""
        return self._w_delta is not None and self.arith.exact_sums

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
        return self.run_lanes([packets], stop_ts)[0]

    def run_lanes(self, streams: list, stop_ts: int) -> list[RunResult]:
        """``run`` each packet array of ``streams`` in a lane of its own,
        all lanes advancing one timestep together; returns one result per
        stream. Learning on and more than one stream raise ``ValueError``
        unless the engine ``learns_in_lanes``."""
        n_lanes = len(streams)
        if self.learning and n_lanes > 1 and not self.learns_in_lanes:
            raise ValueError("learning runs one lane at a time unless updates accumulate "
                             f"and sum exactly, got {n_lanes} streams")
        if not n_lanes:
            return []
        store, ar = self.store, self.arith
        steps, runs = _plan_lanes(streams, stop_ts, store.n_input)
        self._bind_store()
        if n_lanes > 1:
            state = [np.repeat(a[None], n_lanes, axis=0) for a in store.arrays()[1:]]
            # one more input trace per lane takes the pad id's bumps
            state[2] = np.pad(state[2], ((0, 0), (0, 1)))
            self._bind(*state)
        # weights a run does not change are read from a copy with a pad row,
        # converted to the voltage format once
        if not self.learning or self._w_delta is not None:
            self._frozen = np.full((store.n_input + 1, store.n_exc), ar.pad, dtype=ar.dtype)
            # a block of rows at a time keeps the conversion's temporaries small
            for lo in range(0, store.n_input, 64):
                self._frozen[lo:min(lo + 64, store.n_input)] = ar.w_to_v(store.w[lo:lo + 64])
        self._overflows = {}
        fired_per_step = []
        try:
            for t in range(stop_ts):
                for run in runs[t]:
                    self.integrate_handler(run)
                self.leak_handler()
                fired_per_step.append(self.fire_handler(t))
            if self._overflows:
                raise self._overflows[min(self._overflows)]
            if n_lanes > 1:
                for a, lanes in zip(store.arrays()[1:], (self._v, self._ex, self._ix, self._pend)):
                    a[:] = lanes[-1, :a.size]
        finally:
            self._frozen = None
            self._bind_store()

        sizes = [f.size for f in fired_per_step]
        fired = np.concatenate([np.empty(0, np.intp)] + fired_per_step)
        del fired_per_step  # the lanes' packets can be many: hold them once
        f_ts = np.repeat(np.arange(stop_ts, dtype=np.uint32), sizes)
        if n_lanes == 1:
            steps["fired"], outputs = sizes, [packet_array(fired, f_ts)]
        else:
            f_lane = fired // store.n_exc
            fired %= store.n_exc
            outputs = [packet_array(fired[f_lane == lane], f_ts[f_lane == lane])
                       for lane in range(n_lanes)]
            steps["fired"] = [np.bincount(out.timestamp, minlength=stop_ts) for out in outputs]
        results = [RunResult(outputs=out, stats=EngineStats.from_steps(rec), steps=rec)
                   for out, rec in zip(outputs, steps)]
        self.steps = results[-1].steps
        return results


def write_activation_log(path, steps: np.ndarray, n_exc: int) -> None:
    """Write a run's per-step record as ``ts,phase,count`` lines: per step
    the spikes integrated, the ``n_exc`` neurons leaked and the neurons
    fired."""
    counts = zip(steps["integrated"].tolist(), steps["fired"].tolist())
    with atomic_open(path, "w", encoding="utf-8", newline="\n") as fh:
        for t, (n, fired) in enumerate(counts):
            fh.write(f"{t},integrate,{n}\n{t},leak,{n_exc}\n{t},fire,{fired}\n")
