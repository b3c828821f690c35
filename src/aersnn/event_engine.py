"""Event-driven core: the AER packet format and codec, and the engine that
closes one timestep at a time with one array pass per phase.

Spikes enter and leave as AER packets, a (neuron id, timestamp) pair. A
stream of them is one record array of ``PACKET_DTYPE``: a packed
little-endian u16 ``neuron_id`` and u32 ``timestamp``, 6 bytes per packet,
which is byte for byte the binary trace file format.

The engine closes timesteps ``0 .. stop_ts - 1`` in order. Per step, with
the trace bumps and decays done only when ``learning`` is on (the weight
updates alone read the traces, so a frozen run leaves them as they were):

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
buffer is drained after every step and holds ``fifo_capacity`` packets. A
run checks it once, after its last step, from the fired counts of its
step record: more neurons than that firing in one step raises
``FifoOverflowError``, naming the first such step.

``run_lanes`` runs several streams in lockstep lanes, and ``run`` is its
one-lane case. The handlers act on lane state: ``(lanes, n)`` copies of
every non-weight store array the run updates (a frozen run: the voltages
and pending inhibition, none of the learning-only traces), plus one pad
element for input-layer arrays (the pad id, below); a run offsets lane b's
ids by ``b * (n_input + 1)``, so they index the flat input traces. A run
copies the store's state into every lane and writes the last lane's end
state back when it succeeds, so lanes equal the streams run one by one
through ``run`` from that state; outside a run the lane state is one lane
of views of the store's arrays. A learning run takes more than one lane
only when its updates accumulate and the store's arithmetic sums them
exactly (``learns_in_lanes``: fixed mode): the lanes then read the same
frozen weights, and int64 adds give the same delta sums in any order. Such
a run, one lane included, records every update as a rank-1 row pair per
lane: a depression as a -1 indicator over the lane's integrated ids times
its drop, a potentiation as its gains times its 0/1 fired row. It folds the
records into the delta buffer with one product
(``numerics.fold_rank1_raw``) whenever the next rows would not fit in
``RECORD_ROWS``, and once more when it ends, also when it raises. Float
deltas would round differently in another order, so a float learning run,
and one that updates the live weights, runs one lane and updates at every
step, as do handlers called outside a run. Every stream is checked before
any state changes, the lowest bad lane raising; a FIFO overflow raises for
the lowest lane that overflows, as run one by one it would come first.

The run owns its streams, as the controller does in hardware: once per
call it drops the ids outside the input layer, and splits the ids of a
step that does not ascend into consecutive runs of distinct ids, since an
id repeated within a step must integrate its row as depressed by its
earlier occurrence. It counts, into one per-step record per lane
(``STEP_DTYPE``), the packets that arrived, the packets integrated and
the neurons fired, so no handler counts. Each lane's ``RunResult`` holds
its record, and sums its columns into ``EngineStats`` when first asked;
the engine keeps the last lane's record as ``steps``. That record is all
a run keeps per timestep. Its plan is one flat array of the lanes' padded
ids and, per block of them, a step and an offset: the run slices each
block as its step comes. Beyond these it keeps the fired ids of each
step that fires, so a long quiet stretch, as in a replayed recording,
costs its 24 bytes a step per lane. After its last step, it counts the
fired neurons of every step at once and fills one packet array, whose
slices are the lanes' outputs.

Each phase handles a whole step with array operations, yet equals the
packet-by-packet, neuron-by-neuron definition above bit for bit, in both
numeric modes, because:

* the float voltage sum adds the rows ``v, w[i1], w[i2], ...`` one at a
  time, in stream order: a reduction down the rows of a C-ordered stack,
  or a cumulative sum, never regroups them;
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
  gets the same depression: it is subtracted from the rows gathered for
  the voltage sum, and the result is clipped and scattered back once;
* fixed-point adds saturate. A prefix ``v + w[i1] + ... + w[ik]`` of K
  rows is at least the lowest voltage plus K times the lowest row entry
  (if negative) and at most the highest voltage plus K times the highest
  (if positive). A run that reads the frozen copy takes those entries
  from the whole copy, once, when it builds it; one that reads the live
  weights takes them from the rows of each call. When both bounds are
  inside the voltage format no add saturated, and one exact int64
  reduction is the result; otherwise the rows are added one at a time,
  each add saturating;
* a run of distinct ids reads each row once, so a repeated id, which
  the run puts in the next run, sees its depressed row;
* the input traces do not change within fire, so every fired column gets
  the same potentiation: a rank-1 record in a run that learns in lanes.
  Otherwise the fired ids are ascending; when they form one range of
  consecutive ids (as when every neuron fires), the columns are
  potentiated in place through one slice, otherwise through one gather
  and scatter; the trace bumps and voltage resets of the fired neurons
  take the same slice or ids. A frozen run, and one that records, bumps
  and resets by the ids: the range test is paid only where that
  potentiation needs it. Clips are two-sided, so weights loaded from
  outside ``[w_min, w_max]`` are brought inside as the oracle does, and
  keep a value equal to a bound as it is (``-0.0`` at a bound of
  ``0.0``), as ``np.clip`` does;
* a run that learns into the live weights from weights inside ``[w_min,
  w_max]`` and input traces ``>= 0`` has only gains ``>= 0``, which can
  push a weight above ``w_max`` but never below ``w_min``. It potentiates
  unclipped and clips to ``w_max`` where integrate reads a row, and over
  the store once at its end. Rounded (and integer) addition is monotone,
  so for ``g1, g2 >= 0``, ``min(min(w + g1, M) + g2, M) == min(w + g1 +
  g2, M)``: the weights equal those of a clip at every firing step, which
  any other run, and a handler called outside a run, still does. Such a
  run also starts from post traces ``>= 0``, which decay and bump to
  values ``>= 0``, so its drops are ``>= 0``: a row read at most ``w_max``
  less its drop stays at most ``w_max``, and depression clips at
  ``w_min`` alone, as ``np.maximum(w_min, rows)``. That operand order
  returns the row at a tie, as ``np.clip`` does (``-0.0`` stays ``-0.0``
  at a bound of ``0.0``);
* pending inhibition is zero at fire time, as the leak just cleared it.
  The credit k firings of a lane queue is then a function of k alone,
  tabulated once per engine for k = 0..n_exc and handed to
  ``queue_inhibition``, with a one-lane run's k, its fired id count. A
  leak after a step in which no lane fired skips the subtract, the
  saturation and the clear: pending is then the ``+0.0`` (or 0) the last
  leak left, ``v - (+0.0)`` is ``v`` for every float, -0.0 included, and
  a leak toward rest cannot leave the voltage format. Binding lane state,
  at a run's start and end, counts as a firing, so a pending loaded into
  the store or left by a run that raised is applied at the next leak; one
  written into the store between handler calls outside a run waits for
  the next firing or run;
* a leak toward a rest of ``+0.0`` (or 0) decays ``v`` itself: ``v -
  (+0.0)`` is ``v`` for every float, ``-0.0`` included. ``v - (-0.0)`` is
  ``v + 0.0``, which turns ``-0.0`` into ``+0.0``, so a rest of ``-0.0``
  keeps the subtraction.

Each constant a handler hands to numpy (threshold, rest, floor, trace
step and ceiling, weight bounds) is a 0-d array of the store dtype, and
each coefficient (the two decays and learning rates) a prepared
multiplier (``numerics``): numpy takes a 0-d array as it is, where it
converts a Python scalar at every call. The values, and so every result,
are those of the scalars.

No handler tests the numeric mode: the store's arithmetic object (see
``numerics``) does each float- or fixed-specific step, so one set of
handlers serves both modes and matches the dense float oracle
(``reference_sim``) bit for bit. Nor does one test the layout: the
synapse matrix, its frozen copy and the batched deltas are row-major, one
row per input, as checkpoints store it; rows are read by ``take`` or
fancy indexing and columns written through a slice or a gather, which
give the same values in any layout.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .numerics import DecayParams, fold_rank1_raw, fold_work, saturate_raw
from .topology import (
    STORE_ARRAYS,
    LifParams,
    StateStore,
    StdpParams,
    TopologyParams,
    TraceParams,
    atomic_open,
    inhibition_credit,
    queue_inhibition,
)


PACKET_DTYPE = np.dtype([("neuron_id", "<u2"), ("timestamp", "<u4")])
PACKET_BYTES = PACKET_DTYPE.itemsize  # 6
# one row per timestep of a run: packets that arrived, packets integrated
# (the rest were dropped) and neurons fired
STEP_DTYPE = np.dtype([("packets_in", "<i8"), ("integrated", "<i8"), ("fired", "<i8")])
# the rank-1 update records a run that learns in lanes folds at a time: 32
# to 128 rows train 4-lane 251x100 fixed batches equally fast on a 2-core
# x86_64 host, and 64 rows of 251 + 1 inputs and 100 neurons take 0.18 MB,
# their fold's work arrays 0.58 MB
RECORD_ROWS = 64
# the arrays of the lane state: every store array over one layer, which is
# each but the synapse matrix
LANE_ARRAYS = tuple(row for row in STORE_ARRAYS if len(row.layers) == 1)


class EngineError(Exception):
    """Base class of the engine's errors."""


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
    return np.rec.fromarrays([ids, timestamps], dtype=PACKET_DTYPE)


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

    def as_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class RunResult:
    outputs: np.recarray
    steps: np.ndarray

    @cached_property
    def stats(self) -> EngineStats:
        """The column sums of ``steps``, summed when first read."""
        steps = self.steps
        n_in, n_int = int(steps["packets_in"].sum()), int(steps["integrated"].sum())
        return EngineStats(packets_in=n_in, packets_integrated=n_int,
                           packets_dropped=n_in - n_int, packets_out=int(steps["fired"].sum()),
                           timesteps=len(steps),
                           idle_steps=len(steps) - int(np.count_nonzero(steps["integrated"])))


def _check_stream(ts: np.ndarray, stop_ts: int) -> None:
    """Raise for the first packet, in stream order, whose timestamp is
    below its predecessor's or not below ``stop_ts``."""
    back = np.flatnonzero(ts[1:] < ts[:-1]) + 1
    past = np.flatnonzero(ts >= stop_ts)
    if back.size and not (past.size and past[0] < back[0]):
        raise ProtocolError(f"timestamp went backwards: {ts[back[0]]} after {ts[back[0] - 1]}")
    if past.size:
        raise ProtocolError(f"packet timestamp {ts[past[0]]} is past stop_ts {stop_ts}")


def check_store(store: StateStore, lif: LifParams, topology: TopologyParams) -> None:
    """Raise ValueError unless ``store`` has the layer sizes of ``topology``
    and the rest voltage of ``lif``: samples start at the store's rest
    (``reset_for_sample``), while the engine leaks toward and resets to
    the one in ``lif``."""
    if topology.n_input != store.n_input or topology.n_exc != store.n_exc:
        raise ValueError(f"topology {topology.n_input}x{topology.n_exc} does not match "
                         f"store {store.n_input}x{store.n_exc}")
    if lif.v_rest != store.v_rest:
        raise ValueError(f"lif.v_rest {lif.v_rest} does not match store v_rest {store.v_rest}")


def _plan_lanes(streams: list, stop_ts: int, n_input: int) -> tuple:
    """Check every stream, lowest lane first. Return the lanes' ``(lanes,
    stop_ts)`` step records of the packets that arrived and those
    integrated, and the blocks of ids the lanes integrate in turn: the
    flat ids of all blocks, each block's timestep followed by ``stop_ts``,
    and the blocks' offsets into the ids followed by their end. A block
    holds one run of every lane of its step: a lane's ids of the step
    inside the input layer are cut into consecutive runs in which no id
    repeats (a step whose ids ascend is one run, any other is cut before
    each id already seen in its run), and block k of a step holds run k
    of every lane as a ``(lanes, K)`` array, short rows filled up with the
    pad id ``n_input``. Lane b's ids are offset by ``b * (n_input + 1)``,
    so they index its input traces in the lanes' flat state."""
    streams = [np.asarray(packets) for packets in streams]
    for packets in streams:
        _check_stream(packets["timestamp"], stop_ts)
    n_lanes = len(streams)
    # lane * stop_ts + timestep
    key = np.concatenate([np.add(packets["timestamp"], lane * stop_ts, dtype=np.int64)
                          for lane, packets in enumerate(streams)])
    ids = np.concatenate([packets["neuron_id"] for packets in streams], dtype=np.intp)
    steps = np.zeros((n_lanes, stop_ts), dtype=STEP_DTYPE)
    record = steps.reshape(-1)
    keep = ids < n_input
    dropped = not keep.all()
    if dropped:
        np.add.at(record["packets_in"], key, 1)
        key, ids = key[keep], ids[keep]
    if not ids.size:
        return steps, ids, [stop_ts], [0]
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
    cell_key = key[cell]
    first = np.concatenate(([True], cell_key[1:] != cell_key[:-1]))
    # the keys ascend, so a key's first cell starts its integrated packets
    counts = np.diff(cell[first], append=ids.size)
    for column in ("integrated",) if dropped else ("integrated", "packets_in"):
        record[column][cell_key[first]] = counts
    if n_lanes == 1:
        # one lane's cells are its blocks, ascending, and hold its ids in order
        return steps, ids, cell_key.tolist() + [stop_ts], cell.tolist() + [ids.size]
    size = np.diff(cell, append=ids.size)
    cell_lane, cell_ts = np.divmod(cell_key, stop_ts)
    # the run index of a cell counts the cells of its lane's step before it
    index = np.arange(cell.size)
    cell_run = index - np.maximum.accumulate(np.where(first, index, 0))
    n_runs = int(cell_run.max()) + 1
    block = cell_ts * n_runs + cell_run
    # the occupied blocks: each lane's ascend, so a stable sort merges them
    order = np.argsort(block, kind="stable")
    sorted_block = block[order]
    new_block = np.concatenate(([True], sorted_block[1:] != sorted_block[:-1]))
    blocks = sorted_block[new_block]
    where = np.empty_like(order)
    where[order] = np.cumsum(new_block) - 1
    width = np.maximum.reduceat(size[order], np.flatnonzero(new_block))
    offset = np.concatenate(([0], np.cumsum(width * n_lanes)))
    ids += np.repeat(cell_lane * (n_input + 1), size)
    pads = np.arange(n_lanes) * (n_input + 1) + n_input
    flat = np.repeat(np.tile(pads, blocks.size), np.repeat(width, n_lanes))
    start = offset[where] + cell_lane * width[where]
    flat[np.repeat(start - cell, size) + np.arange(ids.size)] = ids
    return steps, flat, (blocks // n_runs).tolist() + [stop_ts], offset.tolist()


class EventEngine:
    """Owns one state store and drives it one timestep at a time.

    One engine instance is strictly sequential, mirroring the
    time-multiplexed hardware; run independent stores for parallelism.
    ``learning`` can be toggled between runs (inference leaves weights and
    traces bit-identical). With ``accumulate_updates`` the depression and
    potentiation amounts collect in a side buffer instead of the live
    weights until ``apply_accumulated_updates``, which ``evaluator``'s
    sample driver calls after each learning batch.
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
        self.fifo_capacity = fifo_capacity
        # the per-step record of the last run
        self.steps = np.zeros(0, dtype=STEP_DTYPE)
        # the batched weight deltas, if updates accumulate
        self._w_delta = np.zeros(store.w.shape, store.w.dtype) if accumulate_updates else None

        ar = self.arith = store.arith
        # 0-d operands of the store dtype and prepared multipliers (see the
        # module docstring)
        self._thresh, self._rest, self._floor, self._alpha, self._x_max = (
            np.array(ar.voltage(r), ar.dtype)
            for r in (lif.v_thresh, lif.v_rest, lif.floor, trace.alpha, trace.x_max))
        self._w_min, self._w_max = (np.array(ar.weight(r), ar.dtype)
                                    for r in (stdp.w_min, stdp.w_max))
        self._decay_v = ar.v_factor(DecayParams(tau=lif.tau_v, dt=lif.dt).decay)
        self._decay_x = ar.v_factor(DecayParams(tau=trace.tau_x, dt=trace.dt).decay)
        self._a_pre, self._a_post = ar.w_factor(stdp.alpha_pre), ar.w_factor(stdp.alpha_post)
        # whether the leak may skip v - rest: only for a rest of +0.0 (or 0)
        self._rest_is_zero = bool(self._rest == 0 and not np.signbit(self._rest))
        self._inh_credit = inhibition_credit(store, topology.w_inh)
        # the rows a frozen run integrates, and bounds on their entries
        self._frozen = self._row_bounds = None
        # whether this run clips potentiated weights where they are read
        self._defer = False
        # the rank-1 update records of a run that learns in lanes (left and
        # right factors, and the work arrays of their fold), and how many
        # rows of them are filled
        self._records = None
        self._n_records = 0
        self._bind()

    def _bind(self, n_lanes: int = 0) -> list[tuple[np.ndarray, np.ndarray]]:
        """Bind the handlers' lane state: per row of ``LANE_ARRAYS`` its
        ``(lanes, n)`` lanes as ``_<name>`` and their flat view as
        ``_<name>_flat``. ``n_lanes`` lanes are copies of the store's array,
        with one more element, the pad id's, over the input layer; handler
        calls outside a run, and a frozen run for the learning-only arrays,
        bind one lane of views instead. Returns each copied array and lanes."""
        store = self.store
        # the lanes' pending inhibition is unknown until the next leak
        self._inhibition_queued = True
        pairs = []
        for row in LANE_ARRAYS:
            a = getattr(store, row.name)
            lanes = a[None]
            if n_lanes and (self.learning or not row.learning_only):
                lanes = np.zeros((n_lanes, *row.shape(store.n_input + 1, store.n_exc)), a.dtype)
                lanes[:, :a.size] = a
                pairs.append((a, lanes))
            setattr(self, f"_{row.name}", lanes)
            setattr(self, f"_{row.name}_flat", lanes.reshape(-1))
        return pairs

    # -- handlers ---------------------------------------------------------

    def integrate_handler(self, ids: np.ndarray) -> None:
        """Apply one run of input spikes per lane, in stream order: lane b
        adds the weight rows ``ids[b, 0], ids[b, 1], ...`` of the ``(lanes,
        K)`` ids to its excitatory voltages and, when learning, depresses the
        rows by its post-synaptic traces and bumps its input traces. The ids
        of a lane must be inside the input layer and distinct, and lane b's
        offset by ``b * (n_input + 1)``; ``run_lanes`` plans its streams so,
        and fills short rows of a frozen run with the pad id ``n_input``."""
        ar, store = self.arith, self.store
        if self._frozen is not None:
            # the copy's n_input + 1 rows take the lane offsets off
            rows = self._frozen.take(ids, axis=0, mode="wrap")
        else:
            # live-weight learning runs one lane, which has no pad ids: the
            # store's rows as they are, 2-D
            live = store.w.take(ids[0], axis=0)
            if self._defer:
                # potentiation left them unclipped, and only above w_max
                np.minimum(self._w_max, live, out=live)
            rows = ar.w_to_v(live)[None]
        if self.learning:
            drop = ar.mul_w(self._exc_x, self._a_post)
            if self._records is not None:
                # per lane -1 at its ids, whose offsets are the records'
                # row stride (the pad ids fall in the pad column), times
                # its drop
                left, right = self._record(len(ids))
                left.reshape(-1)[ids] = -1
                right[:] = drop
            elif self._w_delta is None:
                # the gathered rows go back depressed before add_rows
                # overwrites them
                depressed = live - drop
                if self._defer:
                    # rows at most w_max less drops >= 0 can only cross w_min
                    store.w[ids[0]] = np.maximum(self._w_min, depressed, out=depressed)
                else:
                    store.w[ids[0]] = saturate_raw(depressed, self._w_min, self._w_max,
                                                   out=depressed)
            else:
                # one lane, which has no pad ids
                self._w_delta[ids[0]] -= drop[0]
            # x_max is quantized into the voltage format in fixed mode, so
            # the ceiling clamp also covers saturation
            ix = self._input_x_flat
            ix[ids] = np.minimum(ix[ids] + self._alpha, self._x_max)
        ar.add_rows(self._exc_v, rows, self._row_bounds)

    def leak_handler(self) -> None:
        ar, v = self.arith, self._exc_v
        v -= ar.mul_v(v if self._rest_is_zero else v - self._rest, self._decay_v)
        if self._inhibition_queued:
            v -= self._pending
            ar.saturate_v(v)
            self._pending.fill(0)
            self._inhibition_queued = False
        np.maximum(v, self._floor, out=v)
        if self.learning:
            self._exc_x -= ar.mul_v(self._exc_x, self._decay_x)
            self._input_x -= ar.mul_v(self._input_x, self._decay_x)

    def fire_handler(self) -> np.ndarray:
        """Fire every neuron at or above threshold, in every lane; returns
        the flat indices ``lane * n_exc + id`` of the fired neurons in
        ascending order."""
        crossed = self._exc_v >= self._thresh
        fired = crossed.reshape(-1).nonzero()[0]
        if fired.size:
            self._inhibition_queued = True
            # one lane's firing count is its fired ids'
            queue_inhibition(self.store, crossed, self._inh_credit, self._pending,
                             fired.size if len(crossed) == 1 else None)
            at = fired
            if self.learning:
                if self._records is not None:
                    # per lane its gains (the pad column's is dropped) times
                    # its fired indicator
                    left, right = self._record(len(crossed))
                    left[:] = self.arith.mul_w(self._input_x, self._a_pre)
                    right[:] = crossed
                else:
                    # one lane, whose fired indices are its neuron ids:
                    # ascending ids that form one range are one slice
                    lo, hi = int(fired[0]), int(fired[-1]) + 1
                    if hi - lo == fired.size:
                        at = slice(lo, hi)
                    self._potentiate(at)
                ex = self._exc_x_flat
                ex[at] = np.minimum(ex[at] + self._alpha, self._x_max)
            self._exc_v_flat[at] = self._rest
        return fired

    def _potentiate(self, at: slice | np.ndarray) -> None:
        """Add the one lane's gains to the fired columns of the live
        weights, clipped unless the run defers the clip, or of the batched
        deltas: in place through the column slice ``at`` of one range of
        ids, else through one gather and scatter of the ids ``at`` (see the
        module docstring)."""
        gain = self.arith.mul_w(self._input_x[0, :self.store.n_input, None], self._a_pre)
        live = self._w_delta is None
        target = self.store.w if live else self._w_delta
        cols = target[:, at]
        cols += gain
        if live and not self._defer:
            np.clip(cols, self._w_min, self._w_max, out=cols)
        if not isinstance(at, slice):
            target[:, at] = cols

    def _record(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """The next ``n`` rows of the left and right factors of the run's
        records, after folding the filled rows if these would not fit. The
        left rows are zero."""
        left, right, _ = self._records
        if self._n_records + n > len(left):
            self._fold_records()
        lo = self._n_records
        self._n_records = lo + n
        return left[lo:lo + n], right[lo:lo + n]

    def _fold_records(self) -> None:
        """Add the filled records' outer products to ``_w_delta``, without
        the left factors' pad column, and clear them."""
        left, right, work = self._records
        n = self._n_records
        fold_rank1_raw(self._w_delta, left[:n, :self.store.n_input], right[:n], work)
        left[:n] = 0
        self._n_records = 0

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
        self.store.w += self._w_delta
        np.clip(self.store.w, self._w_min, self._w_max, out=self.store.w)
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
        unless the engine ``learns_in_lanes``. A call that raises, for a bad
        stream or a FIFO overflow (see the module docstring), leaves the
        store's voltages, traces and pending inhibition as they were at the
        call; a learning run that overflows keeps the weight or delta
        updates of all its steps, and one that defers the potentiation clip
        clips the store before it raises."""
        n_lanes = len(streams)
        if self.learning and n_lanes > 1 and not self.learns_in_lanes:
            raise ValueError("learning runs one lane at a time unless updates accumulate "
                             f"and sum exactly, got {n_lanes} streams")
        if not streams:
            return []
        if stop_ts > 2**32:
            raise ValueError(f"stop_ts must be at most 2**32, got {stop_ts}")
        store, ar = self.store, self.arith
        steps, ids, block_ts, offsets = _plan_lanes(streams, stop_ts, store.n_input)
        state = self._bind(n_lanes)
        # the pad id's input traces are 0
        self._defer = bool(self.learning and self._w_delta is None
                           and store.w.min() >= self._w_min and store.w.max() <= self._w_max
                           and self._input_x.min() >= 0 and self._exc_x.min() >= 0)
        # weights a run does not change are read from a copy with a pad row,
        # converted to the voltage format once
        if not self.learning or self._w_delta is not None:
            self._frozen = np.full((store.n_input + 1, store.n_exc), ar.pad, dtype=ar.dtype)
            # a block of rows at a time keeps the conversion's temporaries small
            for lo in range(0, store.n_input, 64):
                self._frozen[lo:min(lo + 64, store.n_input)] = ar.w_to_v(store.w[lo:lo + 64])
            self._row_bounds = ar.row_bounds(self._frozen)
        if self.learning and self.learns_in_lanes:
            # a handler call records one row of each factor per lane, so
            # the records take at least one call
            rows = max(RECORD_ROWS, n_lanes)
            self._records = (np.zeros((rows, store.n_input + 1), np.int64),
                             np.zeros((rows, store.n_exc), np.int64),
                             fold_work(rows, store.n_input, store.n_exc))
        integrate, leak, fire = self.integrate_handler, self.leak_handler, self.fire_handler
        # the fired ids of the steps that fire, and those steps
        fired_per_step, fire_steps = [], []
        b = 0
        try:
            for t in range(stop_ts):
                while block_ts[b] == t:
                    integrate(ids[offsets[b]:offsets[b + 1]].reshape(n_lanes, -1))
                    b += 1
                leak()
                fired = fire()
                if fired.size:
                    fired_per_step.append(fired)
                    fire_steps.append(t)
        finally:
            if self._records is not None:
                self._fold_records()
                self._records = None
            self._frozen = self._row_bounds = None
            self._bind()
            if self._defer:
                self._defer = False
                np.minimum(self._w_max, store.w, out=store.w)

        # the lanes' packets can be many: the plan goes first, and the fired
        # ids are held once
        del ids
        sizes = list(map(len, fired_per_step))
        fired = np.concatenate([np.empty(0, np.intp)] + fired_per_step)
        del fired_per_step
        # in range by construction: ids below n_exc <= 65536, steps below
        # stop_ts <= 2**32
        packets = np.empty(fired.size, PACKET_DTYPE).view(np.recarray)
        packets["timestamp"] = np.repeat(fire_steps, sizes)
        counts = steps.reshape(-1)["fired"]
        if n_lanes == 1:
            packets["neuron_id"] = fired
            counts[fire_steps] = sizes
        else:
            # a stable order by lane * stop_ts + step puts each lane's
            # packets together, in the order they fired
            key = fired // store.n_exc
            packets["neuron_id"] = fired - key * store.n_exc
            key = key * stop_ts + packets["timestamp"]
            counts[:] = np.bincount(key, minlength=counts.size)
            packets = packets.take(np.argsort(key, kind="stable"))
        # the lowest lane that overflows raises, at its first such step
        full = np.flatnonzero(counts > self.fifo_capacity)
        if full.size:
            raise FifoOverflowError(f"{counts[full[0]]} neurons fired at step "
                                    f"{full[0] % stop_ts}, output FIFO holds {self.fifo_capacity}")
        for a, lanes in state:
            a[:] = lanes[-1, :a.size]
        ends = np.cumsum(steps["fired"].sum(axis=1)).tolist()
        results = [RunResult(outputs=packets[lo:hi], steps=rec)
                   for lo, hi, rec in zip([0] + ends, ends, steps)]
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
