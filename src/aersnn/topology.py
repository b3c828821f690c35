"""The network model: its parameter bundles, its construction, and the
time-multiplexed state store.

The topology is a single competitive layer: dense input-to-excitatory
weights, plus all-but-self lateral inhibition among the excitatory units.
The inhibitory relays are not simulated as neurons; each excitatory spike
queues a fixed inhibition amount against every other excitatory neuron,
and the queued total is subtracted from the voltages at the next leak
phase.

Each excitatory neuron is a LIF unit with a membrane voltage ``v`` and an
activity trace ``x`` (``LifParams``, ``TraceParams``). Per timestep the
cycle is: integrate incoming weights into ``v``, leak both quantities one
iterative step (``v`` no lower than the floor), then compare ``v``
against the threshold. A crossing resets ``v`` hard to the rest level (no
refractory period) and bumps the trace by ``alpha`` up to the ``x_max``
ceiling.

The weights learn by trace-based STDP (``StdpParams``): each update reads
only the local pre- or post-synaptic activity trace, so no spike history
is stored.

* depression (LTD), applied when the pre-neuron spikes:
      w' = clamp(w - alpha_post * x_post)
* potentiation (LTP), applied when the post-neuron spikes:
      w' = clamp(w + alpha_pre * x_pre)

The event engine applies these rules to whole neuron populations (see
``event_engine``). All state lives in flat arrays (float64 values in float
mode, int64 mantissas in fixed mode), mirroring a single shared memory
updated by one engine at a time. The numeric mode's arithmetic object,
held by the store, does every mode-dependent operation; only the
checkpoint container reads the mode itself.

Checkpoint container (version 1, all integers little-endian):

    magic "AERN" | version u16 | n_input u32 | n_exc u32
    | voltage format (int_bits u8, frac_bits u8)
    | weight format (int_bits u8, frac_bits u8)
    | mode u8 (0 = float, 1 = fixed) | v_rest f64 | seed u64
    | config hash (32 raw bytes)
    then the payload: the store's arrays in the order of ``STORE_ARRAYS``,
    each row-major. Float mode stores f64 values, fixed mode i32 mantissas.
"""

from __future__ import annotations

import math
import os
import struct
from collections import namedtuple
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .numerics import DecayParams, NumericSpec, QFormat


CHECKPOINT_MAGIC = b"AERN"
CHECKPOINT_VERSION = 1
_HEADER = struct.Struct("<4sHIIBBBBBdQ32s")

# AER packets carry 16-bit neuron ids, into the input layer and out of the
# excitatory one, so neither layer holds more neurons than this
MAX_LAYER_SIZE = 1 << 16

# Fraction of the weight range kept clear at both ends by the initializer:
# zero weights cannot recover under trace updates and saturated ones stall
# depression, so fresh synapses start strictly inside the bounds.
INIT_MARGIN = 0.2


@dataclass(frozen=True)
class TopologyParams:
    n_input: int
    n_exc: int
    w_inh: float

    def __post_init__(self) -> None:
        for name in ("n_input", "n_exc"):
            size = getattr(self, name)
            if not 1 <= size <= MAX_LAYER_SIZE:
                raise ValueError(f"{name} must be in [1, {MAX_LAYER_SIZE}], got {size}")
        if self.w_inh < 0:
            raise ValueError(f"w_inh must be >= 0, got {self.w_inh}")


@dataclass(frozen=True)
class LifParams:
    v_rest: float
    v_thresh: float
    tau_v: float
    dt: float = 1.0
    v_floor: float | None = None

    def __post_init__(self) -> None:
        if self.v_thresh <= self.v_rest:
            raise ValueError(
                f"v_thresh ({self.v_thresh}) must exceed v_rest ({self.v_rest})"
            )
        # a leak lifts every voltage to a floor above rest, past the
        # threshold when it sits there too
        if self.v_floor is not None and self.v_floor > self.v_rest:
            raise ValueError(
                f"v_floor ({self.v_floor}) must not exceed v_rest ({self.v_rest})"
            )
        # Validates tau_v > 0 and dt/tau_v < 1.
        DecayParams(tau=self.tau_v, dt=self.dt)

    @property
    def floor(self) -> float:
        """The lowest voltage a leak leaves: ``v_floor``, or ``-v_thresh``
        when it is unset."""
        return -self.v_thresh if self.v_floor is None else float(self.v_floor)


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


class StoreArray(namedtuple("StoreArray", "name label layers fmt reset learning_only")):
    """One array of the store: its attribute ``name``, the ``label``
    checkpoint errors call it, the ``layers`` whose sizes are its shape, the
    ``NumericSpec`` field ``fmt`` of its Q-format, its value after
    ``reset_for_sample`` (``"rest"``, the store's rest voltage, ``0``, or
    ``None`` for an array that persists across samples, like the weights),
    and ``learning_only``: read by weight updates alone (the traces), so a
    frozen run leaves it as it was."""

    def shape(self, n_input: int, n_exc: int) -> tuple[int, ...]:
        return tuple({"n_input": n_input, "n_exc": n_exc}[layer] for layer in self.layers)


# the store's arrays, in checkpoint payload order
STORE_ARRAYS = (
    StoreArray("w", "weights", ("n_input", "n_exc"), "w_format", None, False),
    StoreArray("exc_v", "voltages", ("n_exc",), "v_format", "rest", False),
    StoreArray("exc_x", "excitatory traces", ("n_exc",), "v_format", 0, True),
    StoreArray("input_x", "input traces", ("n_input",), "v_format", 0, True),
    StoreArray("pending", "pending inhibition", ("n_exc",), "v_format", 0, False),
)


class StateStore:
    """All mutable state of one network instance: one attribute per row of
    ``STORE_ARRAYS``, of the row's shape.

    Arrays are float64 in float mode and int64 raw mantissas in fixed mode,
    in the Q-format their row names. The synapse matrix ``w`` is row-major,
    one row per input, as checkpoints serialize it. ``rest`` is the real
    rest voltage ``v_rest`` in store units, the value voltages reset to;
    ``arith`` is the numeric mode's arithmetic object.
    """

    def __init__(self, n_input: int, n_exc: int, numeric: NumericSpec, v_rest: float):
        self.n_input = n_input
        self.n_exc = n_exc
        self.numeric = numeric
        self.arith = numeric.arithmetic
        self.v_rest = float(v_rest)
        self.rest = self.arith.voltage(v_rest)
        # zeros leave the pages of the untouched arrays unwritten
        for row in STORE_ARRAYS:
            setattr(self, row.name, np.zeros(row.shape(n_input, n_exc), dtype=self.arith.dtype))
        self._reset(row for row in STORE_ARRAYS if row.reset not in (0, None))

    def _reset(self, rows) -> None:
        """Set the arrays of ``rows`` to their reset values."""
        for row in rows:
            getattr(self, row.name)[:] = self.rest if row.reset == "rest" else row.reset

    def arrays(self) -> tuple[np.ndarray, ...]:
        """The state arrays, in checkpoint payload order."""
        return tuple(getattr(self, row.name) for row in STORE_ARRAYS)

    def copy(self) -> "StateStore":
        dup = StateStore(self.n_input, self.n_exc, self.numeric, self.v_rest)
        for row, a in zip(STORE_ARRAYS, self.arrays()):
            setattr(dup, row.name, a.copy())
        return dup

    def state_equal(self, other: "StateStore") -> bool:
        """Bit-exact comparison of all state arrays."""
        return (
            (self.n_input, self.n_exc, self.numeric) == (other.n_input, other.n_exc, other.numeric)
            and all(a.tobytes() == b.tobytes() for a, b in zip(self.arrays(), other.arrays()))
        )


def build_network(
    tp: TopologyParams,
    sp: StdpParams,
    seed: int,
    numeric: NumericSpec = NumericSpec(),
    v_rest: float = 0.0,
) -> StateStore:
    """Fresh store: weights i.i.d. uniform over the inner 60% of the weight
    range, voltages at rest, traces and pending inhibition at zero. The
    same seed always yields a bit-identical store."""
    store = StateStore(tp.n_input, tp.n_exc, numeric, v_rest)
    rng = np.random.default_rng(seed)
    span = sp.w_max - sp.w_min
    lo = sp.w_min + INIT_MARGIN * span
    hi = sp.w_max - INIT_MARGIN * span
    weights = rng.uniform(lo, hi, size=(tp.n_input, tp.n_exc))
    store.w = store.arith.weights(weights)
    return store


def inhibition_credit(store: StateStore, w_inh: float) -> np.ndarray:
    """``credit[m]``: the pending inhibition m firings queue against one
    neuron, for m = 0..n_exc, in store units: ``w_inh`` added m times in
    sequence to zero. A cumulative sum adds in sequence; in int64 it is
    exactly ``m * w_inh``."""
    arith = store.arith
    # saturating adds of a nonnegative amount sum to min(total, top), so one
    # saturation of the final sum (``saturate_v``) is enough in fixed mode
    amount = np.full(store.n_exc, arith.voltage(w_inh), dtype=arith.dtype)
    return np.concatenate(([0], np.cumsum(amount)))


def queue_inhibition(store: StateStore, crossed: np.ndarray, credit: np.ndarray,
                     pending: np.ndarray, k: int | None = None) -> None:
    """Credit ``w_inh`` of pending inhibition to every excitatory neuron
    except the firing one, once per firing neuron of the same lane; the
    next leak phase applies and clears it. ``crossed`` is the ``(lanes,
    n_exc)`` mask of the firing neurons, ``pending`` the lanes' pending
    inhibition and ``credit`` ``inhibition_credit(store, w_inh)``. A
    caller that knows a lone lane's firing count passes it as ``k``, which
    saves counting ``crossed`` by a casting reduction; otherwise it counts
    each lane's firings.

    Closed form of the per-neuron loop: with k distinct neurons firing in a
    lane, every other neuron of the lane is credited k times and each
    firing one k - 1 times, and each gets ``credit[k]`` or
    ``credit[k - 1]`` added. Fixed-point pending saturates at the format
    top. Float credits equal the sequential loop's when ``pending`` holds no
    inhibition yet, which is so at fire time, right after the leak cleared
    it.
    """
    if k is None:
        k = np.add.reduce(crossed, axis=1, keepdims=True, dtype=np.intp)
    pending += credit[k - crossed]
    store.arith.saturate_v(pending)


def reset_for_sample(store: StateStore) -> None:
    """Per-sample boundary: every array back to its row's reset value
    (voltages to rest, traces and pending inhibition cleared). Learned
    weights persist."""
    store._reset(row for row in STORE_ARRAYS if row.reset is not None)


class CheckpointError(Exception):
    """Malformed, truncated, or incompatible checkpoint container."""


# the payload's value type, by whether the numeric mode is fixed
_PAYLOAD_DTYPE = {False: np.dtype("<f8"), True: np.dtype("<i4")}


def store_to_bytes(store: StateStore, seed: int = 0, config_hash: bytes = b"") -> bytes:
    numeric = store.numeric
    header = _HEADER.pack(
        CHECKPOINT_MAGIC,
        CHECKPOINT_VERSION,
        store.n_input,
        store.n_exc,
        numeric.v_format.int_bits,
        numeric.v_format.frac_bits,
        numeric.w_format.int_bits,
        numeric.w_format.frac_bits,
        1 if numeric.is_fixed else 0,
        store.v_rest,
        seed,
        config_hash,  # padded with zero bytes, or cut, to 32
    )
    dtype = _PAYLOAD_DTYPE[numeric.is_fixed]
    return b"".join([header, *(arr.astype(dtype).tobytes() for arr in store.arrays())])


def store_from_bytes(data: bytes) -> tuple[StateStore, int, bytes]:
    """Decode a checkpoint; returns (store, seed, config_hash)."""
    if len(data) < _HEADER.size:
        raise CheckpointError("checkpoint shorter than its header")
    (magic, version, n_input, n_exc, v_int, v_frac, w_int, w_frac,
     mode, v_rest, seed, digest) = _HEADER.unpack_from(data)
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError(f"bad magic {magic!r}")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {version} (expected {CHECKPOINT_VERSION})"
        )
    if mode not in (0, 1):
        raise CheckpointError(f"bad numeric mode byte {mode}")
    # a store's rest voltage is a value of its format
    if not math.isfinite(v_rest):
        raise CheckpointError(f"rest voltage {v_rest} is not finite")
    try:
        numeric = NumericSpec(
            mode=("float", "fixed")[mode],
            v_format=QFormat(v_int, v_frac),
            w_format=QFormat(w_int, w_frac),
        )
    except ValueError as exc:
        raise CheckpointError(f"bad format descriptors: {exc}") from exc
    # the sizes come from the header alone: a damaged one allocates nothing
    dtype = _PAYLOAD_DTYPE[numeric.is_fixed]
    counts = [math.prod(row.shape(n_input, n_exc)) for row in STORE_ARRAYS]
    expected = _HEADER.size + sum(counts) * dtype.itemsize
    if len(data) != expected:
        raise CheckpointError(
            f"payload size mismatch: got {len(data)} bytes, expected {expected}"
        )
    flat = np.frombuffer(data, dtype=dtype, offset=_HEADER.size)
    parts = np.split(flat, np.cumsum(counts)[:-1])
    # a store holds finite floats, and mantissas inside their row's format
    # (nan compares false)
    top = np.finfo(np.float64).max
    store = StateStore(n_input, n_exc, numeric, v_rest)
    for row, a, part in zip(STORE_ARRAYS, store.arrays(), parts):
        fmt = getattr(numeric, row.fmt)
        lo, hi = (fmt.raw_min, fmt.raw_max) if numeric.is_fixed else (-top, top)
        if not (part.min(initial=hi) >= lo and part.max(initial=lo) <= hi):
            i = np.flatnonzero(~((part >= lo) & (part <= hi)))[0]
            why = f"outside the {fmt} range [{lo}, {hi}]" if numeric.is_fixed else "not finite"
            raise CheckpointError(f"{row.label}[{i}] = {part[i]} is {why}")
        # the store takes one copy of each decoded array (``astype``
        # copies), which owns its memory: keeping views of ``data`` measured
        # 0.7-1.8 MB (up to 4.4%) more trace_replay peak RSS, decoding them
        # straight into the store's fresh array 0.8-1.3 MB more
        setattr(store, row.name, part.reshape(a.shape).astype(store.arith.dtype))
    return store, seed, digest


@contextmanager
def atomic_open(path, mode: str = "wb", **kwargs):
    """Open a temporary file next to ``path`` for writing. A clean exit
    moves it onto ``path`` in one ``os.replace``; an exception removes it,
    so ``path`` is never left half-written and an older file survives."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_store(path, store: StateStore, seed: int = 0, config_hash: bytes = b"") -> None:
    with atomic_open(path) as fh:
        fh.write(store_to_bytes(store, seed, config_hash))


def load_store(path) -> tuple[StateStore, int, bytes]:
    return store_from_bytes(Path(path).read_bytes())
