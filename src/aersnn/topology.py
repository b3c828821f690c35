"""Network construction and the time-multiplexed state store.

The topology is a single competitive layer: dense input-to-excitatory
weights, plus all-but-self lateral inhibition among the excitatory units.
The inhibitory relays are not simulated as neurons; each excitatory spike
queues a fixed inhibition amount against every other excitatory neuron,
and the queued total is subtracted from the voltages at the next leak
phase. All state lives in flat arrays (float64 values in float mode, int64
mantissas in fixed mode), mirroring a single shared memory updated by one
engine at a time.

Checkpoint container (version 1, all integers little-endian):

    magic "AERN" | version u16 | n_input u32 | n_exc u32
    | voltage format (int_bits u8, frac_bits u8)
    | weight format (int_bits u8, frac_bits u8)
    | mode u8 (0 = float, 1 = fixed) | v_rest f64 | seed u64
    | config hash (32 raw bytes)
    then the payload arrays in order: weights (input-major, row-major),
    excitatory voltages, excitatory traces, input traces, pending
    inhibition. Float mode stores f64 values, fixed mode i32 mantissas.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .numerics import NumericSpec, QFormat, quantize_array, to_fixed
from .plasticity import StdpParams

__all__ = [
    "TopologyParams",
    "StateStore",
    "CheckpointError",
    "build_network",
    "queue_inhibition",
    "reset_for_sample",
    "store_to_bytes",
    "store_from_bytes",
    "save_store",
    "load_store",
]

CHECKPOINT_MAGIC = b"AERN"
CHECKPOINT_VERSION = 1
_HEADER = struct.Struct("<4sHIIBBBBBdQ32s")

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
        if self.n_input < 1:
            raise ValueError(f"n_input must be >= 1, got {self.n_input}")
        if self.n_exc < 1:
            raise ValueError(f"n_exc must be >= 1, got {self.n_exc}")
        if self.w_inh < 0:
            raise ValueError(f"w_inh must be >= 0, got {self.w_inh}")


class StateStore:
    """All mutable state of one network instance.

    Arrays are float64 in float mode and int64 raw mantissas in fixed mode
    (voltage-format for voltages, traces and pending inhibition,
    weight-format for the synapse matrix). The synapse matrix is held
    column-major; ``tobytes`` and checkpoints still serialize it row-major.
    """

    def __init__(self, n_input: int, n_exc: int, numeric: NumericSpec, v_rest: float):
        self.n_input = n_input
        self.n_exc = n_exc
        self.numeric = numeric
        self.v_rest = float(v_rest)
        if numeric.is_fixed:
            self.v_rest_raw = to_fixed(v_rest, numeric.v_format).raw
            dtype = np.int64
            rest = self.v_rest_raw
        else:
            self.v_rest_raw = 0
            dtype = np.float64
            rest = v_rest
        # column-major: potentiation updates whole columns
        self.w = np.zeros((n_input, n_exc), dtype=dtype, order="F")
        self.exc_v = np.full(n_exc, rest, dtype=dtype)
        self.exc_x = np.zeros(n_exc, dtype=dtype)
        self.input_x = np.zeros(n_input, dtype=dtype)
        self.pending = np.zeros(n_exc, dtype=dtype)

    def copy(self) -> "StateStore":
        dup = StateStore(self.n_input, self.n_exc, self.numeric, self.v_rest)
        dup.w = self.w.copy(order="F")
        dup.exc_v = self.exc_v.copy()
        dup.exc_x = self.exc_x.copy()
        dup.input_x = self.input_x.copy()
        dup.pending = self.pending.copy()
        return dup

    def state_equal(self, other: "StateStore") -> bool:
        """Bit-exact comparison of all state arrays."""
        return (
            self.n_input == other.n_input
            and self.n_exc == other.n_exc
            and self.numeric == other.numeric
            and self.w.tobytes() == other.w.tobytes()
            and self.exc_v.tobytes() == other.exc_v.tobytes()
            and self.exc_x.tobytes() == other.exc_x.tobytes()
            and self.input_x.tobytes() == other.input_x.tobytes()
            and self.pending.tobytes() == other.pending.tobytes()
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
    if numeric.is_fixed:
        weights = quantize_array(weights, numeric.w_format)
    store.w = np.asfortranarray(weights)
    return store


def queue_inhibition(store: StateStore, fired: Iterable[int], w_inh: float) -> None:
    """Credit ``w_inh`` of pending inhibition to every excitatory neuron
    except the firing one, once per firing neuron. Applied and cleared by
    the next leak phase.

    Closed form of the per-neuron loop: with k distinct neurons firing,
    every other neuron is credited k times and each firing one k - 1
    times. Fixed-point credits saturate at the format top, and saturating
    adds of a nonnegative amount sum to ``min(total, top)``. Float credits
    equal the sequential loop's when ``pending`` holds no float
    inhibition yet, which is so at fire time, right after the leak cleared
    it.
    """
    fired = np.asarray(fired if isinstance(fired, np.ndarray) else list(fired), dtype=np.intp)
    k = fired.size
    if not k:
        return
    if store.numeric.is_fixed:
        amount = to_fixed(w_inh, store.numeric.v_format).raw
        credit = np.full(store.n_exc, k * amount, dtype=np.int64)
        credit[fired] -= amount
        np.minimum(store.pending + credit, store.numeric.v_format.raw_max,
                   out=store.pending)
    else:
        # sums[m - 1] is w_inh added m times, in sequence
        sums = np.cumsum(np.full(k, float(w_inh)))
        credit = np.full(store.n_exc, sums[-1])
        credit[fired] = sums[-2] if k > 1 else 0.0
        store.pending += credit


def reset_for_sample(store: StateStore) -> None:
    """Per-sample boundary: voltages back to rest, traces and pending
    inhibition cleared. Learned weights persist."""
    store.exc_v[:] = store.v_rest_raw if store.numeric.is_fixed else store.v_rest
    store.exc_x[:] = 0
    store.input_x[:] = 0
    store.pending[:] = 0


class CheckpointError(Exception):
    """Malformed, truncated, or incompatible checkpoint container."""


def _payload_dtype(numeric: NumericSpec) -> np.dtype:
    return np.dtype("<i4") if numeric.is_fixed else np.dtype("<f8")


def store_to_bytes(store: StateStore, seed: int = 0, config_hash: bytes = b"") -> bytes:
    digest = config_hash.ljust(32, b"\x00")[:32]
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
        digest,
    )
    dtype = _payload_dtype(numeric)
    parts = [header]
    for arr in (store.w, store.exc_v, store.exc_x, store.input_x, store.pending):
        parts.append(arr.astype(dtype).tobytes())
    return b"".join(parts)


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
    try:
        numeric = NumericSpec(
            mode="fixed" if mode else "float",
            v_format=QFormat(v_int, v_frac),
            w_format=QFormat(w_int, w_frac),
        )
    except ValueError as exc:
        raise CheckpointError(f"bad format descriptors: {exc}") from exc
    dtype = _payload_dtype(numeric)
    counts = [n_input * n_exc, n_exc, n_exc, n_input, n_exc]
    expected = _HEADER.size + sum(counts) * dtype.itemsize
    if len(data) != expected:
        raise CheckpointError(
            f"payload size mismatch: got {len(data)} bytes, expected {expected}"
        )
    store = StateStore(n_input, n_exc, numeric, v_rest)
    target_dtype = np.int64 if numeric.is_fixed else np.float64
    offset = _HEADER.size
    arrays = []
    for count in counts:
        arr = np.frombuffer(data, dtype=dtype, count=count, offset=offset)
        arrays.append(arr.astype(target_dtype))
        offset += count * dtype.itemsize
    store.w = np.asfortranarray(arrays[0].reshape(n_input, n_exc))
    store.exc_v, store.exc_x, store.input_x, store.pending = arrays[1:]
    return store, seed, digest


def save_store(path, store: StateStore, seed: int = 0, config_hash: bytes = b"") -> None:
    with open(path, "wb") as fh:
        fh.write(store_to_bytes(store, seed, config_hash))


def load_store(path) -> tuple[StateStore, int, bytes]:
    with open(path, "rb") as fh:
        return store_from_bytes(fh.read())
