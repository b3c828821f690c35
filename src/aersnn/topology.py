"""Network construction and the time-multiplexed state store.

The topology is a single competitive layer: dense input-to-excitatory
weights, plus all-but-self lateral inhibition among the excitatory units.
The inhibitory relays are not simulated as neurons; each excitatory spike
queues a fixed inhibition amount against every other excitatory neuron,
and the queued total is subtracted from the voltages at the next leak
phase. All state lives in flat arrays (float64 values in float mode, int64
mantissas in fixed mode), mirroring a single shared memory updated by one
engine at a time. The numeric mode's arithmetic object, held by the store,
does every mode-dependent operation; only the checkpoint container reads
the mode itself.

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

import os
import struct
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .numerics import NumericSpec, QFormat
from .plasticity import StdpParams

__all__ = [
    "TopologyParams",
    "StateStore",
    "CheckpointError",
    "build_network",
    "inhibition_credit",
    "queue_inhibition",
    "reset_for_sample",
    "store_to_bytes",
    "store_from_bytes",
    "save_store",
    "load_store",
    "atomic_open",
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
    ``rest`` is the real rest voltage ``v_rest`` in store units, the value
    voltages reset to; ``arith`` is the numeric mode's arithmetic object.
    """

    def __init__(self, n_input: int, n_exc: int, numeric: NumericSpec, v_rest: float):
        self.n_input = n_input
        self.n_exc = n_exc
        self.numeric = numeric
        self.arith = numeric.arithmetic
        self.v_rest = float(v_rest)
        self.rest = self.arith.voltage(v_rest)
        dtype = self.arith.dtype
        # column-major: potentiation updates whole columns
        self.w = np.zeros((n_input, n_exc), dtype=dtype, order="F")
        self.exc_v = np.full(n_exc, self.rest, dtype=dtype)
        self.exc_x = np.zeros(n_exc, dtype=dtype)
        self.input_x = np.zeros(n_input, dtype=dtype)
        self.pending = np.zeros(n_exc, dtype=dtype)

    def arrays(self) -> tuple[np.ndarray, ...]:
        """The state arrays, in checkpoint payload order."""
        return self.w, self.exc_v, self.exc_x, self.input_x, self.pending

    def copy(self) -> "StateStore":
        dup = StateStore(self.n_input, self.n_exc, self.numeric, self.v_rest)
        dup.w = self.w.copy(order="F")
        dup.exc_v, dup.exc_x, dup.input_x, dup.pending = (a.copy() for a in self.arrays()[1:])
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
    store.w = np.asfortranarray(store.arith.weights(weights))
    return store


def inhibition_credit(store: StateStore, w_inh: float) -> np.ndarray:
    """``credit[m]``: the pending inhibition m firings queue against one
    neuron, for m = 0..n_exc, in store units."""
    return store.arith.repeated_sums(store.arith.voltage(w_inh), store.n_exc)


def queue_inhibition(store: StateStore, fired: np.ndarray, credit: np.ndarray,
                     pending: np.ndarray | None = None) -> None:
    """Credit ``w_inh`` of pending inhibition to every excitatory neuron
    except the firing one, once per firing neuron of the same lane. Applied
    and cleared by the next leak phase. ``credit`` is
    ``inhibition_credit(store, w_inh)``; ``pending`` is a ``(lanes,
    n_exc)`` array, or by default the store's own as one lane; ``fired``
    holds the flat indices ``lane * n_exc + id`` of the distinct neurons
    that fired, which with one lane are their ids.

    Closed form of the per-neuron loop: with k distinct neurons firing in a
    lane, every other neuron of the lane is credited k times and each
    firing one k - 1 times, and each gets ``credit[k]`` or
    ``credit[k - 1]`` added. Fixed-point pending saturates at the format
    top. Float credits equal the sequential loop's when ``pending`` holds no
    inhibition yet, which is so at fire time, right after the leak cleared
    it.
    """
    if pending is None:
        pending = store.pending
    if not fired.size:
        return
    if pending.ndim == 1:
        add = np.full(store.n_exc, credit[fired.size])
        add[fired] = credit[fired.size - 1]
    else:
        lane = fired // store.n_exc
        k = np.bincount(lane, minlength=len(pending))
        add = np.repeat(credit[k], store.n_exc)
        add[fired] = credit[k[lane] - 1]
        add = add.reshape(pending.shape)
    pending += add
    store.arith.saturate_v(pending)


def reset_for_sample(store: StateStore) -> None:
    """Per-sample boundary: voltages back to rest, traces and pending
    inhibition cleared. Learned weights persist."""
    store.exc_v[:] = store.rest
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
    for arr in store.arrays():
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
    if mode not in (0, 1):
        raise CheckpointError(f"bad numeric mode byte {mode}")
    try:
        numeric = NumericSpec(
            mode=("float", "fixed")[mode],
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
    flat = np.frombuffer(data, dtype=dtype, offset=_HEADER.size)
    w, *rest = (a.astype(store.arith.dtype) for a in np.split(flat, np.cumsum(counts)[:-1]))
    store.w = np.asfortranarray(w.reshape(n_input, n_exc))
    store.exc_v, store.exc_x, store.input_x, store.pending = rest
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
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def save_store(path, store: StateStore, seed: int = 0, config_hash: bytes = b"") -> None:
    with atomic_open(path) as fh:
        fh.write(store_to_bytes(store, seed, config_hash))


def load_store(path) -> tuple[StateStore, int, bytes]:
    with open(path, "rb") as fh:
        return store_from_bytes(fh.read())
