"""Rate encoders and dataset ingestion.

Raw samples become AER packet streams by per-timestep Bernoulli draws:
input neuron i fires at step t with probability ``features[i] * max_rate``,
independently per step, from a seeded generator. That is the standard
discrete-time realization of Poisson rate coding, and it is the one
mechanism used for both image and heartbeat data (heartbeats default to a
100-step window).

The stream contract: a sample of n inputs encoded over T steps takes one
float64 draw per (step, input), T * n in all, in row-major order (step by
step, input by input) from ``default_rng(seed)``, and input i fires at
step t when its draw is below ``features[i] * max_rate``. A large sample
draws its ``(T, n)`` grid in row blocks, one per CPU, the blocks past the
first on helper threads (numpy's draws and compares release the GIL).
``Generator.random`` takes exactly one 64-bit PCG64 output per float64,
so the block from row r on seeds its own PCG64 with the sample's seed and
``advance``s it by r * n outputs: each block draws the same numbers as
the one-grid stream, and the packets are byte-identical to it.

Dataset loaders:

* MNIST-style IDX files (optionally gzipped): big-endian headers, images
  magic 0x00000803, labels magic 0x00000801. Pixels normalize to [0, 1]
  by /255; a file without images is a ``DatasetError``.
* heartbeat CSV: one beat per line, 251 amplitude columns plus an integer
  class id in {0, 1, 2, 3}; each beat is min-max normalized on load
  (an all-flat beat maps to zeros). A non-finite amplitude, or a range
  past float64's, is a ``DatasetError``. The CSV is made outside this
  repository, so the engine never parses waveform databases; the tests
  and the benchmark write synthetic ones with ``conftest.write_beat_csv``.
"""

from __future__ import annotations

import gzip
import math
import os
import struct
import threading
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .event_engine import packet_array


ECG_FEATURES = 251
ECG_CLASSES = 4

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

# Fewest draws one row block of a sample's grid may hold. On a 2-core
# x86_64 host, two blocks broke even with one between about 60,000 and
# 80,000 draws a sample (0.86-1.13x as fast there, 0.67x at 51,200 and
# 1.45x at 102,400). At this minimum a split sample holds at least 131,072
# draws (131,100 ran 1.55x as fast, a 350 x 784 digit 1.73x), and a
# 100 x 251 heartbeat (25,100 draws) is never split.
_MIN_BLOCK_DRAWS = 1 << 16


class EncodingError(ValueError):
    pass


class DatasetError(Exception):
    """Unreadable or malformed dataset file."""


@dataclass(frozen=True)
class EncoderParams:
    timesteps: int
    max_rate: float
    seed: int = 0

    def __post_init__(self) -> None:
        if self.timesteps < 1:
            raise ValueError(f"timesteps must be >= 1, got {self.timesteps}")
        if not 0.0 < self.max_rate <= 1.0:
            raise ValueError(f"max_rate must be in (0, 1], got {self.max_rate}")


@dataclass(frozen=True, eq=False)
class Sample:
    features: np.ndarray
    label: int


def poisson_encode(sample: Sample, p: EncoderParams) -> np.recarray:
    """Bernoulli-per-step rate coding of one sample into a packet array.

    Packets come out sorted by (timestamp, neuron id), ready for the
    engine. The same (sample, params, seed) always yields the same packets.
    """
    features = np.asarray(sample.features, dtype=np.float64)
    if features.ndim != 1:
        raise EncodingError(f"features must be a vector, got shape {features.shape}")
    # written so that NaN, which compares false, fails it
    if features.size and not (features.min() >= 0.0 and features.max() <= 1.0):
        raise EncodingError("features must lie in [0, 1]")
    # flat indices ascend in row-major order: by timestamp, then id
    ts, ids = np.divmod(_spike_indices(features * p.max_rate, p.timesteps, p.seed),
                        features.size)
    return packet_array(ids, ts)


def _spike_indices(thresh: np.ndarray, timesteps: int, seed: int) -> np.ndarray:
    """Flat indices of the spikes of a ``(timesteps, n)`` grid drawn in row
    blocks: the first here, the others on the helper threads. The draws are
    freed on return, before the caller splits the indices."""
    draws = np.empty((timesteps, thresh.size))
    grid = np.empty(draws.shape, dtype=bool)
    bounds = _row_blocks(timesteps, thresh.size)
    blocks = [(seed, thresh, draws, grid, start, stop)
              for start, stop in zip(bounds, bounds[1:])]
    if len(blocks) == 1:
        return _encode_rows(*blocks[0])
    replies = _start_blocks(blocks[1:])
    flat = _encode_rows(*blocks[0])
    later = [reply.get() for reply in replies]
    for got in later:
        if isinstance(got, BaseException):
            raise got
    return np.concatenate([flat] + later)


def _row_blocks(timesteps: int, n: int) -> list[int]:
    """Row bounds of a ``(timesteps, n)`` grid cut into one block per CPU,
    fewer where a block would hold under ``_MIN_BLOCK_DRAWS`` draws."""
    min_rows = -(-_MIN_BLOCK_DRAWS // max(n, 1))
    parts = max(1, min(_cpu_count(), timesteps // min_rows))
    return [timesteps * k // parts for k in range(parts + 1)]


def _encode_rows(seed: int, thresh: np.ndarray, draws: np.ndarray, grid: np.ndarray,
                 start: int, stop: int) -> np.ndarray:
    """Fill rows ``start:stop`` of ``draws`` and ``grid`` and return the flat
    grid indices of their spikes. The rows draw from the sample's stream
    advanced past the ``start * n`` draws of the rows before them."""
    offset = start * thresh.size
    bits = np.random.PCG64(seed)
    if offset:
        bits.advance(offset)
    rows = slice(start, stop)
    np.random.Generator(bits).random(out=draws[rows])
    np.less(draws[rows], thresh, out=grid[rows])
    flat = np.flatnonzero(grid[rows])
    if offset:
        flat += offset
    return flat


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


_jobs = None  # the helper threads' job queue, once a sample has split
_jobs_lock = threading.Lock()


def _start_blocks(blocks: list[tuple]) -> list:
    """Queue ``_encode_rows`` argument tuples for the helper threads and
    return one reply queue per block, on which its flat indices (or the
    exception it raised) arrive. The helpers start on the first sample
    that splits and serve every later one. ``queue`` is imported only then,
    and ``concurrent.futures`` not at all: its import takes about 10 ms
    and 0.6 MB of peak RSS."""
    global _jobs
    from queue import SimpleQueue
    with _jobs_lock:
        if _jobs is None:
            _jobs = SimpleQueue()
            for _ in range(max(1, _cpu_count() - 1)):
                threading.Thread(target=_serve, args=(_jobs,), name="aersnn-encode",
                                 daemon=True).start()
        jobs = _jobs
    replies = [SimpleQueue() for _ in blocks]
    for block, reply in zip(blocks, replies):
        jobs.put((block, reply))
    return replies


def _serve(jobs) -> None:
    while True:
        block, reply = jobs.get()
        try:
            reply.put(_encode_rows(*block))
        except BaseException as exc:  # raised again in the caller, which waits on it
            reply.put(exc)
        # waiting for the next job, hold none of this sample's arrays
        del block, reply


def _forget_helpers() -> None:
    # a forked child holds none of its parent's threads, and may hold the
    # lock as another parent thread left it
    global _jobs, _jobs_lock
    _jobs, _jobs_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helpers)


def _open_maybe_gzip(path: Path):
    with open(path, "rb") as fh:
        head = fh.read(2)
    if head == b"\x1f\x8b":
        return gzip.open(path, "rb")
    return open(path, "rb")


def _read_idx(path: Path, expected_magic: int) -> np.ndarray:
    try:
        with _open_maybe_gzip(path) as fh:
            data = fh.read()
    except (OSError, EOFError, zlib.error) as exc:
        # a truncated gzip stream ends in EOFError, corrupted bytes in zlib.error
        raise DatasetError(f"cannot read {path}: {exc}") from exc
    if len(data) < 4:
        raise DatasetError(f"{path}: truncated IDX header")
    magic = struct.unpack(">I", data[:4])[0]
    if magic != expected_magic:
        raise DatasetError(
            f"{path}: bad IDX magic 0x{magic:08x}, expected 0x{expected_magic:08x}"
        )
    n_dims = magic & 0xFF
    header_len = 4 + 4 * n_dims
    if len(data) < header_len:
        raise DatasetError(f"{path}: truncated IDX dimension header")
    dims = struct.unpack(f">{n_dims}I", data[4:header_len])
    count = int(np.prod(dims))
    payload = np.frombuffer(data, dtype=np.uint8, offset=header_len)
    if payload.size != count:
        raise DatasetError(
            f"{path}: payload holds {payload.size} bytes, header promises {count}"
        )
    return payload.reshape(dims)


_MNIST_FILES = {
    "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
}


def load_mnist(path, split: str = "train") -> list[Sample]:
    """Load one split of an IDX-format digit dataset from a directory
    holding the standard file names (plain or .gz)."""
    if split not in _MNIST_FILES:
        raise ValueError(f"split must be 'train' or 'test', got {split!r}")
    root = Path(path)
    resolved = []
    for name in _MNIST_FILES[split]:
        candidates = [root / name, root / (name + ".gz")]
        existing = next((c for c in candidates if c.exists()), None)
        if existing is None:
            raise DatasetError(f"missing dataset file {root / name}(.gz)")
        resolved.append(existing)
    images = _read_idx(resolved[0], IDX_IMAGES_MAGIC)
    labels = _read_idx(resolved[1], IDX_LABELS_MAGIC)
    if images.shape[0] != labels.shape[0]:
        raise DatasetError(
            f"image/label count mismatch: {images.shape[0]} vs {labels.shape[0]}"
        )
    if not labels.size:
        raise DatasetError(f"{resolved[0]}: holds no images")
    flat = images.reshape(images.shape[0], -1).astype(np.float64) / 255.0
    return [Sample(features=flat[k], label=int(labels[k])) for k in range(len(labels))]


def load_ecg_beats(path) -> list[Sample]:
    """Load pre-extracted heartbeats: 251 amplitudes + class id per line."""
    samples = []
    seen = set()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise DatasetError(f"cannot read {path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != ECG_FEATURES + 1:
            raise DatasetError(
                f"{path}:{lineno}: expected {ECG_FEATURES + 1} columns, got {len(fields)}"
            )
        try:
            beat = np.array(fields[:-1], dtype=np.float64)
            label = int(fields[-1])
        except ValueError as exc:
            raise DatasetError(f"{path}:{lineno}: {exc}") from exc
        if label not in range(ECG_CLASSES):
            raise DatasetError(
                f"{path}:{lineno}: unknown class id {label}, expected 0..{ECG_CLASSES - 1}"
            )
        # Python floats: a nan or inf amplitude, or a range past float64's,
        # gives a span that is not finite, without a numpy warning
        lo, hi = float(beat.min()), float(beat.max())
        span = hi - lo
        if not math.isfinite(span):
            raise DatasetError(f"{path}:{lineno}: amplitudes {lo!r} to {hi!r}: no finite range")
        if span > 0.0:
            beat = (beat - lo) / span
        else:
            beat = np.zeros_like(beat)
        seen.add(label)
        samples.append(Sample(features=beat, label=label))
    if len(seen) != ECG_CLASSES:
        raise DatasetError(
            f"{path}: expected {ECG_CLASSES} distinct classes, found {sorted(seen)}"
        )
    return samples


def split_samples(
    samples: list[Sample], test_fraction: float, seed: int
) -> tuple[list[Sample], list[Sample]]:
    """Deterministic shuffled train/test split: both halves come in the
    order of one seeded permutation, so a file sorted by class is mixed."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    order = np.random.default_rng(seed).permutation(len(samples)).tolist()
    n_test = max(1, int(round(len(samples) * test_fraction)))
    return [samples[k] for k in order[n_test:]], [samples[k] for k in order[:n_test]]
