"""Rate encoders and dataset ingestion.

Raw samples become AER packet streams by per-timestep Bernoulli draws:
input neuron i fires at step t with probability ``features[i] * max_rate``,
independently per step, from a seeded generator. That is the standard
discrete-time realization of Poisson rate coding, and it is the one
mechanism used for both image and heartbeat data (heartbeats default to a
100-step window).

Dataset loaders:

* MNIST-style IDX files (optionally gzipped): big-endian headers, images
  magic 0x00000803, labels magic 0x00000801. Pixels normalize to [0, 1]
  by /255.
* heartbeat CSV: one beat per line, 251 amplitude columns plus an integer
  class id in {0, 1, 2, 3}; each beat is min-max normalized on load
  (an all-flat beat maps to zeros). The CSV is produced offline by
  scripts/extract_mitbih_beats.py, so the engine never parses waveform
  databases.
"""

from __future__ import annotations

import gzip
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .event_engine import packet_array

__all__ = [
    "EncoderParams",
    "Sample",
    "EncodingError",
    "DatasetError",
    "poisson_encode",
    "load_mnist",
    "load_ecg_beats",
    "split_samples",
    "ECG_FEATURES",
    "ECG_CLASSES",
]

ECG_FEATURES = 251
ECG_CLASSES = 4

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


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
    if features.size and (features.min() < 0.0 or features.max() > 1.0):
        raise EncodingError("features must lie in [0, 1]")
    rng = np.random.default_rng(p.seed)
    draws = rng.random((p.timesteps, features.size))
    grid = draws < features * p.max_rate
    ts, ids = np.nonzero(grid)
    return packet_array(ids, ts)


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
    except OSError as exc:
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
    flat = images.reshape(images.shape[0], -1).astype(np.float64) / 255.0
    return [Sample(features=flat[k], label=int(labels[k])) for k in range(len(labels))]


def load_ecg_beats(path) -> list[Sample]:
    """Load pre-extracted heartbeats: 251 amplitudes + class id per line."""
    samples = []
    seen = set()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
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
        lo = beat.min()
        span = beat.max() - lo
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
    """Deterministic shuffled train/test split."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    order = np.random.default_rng(seed).permutation(len(samples))
    n_test = max(1, int(round(len(samples) * test_fraction)))
    test_idx = set(order[:n_test].tolist())
    train = [samples[k] for k in range(len(samples)) if k not in test_idx]
    test = [samples[k] for k in sorted(test_idx)]
    return train, test
