"""Run configuration: parsing, validation, hashing, and seed derivation.

Config files are line-oriented ``section.key = value`` text. Blank lines
and ``#`` comments are ignored; unknown keys are hard errors so a typo can
never silently fall back to a default. The canonical serialization (all
keys, sorted, seed excluded) is hashed to identify every artifact a run
emits; the seed is reported alongside the hash rather than inside it.

Each key is declared once, on its ``RunConfig`` field; the key map is
derived from the fields. The parameter bundles each module validates and
runs on (``LifParams``, ``TopologyParams``, ...) are built by name: every
bundle field takes the config field of the same name.

All randomness in a run flows from the single root seed, split into
deterministic per-purpose streams (weight init, per-sample encoder draws
for the train/label/eval phases, dataset splitting).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .encoders import ECG_CLASSES, EncoderParams
from .numerics import NumericSpec, QFormat
from .topology import LifParams, StdpParams, TopologyParams, TraceParams


STREAM_INIT = 0
STREAM_TRAIN = 1
STREAM_LABEL = 2
STREAM_EVAL = 3
STREAM_ENCODE = 4
STREAM_SPLIT = 5


class ConfigError(Exception):
    pass


def derive_seed(root_seed: int, *path: int) -> int:
    """Deterministic child seed for one purpose-specific stream."""
    seq = np.random.SeedSequence((root_seed,) + tuple(path))
    return int(seq.generate_state(1, np.uint64)[0])


def _key(key: str, default):
    """A ``RunConfig`` field read from, and written as, the dotted ``key``."""
    return field(default=default, metadata={"key": key})


@dataclass
class RunConfig:
    n_input: int = _key("topology.n_input", 784)
    n_exc: int = _key("topology.n_exc", 100)
    w_inh: float = _key("topology.w_inh", 1.5)
    v_rest: float = _key("lif.v_rest", 0.0)
    v_thresh: float = _key("lif.v_thresh", 10.0)
    tau_v: float = _key("lif.tau_v", 100.0)
    tau_x: float = _key("trace.tau_x", 20.0)
    alpha: float = _key("trace.alpha", 1.0)
    x_max: float = _key("trace.x_max", 10.0)
    alpha_pre: float = _key("stdp.alpha_pre", 0.01)
    alpha_post: float = _key("stdp.alpha_post", 0.004)
    w_min: float = _key("stdp.w_min", 0.0)
    w_max: float = _key("stdp.w_max", 1.0)
    timesteps: int = _key("encoder.timesteps", 350)
    max_rate: float = _key("encoder.max_rate", 0.25)
    dt: float = _key("engine.dt", 1.0)
    v_floor: float | None = _key("engine.v_floor", None)
    fifo_capacity: int = _key("engine.fifo_capacity", 4096)
    batch_size: int = _key("engine.batch_size", 1)
    log_activations: bool = _key("engine.log_activations", False)
    mode: str = _key("numeric.mode", "float")
    v_format: str = _key("numeric.v_format", "q8.8")
    w_format: str = _key("numeric.w_format", "q2.14")
    # sample counts: -1 means the whole split, 0 means none
    train_samples: int = _key("train.samples", 10000)
    epochs: int = _key("train.epochs", 1)
    label_fraction: float = _key("train.label_fraction", 0.1)
    eval_samples: int = _key("eval.samples", 2000)
    dataset: str = _key("data.dataset", "mnist")
    mnist_dir: str = _key("data.mnist_dir", "data/mnist")
    ecg_csv: str = _key("data.ecg_csv", "data/ecg_beats.csv")
    n_classes: int = _key("data.n_classes", 0)
    test_fraction: float = _key("data.test_fraction", 0.25)
    aer_trace: str = _key("data.aer_trace", "")
    seed: int = _key("run.seed", 1)

    # -- parameter bundles --------------------------------------------------

    def _bundle(self, cls, **given):
        """``cls`` built from ``given`` and, for each of its other fields,
        this config's field of the same name (an ``AttributeError`` if
        there is none, which ``validate`` lets through)."""
        return cls(**{f.name: getattr(self, f.name) for f in fields(cls)
                      if f.name not in given}, **given)

    def topology_params(self) -> TopologyParams:
        return self._bundle(TopologyParams)

    def lif_params(self) -> LifParams:
        return self._bundle(LifParams)

    def trace_params(self) -> TraceParams:
        return self._bundle(TraceParams)

    def stdp_params(self) -> StdpParams:
        return self._bundle(StdpParams)

    def encoder_params(self, seed: int) -> EncoderParams:
        return self._bundle(EncoderParams, seed=seed)

    def numeric_spec(self) -> NumericSpec:
        return self._bundle(NumericSpec, v_format=QFormat.from_string(self.v_format),
                            w_format=QFormat.from_string(self.w_format))

    def resolved_v_floor(self) -> float:
        return self.lif_params().floor

    def resolved_n_classes(self) -> int:
        if self.n_classes > 0:
            return self.n_classes
        return ECG_CLASSES if self.dataset == "ecg" else 10

    def validate(self) -> None:
        """Build every parameter bundle so each module's invariants run."""
        try:
            self.topology_params()
            self.lif_params()
            self.trace_params()
            self.stdp_params()
            self.encoder_params(0)
            self.numeric_spec()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.dataset not in ("mnist", "ecg"):
            raise ConfigError(f"dataset must be 'mnist' or 'ecg', got {self.dataset!r}")
        for name in ("batch_size", "epochs", "fifo_capacity"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("label_fraction", "test_fraction"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must be in (0, 1), got {getattr(self, name)}")
        if self.n_classes < 0:
            raise ConfigError(f"n_classes must be >= 0 (0: the dataset's), got {self.n_classes}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be in [0, 2**64), got {self.seed}")
        for name in ("train_samples", "eval_samples"):
            if getattr(self, name) < -1:
                raise ConfigError(f"{name} must be >= -1 (-1 means the whole split)")

    def with_value(self, key: str, value) -> "RunConfig":
        return replace(self, **{key: value})


# dotted config key -> dataclass field
_KEY_MAP = {f.metadata["key"]: f.name for f in fields(RunConfig)}
_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        # nan fails every comparison, so no range check would refuse it
        raise ValueError(f"must be finite, got {text!r}")
    return value


def _parse_value(key: str, name: str, text: str):
    ftype = _FIELD_TYPES[name]
    text = text.strip()
    try:
        if ftype == "int":
            return int(text)
        if ftype == "float":
            return _finite(text)
        if ftype == "bool":
            if text.lower() in ("true", "1", "yes"):
                return True
            if text.lower() in ("false", "0", "no"):
                return False
            raise ValueError(f"expected a boolean, got {text!r}")
        if ftype == "float | None":
            if text.lower() in ("auto", "none", ""):
                return None
            return _finite(text)
        return text
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {exc}") from exc


def parse_config(text: str) -> RunConfig:
    updates = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEY_MAP:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        name = _KEY_MAP[key]
        updates[name] = _parse_value(key, name, value)
    return RunConfig(**updates)


def parse_config_file(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def canonical_text(cfg: RunConfig) -> str:
    """Stable serialization of everything except the seed."""
    lines = []
    for key in sorted(_KEY_MAP):
        name = _KEY_MAP[key]
        if name == "seed":
            continue
        value = getattr(cfg, name)
        if value is None:
            value = "auto"
        elif isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(canonical_text(cfg).encode("utf-8")).hexdigest()
