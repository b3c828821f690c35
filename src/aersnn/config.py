"""Run configuration: parsing, validation, hashing, and seed derivation.

Config files are line-oriented ``section.key = value`` text. Blank lines
and ``#`` comments are ignored; unknown keys are hard errors so a typo can
never silently fall back to a default. The canonical serialization (all
keys, sorted, seed excluded) is hashed to identify every artifact a run
emits; the seed is reported alongside the hash rather than inside it.

All randomness in a run flows from the single root seed, split into
deterministic per-purpose streams (weight init, per-sample encoder draws
for the train/label/eval phases, dataset splitting).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields, replace

import numpy as np

from .dynamics import LifParams, TraceParams
from .encoders import EncoderParams
from .numerics import NumericSpec, QFormat
from .plasticity import StdpParams
from .topology import TopologyParams

__all__ = [
    "ConfigError",
    "RunConfig",
    "parse_config",
    "parse_config_file",
    "canonical_text",
    "config_hash",
    "derive_seed",
    "STREAM_INIT",
    "STREAM_TRAIN",
    "STREAM_LABEL",
    "STREAM_EVAL",
    "STREAM_ENCODE",
    "STREAM_SPLIT",
]

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


@dataclass
class RunConfig:
    # topology
    n_input: int = 784
    n_exc: int = 100
    w_inh: float = 1.5
    # lif
    v_rest: float = 0.0
    v_thresh: float = 10.0
    tau_v: float = 100.0
    # trace
    tau_x: float = 20.0
    alpha: float = 1.0
    x_max: float = 10.0
    # stdp
    alpha_pre: float = 0.01
    alpha_post: float = 0.004
    w_min: float = 0.0
    w_max: float = 1.0
    # encoder
    timesteps: int = 350
    max_rate: float = 0.25
    # engine
    dt: float = 1.0
    v_floor: float | None = None
    fifo_capacity: int = 4096
    batch_size: int = 1
    log_activations: bool = False
    # numeric
    mode: str = "float"
    v_format: str = "q8.8"
    w_format: str = "q2.14"
    # train / eval sample counts; -1 means the whole split, 0 means none
    train_samples: int = 10000
    epochs: int = 1
    label_fraction: float = 0.1
    eval_samples: int = 2000
    # data
    dataset: str = "mnist"
    mnist_dir: str = "data/mnist"
    ecg_csv: str = "data/ecg_beats.csv"
    n_classes: int = 0
    test_fraction: float = 0.25
    aer_trace: str = ""
    write_text_trace: bool = False
    # run
    seed: int = 1

    # -- parameter bundles --------------------------------------------------

    def topology_params(self) -> TopologyParams:
        return TopologyParams(n_input=self.n_input, n_exc=self.n_exc, w_inh=self.w_inh)

    def lif_params(self) -> LifParams:
        return LifParams(
            v_rest=self.v_rest, v_thresh=self.v_thresh, tau_v=self.tau_v, dt=self.dt
        )

    def trace_params(self) -> TraceParams:
        return TraceParams(
            tau_x=self.tau_x, alpha=self.alpha, x_max=self.x_max, dt=self.dt
        )

    def stdp_params(self) -> StdpParams:
        return StdpParams(
            alpha_pre=self.alpha_pre,
            alpha_post=self.alpha_post,
            w_min=self.w_min,
            w_max=self.w_max,
        )

    def encoder_params(self, seed: int) -> EncoderParams:
        return EncoderParams(timesteps=self.timesteps, max_rate=self.max_rate, seed=seed)

    def numeric_spec(self) -> NumericSpec:
        return NumericSpec(
            mode=self.mode,
            v_format=QFormat.from_string(self.v_format),
            w_format=QFormat.from_string(self.w_format),
        )

    def resolved_v_floor(self) -> float:
        return -self.v_thresh if self.v_floor is None else self.v_floor

    def resolved_n_classes(self) -> int:
        if self.n_classes > 0:
            return self.n_classes
        return 4 if self.dataset == "ecg" else 10

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
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if not 0.0 < self.label_fraction < 1.0:
            raise ConfigError(
                f"label_fraction must be in (0, 1), got {self.label_fraction}"
            )
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigError(
                f"test_fraction must be in (0, 1), got {self.test_fraction}"
            )
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be in [0, 2**64), got {self.seed}")
        for name in ("train_samples", "eval_samples"):
            if getattr(self, name) < -1:
                raise ConfigError(f"{name} must be >= -1 (-1 means the whole split)")

    def with_value(self, key: str, value) -> "RunConfig":
        return replace(self, **{key: value})


# dotted config key -> dataclass field
_KEY_MAP = {
    "topology.n_input": "n_input",
    "topology.n_exc": "n_exc",
    "topology.w_inh": "w_inh",
    "lif.v_rest": "v_rest",
    "lif.v_thresh": "v_thresh",
    "lif.tau_v": "tau_v",
    "trace.tau_x": "tau_x",
    "trace.alpha": "alpha",
    "trace.x_max": "x_max",
    "stdp.alpha_pre": "alpha_pre",
    "stdp.alpha_post": "alpha_post",
    "stdp.w_min": "w_min",
    "stdp.w_max": "w_max",
    "encoder.timesteps": "timesteps",
    "encoder.max_rate": "max_rate",
    "engine.dt": "dt",
    "engine.v_floor": "v_floor",
    "engine.fifo_capacity": "fifo_capacity",
    "engine.batch_size": "batch_size",
    "engine.log_activations": "log_activations",
    "numeric.mode": "mode",
    "numeric.v_format": "v_format",
    "numeric.w_format": "w_format",
    "train.samples": "train_samples",
    "train.epochs": "epochs",
    "train.label_fraction": "label_fraction",
    "eval.samples": "eval_samples",
    "data.dataset": "dataset",
    "data.mnist_dir": "mnist_dir",
    "data.ecg_csv": "ecg_csv",
    "data.n_classes": "n_classes",
    "data.test_fraction": "test_fraction",
    "data.aer_trace": "aer_trace",
    "data.write_text_trace": "write_text_trace",
    "run.seed": "seed",
}
_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _parse_value(key: str, name: str, text: str):
    ftype = _FIELD_TYPES[name]
    text = text.strip()
    try:
        if ftype == "int":
            return int(text)
        if ftype == "float":
            return float(text)
        if ftype == "bool":
            if text.lower() in ("true", "1", "yes"):
                return True
            if text.lower() in ("false", "0", "no"):
                return False
            raise ValueError(f"expected a boolean, got {text!r}")
        if ftype == "float | None":
            if text.lower() in ("auto", "none", ""):
                return None
            return float(text)
        return text
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {exc}") from exc


def parse_config(text: str, base: RunConfig | None = None) -> RunConfig:
    cfg = base if base is not None else RunConfig()
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
    return replace(cfg, **updates)


def parse_config_file(path, base: RunConfig | None = None) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text, base)


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
