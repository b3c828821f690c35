"""Label assignment, spike-count classification, metrics, and sweeps.

After unsupervised training each excitatory neuron gets the class it
responded to most strongly: a labeling pass (weights frozen) replays
labeled samples, the per-class mean spike count of each neuron becomes its
response profile, and the argmax is its label (ties to the lowest class
id; all-silent neurons get class 0 and a silence flag). Inference then
scores a sample by the mean spike count of each label group and picks the
argmax, again with ties to the lowest class.

Training, labeling and evaluation run each sample from rest through one
driver, which encodes sample ``idx`` with ``derive_seed(cfg.seed, *stream,
idx)`` for the stream ``(STREAM_TRAIN, epoch)``, ``(STREAM_LABEL,)`` or
``(STREAM_EVAL,)``. Every pass restores ``engine.learning`` when it ends or
raises; labeling and evaluation run with learning off. A frozen pass
runs chunks of up to ``LANES`` samples in lockstep lanes of one
``run_lanes``, each lane from the reset store; no sample's result depends
on its chunk, and the store ends in the last sample's state, as one
sample per run leaves it. A learning pass does the same within each batch
of ``batch_size`` samples when the engine ``learns_in_lanes`` (fixed-mode
batches: the weights are frozen until the batch's flush and the deltas
sum exactly), and otherwise runs one sample per engine call. After the
last sample of each batch of a learning pass the driver folds the
accumulated deltas into the weights; a frozen pass never does, so it
leaves the loaded weights as they are, even outside ``[w_min, w_max]``. A
FIFO overflow raises for the first sample that overflows.

``run_experiment`` is the one train/label/evaluate pipeline shared by the
CLI commands and the hyperparameter sweeps.
"""

from __future__ import annotations

import logging
import math
import time
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .config import (
    STREAM_EVAL,
    STREAM_INIT,
    STREAM_LABEL,
    STREAM_TRAIN,
    ConfigError,
    RunConfig,
    derive_seed,
)
from .encoders import Sample, poisson_encode
from .event_engine import EventEngine
from .topology import StateStore, build_network, reset_for_sample


log = logging.getLogger(__name__)

SWEEPABLE_PARAMS = ("n_exc", "batch_size", "v_thresh", "timesteps")
# frozen samples per engine call; samples/s rose up to 16 lanes and fell at
# 64 (784x100 digits and 251x100 beats, on a 2-core host)
LANES = 16


@dataclass
class NeuronLabels:
    label: np.ndarray     # (n_exc,) class id per neuron
    response: np.ndarray  # (n_exc, n_classes) mean spike count per class
    silent: np.ndarray    # (n_exc,) True where the neuron never fired

    def to_dict(self) -> dict:
        return {
            "label": self.label.tolist(),
            "response": self.response.tolist(),
            "silent": self.silent.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict, n_classes: int) -> "NeuronLabels":
        """Raise ValueError unless ``response`` holds one row of
        ``n_classes`` mean counts per neuron, ``label`` one class id in
        ``[0, n_classes)`` per neuron and ``silent`` one flag per neuron."""
        label = np.array(data["label"])
        response = np.array(data["response"], dtype=np.float64)
        silent = np.array(data["silent"], dtype=bool)
        rows = response.shape[:1]
        if response.shape[1:] != (n_classes,) or label.shape != rows or silent.shape != rows:
            raise ValueError(f"label {label.shape}, response {response.shape} and silent "
                             f"{silent.shape} do not hold one row of {n_classes} classes "
                             "per neuron")
        if label.dtype.kind not in "iu" or ((label < 0) | (label >= n_classes)).any():
            raise ValueError(f"labels must be class ids in [0, {n_classes})")
        return cls(label=label.astype(np.int64), response=response, silent=silent)


@dataclass
class Metrics:
    accuracy: float
    confusion: np.ndarray       # (n_classes, n_classes), rows = true class
    per_class_recall: np.ndarray

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "confusion": self.confusion.tolist(),
            "per_class_recall": self.per_class_recall.tolist(),
        }


@dataclass
class SweepPoint:
    param: str
    value: float
    cfg: RunConfig  # the config this point ran
    metrics: Metrics
    runtime_s: float


@dataclass
class ExperimentResult:
    store: StateStore
    labels: NeuronLabels
    metrics: Metrics
    engine: EventEngine
    train_stats: dict


def build_engine(cfg: RunConfig, store: StateStore | None = None) -> EventEngine:
    if store is None:
        store = build_network(
            cfg.topology_params(),
            cfg.stdp_params(),
            seed=derive_seed(cfg.seed, STREAM_INIT),
            numeric=cfg.numeric_spec(),
            v_rest=cfg.v_rest,
        )
    return EventEngine(
        store,
        cfg.lif_params(),
        cfg.trace_params(),
        cfg.stdp_params(),
        cfg.topology_params(),
        v_floor=cfg.resolved_v_floor(),
        fifo_capacity=cfg.fifo_capacity,
        accumulate_updates=cfg.batch_size > 1,
    )


def _run_samples(engine: EventEngine, samples: list[Sample], cfg: RunConfig,
                 stream: tuple[int, ...], *, learning: bool) -> Iterator[tuple]:
    """Yield each sample, its ``RunResult`` and its spike count per
    excitatory neuron, run with ``engine.learning`` set to ``learning``.
    A pass runs up to ``LANES`` samples per ``run_lanes``, each from the
    reset store; a learning pass whose engine does not learn in lanes runs
    one sample per call. A learning pass flushes the accumulated weight
    deltas (``apply_accumulated_updates``) once the consumer has taken the
    last sample of each batch of ``cfg.batch_size`` samples, so its chunks
    never cross a batch; a frozen pass never flushes."""
    was_learning = engine.learning
    engine.learning = learning
    width = LANES if not learning or engine.learns_in_lanes else 1
    batch = cfg.batch_size if learning else LANES
    try:
        for first in range(0, len(samples), batch):
            for start in range(first, min(first + batch, len(samples)), width):
                chunk = samples[start:min(start + width, first + batch)]
                reset_for_sample(engine.store)
                seeds = [derive_seed(cfg.seed, *stream, idx)
                         for idx in range(start, start + len(chunk))]
                streams = [poisson_encode(sample, cfg.encoder_params(seed))
                           for sample, seed in zip(chunk, seeds)]
                runs = engine.run_lanes(streams, stop_ts=cfg.timesteps)
                for sample, run in zip(chunk, runs):
                    yield sample, run, np.bincount(run.outputs.neuron_id,
                                                   minlength=engine.store.n_exc)
            if learning:
                engine.apply_accumulated_updates()
    finally:
        engine.learning = was_learning


def train_pass(engine: EventEngine, samples: list[Sample], cfg: RunConfig,
               *, learning: bool = True) -> dict:
    """Stream samples through the engine with online learning, whose
    batches the sample driver flushes. Returns aggregate packet counters."""
    totals = {"samples": 0, "packets_in": 0, "packets_out": 0}
    for epoch in range(cfg.epochs):
        runs = _run_samples(engine, samples, cfg, (STREAM_TRAIN, epoch), learning=learning)
        for _, result, _ in runs:
            totals["samples"] += 1
            totals["packets_in"] += result.stats.packets_in
            totals["packets_out"] += result.stats.packets_out
    return totals


def assign_labels(engine: EventEngine, samples: list[Sample], cfg: RunConfig,
                  n_classes: int) -> NeuronLabels:
    """Frozen-weight labeling pass over a labeled sample set."""
    if not samples:
        raise ValueError("labeling needs at least one sample")
    n_exc = engine.store.n_exc
    sums = np.zeros((n_exc, n_classes), dtype=np.float64)
    class_counts = np.zeros(n_classes, dtype=np.int64)
    for sample, _, counts in _run_samples(engine, samples, cfg, (STREAM_LABEL,),
                                          learning=False):
        sums[:, sample.label] += counts
        class_counts[sample.label] += 1
    response = sums / np.maximum(class_counts, 1)
    label = np.argmax(response, axis=1)  # argmax ties resolve to lowest id
    silent = ~response.any(axis=1)
    label[silent] = 0
    n_silent = int(silent.sum())
    if n_silent:
        log.warning("%d of %d neurons never fired during labeling", n_silent, n_exc)
    return NeuronLabels(label=label, response=response, silent=silent)


def classify(counts: np.ndarray, labels: NeuronLabels) -> int:
    """Mean spike count per label group, argmax with ties to the lowest
    class id. Group means (not sums) keep unequal group sizes unbiased."""
    n_classes = labels.response.shape[1]
    sums = np.bincount(labels.label, weights=counts, minlength=n_classes)
    sizes = np.bincount(labels.label, minlength=n_classes)
    return int(np.argmax(sums / np.maximum(sizes, 1)))


def evaluate(engine: EventEngine, labels: NeuronLabels, samples: list[Sample],
             cfg: RunConfig) -> Metrics:
    """Frozen-weight evaluation over a test set."""
    if not samples:
        raise ValueError("evaluation needs at least one sample")
    n_classes = labels.response.shape[1]
    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    for sample, _, counts in _run_samples(engine, samples, cfg, (STREAM_EVAL,),
                                          learning=False):
        confusion[sample.label, classify(counts, labels)] += 1
    total = confusion.sum()
    accuracy = float(np.trace(confusion)) / float(total)
    recall = np.diag(confusion) / np.maximum(confusion.sum(axis=1), 1)
    return Metrics(accuracy=accuracy, confusion=confusion, per_class_recall=recall)


def slice_counted(samples: list[Sample], count: int) -> list[Sample]:
    """-1 keeps the whole split, 0 selects nothing."""
    return samples if count < 0 else samples[:count]


def run_experiment(cfg: RunConfig, train_samples: list[Sample],
                   test_samples: list[Sample],
                   initial_store: StateStore | None = None,
                   *, learning: bool = True) -> ExperimentResult:
    """Train, label on the tail slice of the training set, evaluate."""
    train_slice = slice_counted(train_samples, cfg.train_samples)
    test_slice = slice_counted(test_samples, cfg.eval_samples)
    engine = build_engine(cfg, initial_store)
    train_stats = train_pass(engine, train_slice, cfg, learning=learning)
    # labeling uses the tail of the training slice, samples the network has
    # just trained on (not held out), and never test data
    label_base = train_slice if train_slice else train_samples
    n_label = max(1, int(round(len(label_base) * cfg.label_fraction)))
    labels = assign_labels(engine, label_base[-n_label:], cfg,
                           cfg.resolved_n_classes())
    metrics = evaluate(engine, labels, test_slice, cfg)
    return ExperimentResult(store=engine.store, labels=labels, metrics=metrics,
                            engine=engine, train_stats=train_stats)


def sweep(param: str, values, cfg: RunConfig, train_samples: list[Sample],
          test_samples: list[Sample]) -> list[SweepPoint]:
    """Train and evaluate once per value of one hyperparameter. Every
    point's config is validated before the first point runs."""
    if param not in SWEEPABLE_PARAMS:
        raise ValueError(
            f"unknown sweep parameter {param!r}, expected one of {SWEEPABLE_PARAMS}"
        )
    integer = isinstance(getattr(cfg, param), int)
    configs = []
    for value in values:
        try:
            if not math.isfinite(value):
                raise ConfigError(f"{param} must be finite")
            if integer and not float(value).is_integer():
                raise ConfigError(f"{param} must be an integer")
            run_cfg = cfg.with_value(param, int(value) if integer else float(value))
            run_cfg.validate()
        except ConfigError as exc:
            raise ConfigError(f"sweep {param} = {value}: {exc}") from exc
        configs.append(run_cfg)
    points = []
    for value, run_cfg in zip(values, configs):
        started = time.perf_counter()
        result = run_experiment(run_cfg, train_samples, test_samples)
        elapsed = time.perf_counter() - started
        points.append(
            SweepPoint(param=param, value=float(value), cfg=run_cfg,
                       metrics=result.metrics, runtime_s=elapsed)
        )
        log.info("sweep %s=%s -> accuracy %.4f (%.1fs)",
                 param, value, result.metrics.accuracy, elapsed)
    return points
