"""Batch experiment harness.

Subcommands::

    aersnn train  --config run.cfg --out out/          unsupervised training
    aersnn eval   --config run.cfg --checkpoint c --out out/
    aersnn sweep  <param> <v1,v2,...> --config run.cfg --out out/
    aersnn encode --config run.cfg --out out/          dataset -> AER trace

Shared flags: ``--config`` (key = value file), ``--seed`` (overrides the
config seed), ``--out`` (artifact directory, default ``out``),
``--numeric-mode`` (float/fixed override). ``train`` and ``eval`` also take
``--checkpoint`` (initial store for train, required for eval) and
``--no-learning`` (freeze the weights: ``train`` and a trace replay by
``eval`` learn online unless it is given); ``sweep`` and ``encode`` refuse
both, as neither starts from a checkpoint or has learning to turn off.

Each command reads only the dataset splits it uses: ``eval`` the test
split, ``encode`` the training split, ``train`` and ``sweep`` both (an ECG
beat file holds both splits).

Every artifact embeds the config hash and the seed: checkpoints in their
header, JSON/CSV outputs as fields, binary AER traces via a metadata
sidecar. Re-running a command with the same config and seed reproduces
the same bytes (the sweep table's runtime column is wall-clock and is the
one documented exception).

Exit codes: 0 success; 1 configuration or validation failure (including
checkpoint/topology mismatches); 2 dataset or other IO failure, including
a replayed ``.aer`` trace whose length is not a whole number of 6-byte
packets; 3 runtime protocol violation on the AER stream (decreasing
timestamps, more neurons firing in one step than ``engine.fifo_capacity``).

With ``engine.log_activations`` on, ``train`` writes to ``activations.csv``
the per-step record of the last sample it ran, the last evaluated test
sample; a trace replay writes the record of its one stream.

When ``data.aer_trace`` names a recorded trace file, ``eval`` replays it
through the checkpointed network as one continuous stream (no per-sample
resets, no classifier) and writes the emitted spikes, which is how a
captured input recording is pushed through the processor model. The
replay learns online unless ``--no-learning`` is given, and never saves
the store. It learns into the live weights spike by spike at any
``engine.batch_size``: one stream has no sample batches after which
accumulated updates could be folded in.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from .config import (
    STREAM_ENCODE,
    STREAM_SPLIT,
    ConfigError,
    RunConfig,
    config_hash,
    derive_seed,
    parse_config_file,
)
from .encoders import (
    DatasetError,
    Sample,
    load_ecg_beats,
    load_mnist,
    poisson_encode,
    split_samples,
)
from .evaluator import (
    SWEEPABLE_PARAMS,
    build_engine,
    evaluate,
    run_experiment,
    slice_counted,
    sweep,
    NeuronLabels,
)
from .event_engine import (
    PACKET_DTYPE,
    EngineError,
    check_store,
    packet_array,
    read_aer_file,
    write_activation_log,
    write_aer_file,
)
from .topology import CheckpointError, atomic_open, load_store, reset_for_sample, save_store

CHECKPOINT_NAME = "checkpoint.aern"
LABELS_NAME = "labels.json"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aersnn",
        description="Event-driven spiking network processor model",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", type=Path, help="key = value config file")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", type=Path, default=Path("out"),
                       help="artifact output directory")
        p.add_argument("--numeric-mode", choices=("float", "fixed"),
                       help="override numeric.mode")

    for name, text in (("train", "unsupervised online training"),
                       ("eval", "frozen-weight evaluation or trace replay")):
        p = sub.add_parser(name, help=text)
        add_common(p)
        p.add_argument("--checkpoint", type=Path, help="checkpoint file")
        p.add_argument("--no-learning", action="store_true",
                       help="freeze weights during train and eval trace replay "
                            "(replay never saves the store)")
    p_sweep = sub.add_parser("sweep", help="train/evaluate per parameter value")
    p_sweep.add_argument("param", choices=SWEEPABLE_PARAMS)
    p_sweep.add_argument("values", help="comma-separated values")
    add_common(p_sweep)
    add_common(sub.add_parser("encode", help="encode a dataset into an AER trace"))
    return parser


def _load_config(args) -> RunConfig:
    cfg = parse_config_file(args.config) if args.config else RunConfig()
    if args.seed is not None:
        cfg = cfg.with_value("seed", args.seed)
    if args.numeric_mode is not None:
        cfg = cfg.with_value("mode", args.numeric_mode)
    cfg.validate()
    return cfg


def _load_dataset(cfg: RunConfig, *splits: str) -> list[list[Sample]]:
    """The samples of each of ``splits`` (``"train"``, ``"test"``), in that
    order. An IDX dataset reads only those splits' files; a beat file holds
    both splits, and the width and class checks cover all of its beats."""
    if cfg.dataset == "mnist":
        loaded = [load_mnist(cfg.mnist_dir, split) for split in splits]
        read = [sample for samples in loaded for sample in samples]
        widths = {split: samples[0].features.size for split, samples in zip(splits, loaded)}
        if len(set(widths.values())) > 1:
            raise DatasetError(f"{cfg.mnist_dir}: training images have {widths['train']} "
                               f"pixels, test images {widths['test']}")
    else:
        read = load_ecg_beats(cfg.ecg_csv)
        halves = dict(zip(("train", "test"), split_samples(
            read, cfg.test_fraction, derive_seed(cfg.seed, STREAM_SPLIT))))
        loaded = [halves[split] for split in splits]
    width = read[0].features.size
    if cfg.n_input != width:
        raise ConfigError(f"{cfg.dataset} needs topology.n_input = {width}, got {cfg.n_input}")
    n_classes = cfg.resolved_n_classes()
    top = max(sample.label for sample in read)
    if top >= n_classes:
        raise ConfigError(f"dataset has class {top}, data.n_classes is only {n_classes}")
    return loaded


def _check_train_split(cfg: RunConfig, train_set: list[Sample]) -> None:
    """Labeling needs a training sample; a dataset file holds one, so only
    ``data.test_fraction`` can leave none."""
    if not train_set:
        raise ConfigError(f"data.test_fraction = {cfg.test_fraction} leaves no sample "
                          "for training")


def _eval_slice(cfg: RunConfig, test_set: list[Sample]) -> list[Sample]:
    """The test samples ``eval.samples`` selects; none is a config error."""
    test_slice = slice_counted(test_set, cfg.eval_samples)
    if not test_slice:
        raise ConfigError(f"eval.samples = {cfg.eval_samples} selects none of the "
                          f"{len(test_set)} test samples")
    return test_slice


def _load_checkpoint(path: Path, cfg: RunConfig):
    store, seed, _ = load_store(path)
    try:
        check_store(store, cfg.lif_params(), cfg.topology_params())
    except ValueError as exc:
        raise ConfigError(f"checkpoint does not fit the config: {exc}") from exc
    if store.numeric != cfg.numeric_spec():
        raise ConfigError(
            f"checkpoint numeric mode {store.numeric.mode}/{store.numeric.v_format}/"
            f"{store.numeric.w_format} does not match the configured "
            f"{cfg.mode}/{cfg.v_format}/{cfg.w_format}"
        )
    return store


def _json_line(record: dict) -> str:
    return json.dumps(record, sort_keys=True) + "\n"


def _write_lines(path: Path, lines) -> None:
    with atomic_open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(lines)


def _metrics_record(command: str, cfg_hash: str, seed: int, metrics) -> dict:
    record = {"command": command, "config_hash": cfg_hash, "seed": seed}
    record.update(metrics.to_dict())
    return record


def cmd_train(args) -> int:
    cfg = _load_config(args)
    cfg_hash = config_hash(cfg)
    train_set, test_set = _load_dataset(cfg, "train", "test")
    _check_train_split(cfg, train_set)
    _eval_slice(cfg, test_set)
    initial = _load_checkpoint(args.checkpoint, cfg) if args.checkpoint else None
    result = run_experiment(cfg, train_set, test_set, initial,
                            learning=not args.no_learning)

    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    reset_for_sample(result.store)  # checkpoints are sample-boundary state
    save_store(out / CHECKPOINT_NAME, result.store, seed=cfg.seed,
               config_hash=bytes.fromhex(cfg_hash))
    labels_doc = {"config_hash": cfg_hash, "seed": cfg.seed,
                  "n_classes": cfg.resolved_n_classes()}
    labels_doc.update(result.labels.to_dict())
    _write_lines(out / LABELS_NAME, [_json_line(labels_doc)])

    record = _metrics_record("train", cfg_hash, cfg.seed, result.metrics)
    record["train_stats"] = result.train_stats
    record["silent_neurons"] = int(result.labels.silent.sum())
    _write_lines(out / "metrics.jsonl", [_json_line(record)])
    _write_lines(out / "metrics.csv", [
        "command,config_hash,seed,accuracy\n",
        f"train,{cfg_hash},{cfg.seed},{result.metrics.accuracy!r}\n",
    ])
    if cfg.log_activations:
        write_activation_log(out / "activations.csv", result.engine.steps, cfg.n_exc)
    print(f"train: accuracy {result.metrics.accuracy:.4f} "
          f"({result.train_stats['samples']} samples, config {cfg_hash[:12]}, "
          f"seed {cfg.seed})")
    return 0


def _replay_trace(args, cfg: RunConfig, cfg_hash: str) -> int:
    store = _load_checkpoint(args.checkpoint, cfg)
    # one stream has no sample batches to fold deltas after: it learns into
    # the live weights whatever batch_size says
    engine = build_engine(cfg.with_value("batch_size", 1), store)
    engine.learning = not args.no_learning
    try:
        packets = read_aer_file(cfg.aer_trace)
    except ValueError as exc:
        raise DatasetError(f"{cfg.aer_trace}: {exc}") from exc
    stop_ts = int(packets.timestamp.max()) + 1 if packets.size else 0
    result = engine.run(packets, stop_ts=stop_ts)

    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    write_aer_file(out / "replay_output.aer", result.outputs)
    record = {"command": "eval-replay", "config_hash": cfg_hash, "seed": cfg.seed,
              "trace": str(cfg.aer_trace)}
    record.update(result.stats.as_dict())
    _write_lines(out / "metrics.jsonl", [_json_line(record)])
    if cfg.log_activations:
        write_activation_log(out / "activations.csv", result.steps, cfg.n_exc)
    print(f"replay: {result.stats.packets_in} packets in, "
          f"{result.stats.packets_out} out over {result.stats.timesteps} steps")
    return 0


def cmd_eval(args) -> int:
    cfg = _load_config(args)
    cfg_hash = config_hash(cfg)
    if args.checkpoint is None:
        raise ConfigError("eval requires --checkpoint")
    if cfg.aer_trace:
        return _replay_trace(args, cfg, cfg_hash)
    store = _load_checkpoint(args.checkpoint, cfg)
    labels_path = args.checkpoint.parent / LABELS_NAME
    with open(labels_path, "r", encoding="utf-8") as fh:
        try:
            labels = NeuronLabels.from_dict(json.loads(fh.read()),
                                            cfg.resolved_n_classes())
        except (ValueError, KeyError, TypeError) as exc:
            raise DatasetError(f"{labels_path}: malformed labels: {exc!r}") from exc
    if labels.label.shape[0] != cfg.n_exc:
        raise ConfigError(
            f"labels cover {labels.label.shape[0]} neurons, config has {cfg.n_exc}"
        )
    (test_set,) = _load_dataset(cfg, "test")
    test_slice = _eval_slice(cfg, test_set)
    metrics = evaluate(build_engine(cfg, store), labels, test_slice, cfg)

    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    record = _metrics_record("eval", cfg_hash, cfg.seed, metrics)
    _write_lines(out / "metrics.jsonl", [_json_line(record)])
    _write_lines(out / "metrics.csv", [
        "command,config_hash,seed,accuracy\n",
        f"eval,{cfg_hash},{cfg.seed},{metrics.accuracy!r}\n",
    ])
    print(f"eval: accuracy {metrics.accuracy:.4f} over {len(test_slice)} samples")
    return 0


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad sweep values {args.values!r}: {exc}") from exc
    if not values:
        raise ConfigError("sweep needs at least one value")
    train_set, test_set = _load_dataset(cfg, "train", "test")
    _check_train_split(cfg, train_set)
    _eval_slice(cfg, test_set)
    points = sweep(args.param, values, cfg, train_set, test_set)

    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    json_lines = []
    sweep_rows = ["value,accuracy,runtime_s\n"]
    csv_rows = ["value,accuracy\n"]
    for point in points:
        record = _metrics_record("sweep", config_hash(point.cfg), cfg.seed, point.metrics)
        record["param"] = point.param
        record["value"] = point.value
        json_lines.append(_json_line(record))
        sweep_rows.append(f"{point.value!r},{point.metrics.accuracy!r},{point.runtime_s:.3f}\n")
        csv_rows.append(f"{point.value!r},{point.metrics.accuracy!r}\n")
    _write_lines(out / "metrics.jsonl", json_lines)
    _write_lines(out / "sweep.csv", sweep_rows)
    _write_lines(out / "metrics.csv", csv_rows)
    for point in points:
        print(f"sweep {args.param}={point.value}: accuracy {point.metrics.accuracy:.4f}")
    return 0


def cmd_encode(args) -> int:
    cfg = _load_config(args)
    cfg_hash = config_hash(cfg)
    (train_set,) = _load_dataset(cfg, "train")
    subset = slice_counted(train_set, cfg.train_samples)
    streams = [
        poisson_encode(sample, cfg.encoder_params(derive_seed(cfg.seed, STREAM_ENCODE, idx)))
        for idx, sample in enumerate(subset)
    ]
    # sample idx occupies timesteps idx * timesteps .. (idx + 1) * timesteps - 1
    offsets = np.repeat(np.arange(len(streams), dtype=np.int64) * cfg.timesteps,
                        np.array([len(s) for s in streams], dtype=np.intp))
    joined = np.concatenate([np.empty(0, PACKET_DTYPE)] + streams)
    packets = packet_array(joined["neuron_id"], joined["timestamp"] + offsets)
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    n = write_aer_file(out / "trace.aer", packets)
    _write_lines(out / "trace.meta.json", [_json_line({
        "command": "encode", "config_hash": cfg_hash, "seed": cfg.seed,
        "packets": n, "samples": len(subset), "timesteps": cfg.timesteps,
    })])
    print(f"encode: {n} packets from {len(subset)} samples "
          f"-> {out / 'trace.aer'}")
    return 0


_COMMANDS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "sweep": cmd_sweep,
    "encode": cmd_encode,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        rc = _COMMANDS[args.command](args)
    except (ConfigError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DatasetError, OSError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except EngineError as exc:
        print(f"protocol error: {exc}", file=sys.stderr)
        return 3
    if rc == 0:
        print(f"done in {time.perf_counter() - started:.1f}s")
    return rc


if __name__ == "__main__":
    sys.exit(main())
