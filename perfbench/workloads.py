"""The three benchmark workloads: seeded inputs, set-up, one measured
round, and the correctness checks that run outside every timed interval.

Each workload writes its inputs into a work directory from ``--seed`` and
the program reads only those files. All paths handed to the program are
relative to the work directory (the worker runs there), so config hashes
and artifact bytes do not depend on where the checkout lives.

A round is a fixed amount of closed-loop work, repeated until the run's
time budget is spent. Every round starts from the same state, so its
output digests must be identical across the rounds of one invocation.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import struct
import time

import numpy as np

import aersnn.cli as cli
import aersnn.config as config
import aersnn.encoders as encoders
import aersnn.evaluator as evaluator
import aersnn.topology as topology
from aersnn.reference_sim import dense_simulate

clock = time.perf_counter

# The on-disk AER format: u16 neuron id + u32 timestamp per packet.
PACKET_BYTES = 6

# Per-round sample counts. "paper" keeps the paper-scale network and the
# default model parameters; "tiny" exists only for the harness self-test.
# Rounds are kept short (about a second) so that a 30 s run holds 20-30
# of them, each calibrated by the reference loop timed just before it.
# "pretrain" samples are trained once, before
# any timed interval, into the checkpoint every round starts from: the
# firing rate and the per-sample cost stop rising after about 20 digits
# or 24 beats, so rounds run in the regime users train in, not in the
# cheaper first samples of a fresh network. "label" samples of distinct
# classes are labeled, and one test sample of each of those classes is
# evaluated.
SIZES = {
    "digits_float": {
        "paper": {"pretrain": 20, "train": 2, "label": 2, "timesteps": 350,
                  "spot": 2},
        "tiny": {"pretrain": 2, "train": 2, "label": 2, "timesteps": 12,
                 "spot": 2},
    },
    "ecg_fixed": {
        "paper": {"per_class": 16, "pretrain": 24, "train": 4, "label": 2,
                  "timesteps": 100},
        "tiny": {"per_class": 8, "pretrain": 4, "train": 4, "label": 2,
                 "timesteps": 10},
    },
    "trace_replay": {
        "paper": {"samples": 4, "timesteps": 350},
        "tiny": {"samples": 2, "timesteps": 12},
    },
}

DIGITS_DIR = "inputs/digits"
BEATS_CSV = "inputs/beats.csv"
REPLAY_CONFIG = "inputs/replay.cfg"
REPLAY_CHECKPOINT = "inputs/checkpoint.aern"
TRAINED_CHECKPOINT = "inputs/trained.aern"
ENCODE_OUT = "encode_out"
REPLAY_OUT = "replay_out"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_sha256(path) -> str:
    with open(path, "rb") as fh:
        return sha256(fh.read())


# -- seeded input generators ------------------------------------------------


def _write_idx(path, magic: int, array: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(struct.pack(">I", magic))
        fh.write(struct.pack(f">{array.ndim}I", *array.shape))
        fh.write(array.astype(np.uint8).tobytes())


def write_digits(root, n_train: int, n_test: int, seed: int, side: int = 28) -> None:
    """IDX digits with the standard file names: one bright bar per class
    (row set by the label) over uniform noise, labels cycling 0..9."""
    rng = np.random.default_rng(seed)
    os.makedirs(root, exist_ok=True)
    for n, prefix in ((n_train, "train"), (n_test, "t10k")):
        labels = np.arange(n) % 10
        images = np.zeros((n, side, side), dtype=np.uint8)
        for k, lbl in enumerate(labels):
            row = (int(lbl) * side) // 10
            images[k, row:row + max(2, side // 10), :] = 220
            noisy = images[k].astype(int) + rng.integers(0, 30, (side, side))
            images[k] = np.clip(noisy, 0, 255).astype(np.uint8)
        _write_idx(os.path.join(root, f"{prefix}-images-idx3-ubyte"), 0x00000803, images)
        _write_idx(os.path.join(root, f"{prefix}-labels-idx1-ubyte"), 0x00000801, labels)


def write_beats(path, per_class: int, seed: int, n_features: int = 251) -> None:
    """Heartbeat CSV: one noisy sine family per class (class c spans c + 1
    whole periods), classes interleaved. Whole periods give every class
    the same mean intensity after the loader's min-max normalization, so
    the seeded split's class mix does not change the work per sample."""
    rng = np.random.default_rng(seed)
    phase = np.linspace(0.0, 2.0 * np.pi, n_features, endpoint=False)
    lines = []
    for _ in range(per_class):
        for label in range(4):
            base = np.sin(phase * (label + 1)) * (label + 1)
            beat = base + rng.normal(0, 0.1, n_features)
            lines.append(",".join(repr(float(a)) for a in beat) + f",{label}\n")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(lines)


def matched_split(pool: list, test: list, n: int) -> tuple[list, list]:
    """``n`` labeling samples of distinct classes taken in order from
    ``pool``, each of a class the test split also holds, and the first test
    sample of each of those classes. Labeling then covers every evaluated
    class, so accuracy can move with what the network has learned."""
    first_test = {}
    for sample in test:
        first_test.setdefault(sample.label, sample)
    label = []
    for sample in pool:
        if sample.label in first_test and all(sample.label != x.label for x in label):
            label.append(sample)
            if len(label) == n:
                return label, [first_test[x.label] for x in label]
    raise RuntimeError(f"fewer than {n} classes are in both the labeling pool and the test split")


# -- workloads --------------------------------------------------------------


class EngineWorkload:
    """Online training, then frozen-weight labeling and evaluation, called
    in-process through the evaluator's public functions."""

    def __init__(self, name: str, scale: str, seed: int):
        self.name = name
        self.size = SIZES[name][scale]
        self.seed = seed
        if name == "digits_float":
            self.cfg = config.RunConfig(
                mnist_dir=DIGITS_DIR, timesteps=self.size["timesteps"], seed=seed
            )
        else:
            self.cfg = config.RunConfig(
                dataset="ecg", ecg_csv=BEATS_CSV, n_input=encoders.ECG_FEATURES,
                timesteps=self.size["timesteps"], mode="fixed", batch_size=4,
                seed=seed,
            )
        self.cfg.validate()
        self.config_hash = config.config_hash(self.cfg)
        self.counts: list[bytes] = []

    @property
    def has_oracle(self) -> bool:
        return not self.cfg.numeric_spec().is_fixed

    def _load(self) -> tuple[list, list]:
        cfg = self.cfg
        if cfg.dataset == "mnist":
            return (encoders.load_mnist(cfg.mnist_dir, "train"),
                    encoders.load_mnist(cfg.mnist_dir, "test"))
        beats = encoders.load_ecg_beats(cfg.ecg_csv)
        return encoders.split_samples(beats, cfg.test_fraction,
                                      config.derive_seed(cfg.seed, config.STREAM_SPLIT))

    def generate(self) -> None:
        """Write the dataset, then train the seeded network over the
        pretraining samples into the checkpoint the rounds start from."""
        s = self.size
        if self.name == "digits_float":
            # every class follows the training samples, for labeling
            write_digits(DIGITS_DIR, s["pretrain"] + s["train"] + 10, s["label"], self.seed)
        else:
            write_beats(BEATS_CSV, s["per_class"], self.seed)
        cfg = self.cfg
        engine = evaluator.build_engine(cfg)
        evaluator.train_pass(engine, self._load()[0][: s["pretrain"]], cfg)
        topology.save_store(TRAINED_CHECKPOINT, engine.store, seed=cfg.seed,
                            config_hash=bytes.fromhex(self.config_hash))

    def setup(self) -> None:
        """Dataset load and checkpoint load, as a resumed train command
        does them, and the engine build."""
        train, test = self._load()
        s = self.size
        self.train = train[s["pretrain"]: s["pretrain"] + s["train"]]
        self.label, self.eval = matched_split(
            train[s["pretrain"] + s["train"]:], test, s["label"])
        if len(self.train) != s["train"]:
            raise RuntimeError(f"{self.name}: generated dataset is too small")
        store, _, digest = topology.load_store(TRAINED_CHECKPOINT)
        if digest.hex() != self.config_hash:
            raise RuntimeError(f"{self.name}: checkpoint written for another config")
        self.initial = evaluator.build_engine(self.cfg, store).store

    def install_recorders(self) -> None:
        """Keep each evaluated sample's spike counts for the digest."""
        classify = evaluator.classify

        def recording_classify(counts, labels):
            self.counts.append(np.asarray(counts, dtype=np.int64).tobytes())
            return classify(counts, labels)

        evaluator.classify = recording_classify

    def input_stats(self) -> dict:
        s = self.size
        return {"pretrain_samples": s["pretrain"], "train_samples": s["train"],
                "label_samples": s["label"], "label_classes": [x.label for x in self.label],
                "eval_samples": len(self.eval), "timesteps": self.cfg.timesteps,
                "n_input": self.cfg.n_input, "n_exc": self.cfg.n_exc,
                "mode": self.cfg.mode, "batch_size": self.cfg.batch_size}

    @property
    def attempted_per_round(self) -> int:
        return self.size["train"] + 2 * self.size["label"]

    def run_round(self, fault: str) -> dict:
        cfg = self.cfg
        s = self.size
        self.counts = []
        engine = evaluator.build_engine(cfg, self.initial.copy())
        t0 = clock()
        totals = evaluator.train_pass(engine, self.train, cfg)
        t1 = clock()
        labels = evaluator.assign_labels(engine, self.label, cfg,
                                         cfg.resolved_n_classes())
        metrics = evaluator.evaluate(engine, labels, self.eval, cfg)
        t2 = clock()
        checkpoint = topology.store_to_bytes(
            engine.store, seed=cfg.seed, config_hash=bytes.fromhex(self.config_hash))
        return {
            "ingest_s": t1 - t0,
            "eval_s": t2 - t1,
            "ingest_samples": s["train"],
            "eval_samples": 2 * s["label"],
            "attempted": self.attempted_per_round,
            "packets_per_sample": totals["packets_in"] / s["train"],
            "train_packets_in": totals["packets_in"],
            "train_packets_out": totals["packets_out"],
            "accuracy": metrics.accuracy,
            "digests": {
                "checkpoint": sha256(checkpoint),
                "labels": sha256(json.dumps(labels.to_dict(), sort_keys=True).encode()),
                "spike_counts": sha256(b"".join(self.counts)),
                "confusion": sha256(metrics.confusion.astype(np.int64).tobytes()),
            },
        }

    def oracle_check(self, fault: str) -> dict:
        """Float mode only: replay the first training samples (learning on)
        and one frozen sample through the engine and through the dense
        oracle; spikes and every state array must be bit-identical."""
        cfg = self.cfg
        if not self.has_oracle:
            return {"ran": False,
                    "note": "fixed mode has no independent oracle yet; gated on digests only"}
        engine = evaluator.build_engine(cfg, self.initial.copy())
        oracle = self.initial.copy()
        checks = [(k, True) for k in range(self.size["spot"])] + [(0, False)]
        mismatches = []
        for n, (k, learning) in enumerate(checks):
            stream = config.STREAM_TRAIN if learning else config.STREAM_EVAL
            seed = config.derive_seed(cfg.seed, stream, 0, k) if learning else \
                config.derive_seed(cfg.seed, stream, k)
            sample = self.train[k] if learning else self.eval[k]
            packets = encoders.poisson_encode(sample, cfg.encoder_params(seed))
            grid = np.zeros((cfg.timesteps, cfg.n_input), dtype=bool)
            for p in packets:
                grid[p.timestamp, p.neuron_id] = True
            engine.learning = learning
            topology.reset_for_sample(engine.store)
            result = engine.run(packets, stop_ts=cfg.timesteps)
            got = np.zeros((cfg.timesteps, cfg.n_exc), dtype=bool)
            for p in result.outputs:
                got[p.timestamp, p.neuron_id] = True
            topology.reset_for_sample(oracle)
            want = dense_simulate(oracle, cfg.lif_params(), cfg.trace_params(),
                                  cfg.stdp_params(), cfg.topology_params(), grid,
                                  learning=learning, v_floor=cfg.resolved_v_floor())
            if fault == "oracle" and n == len(checks) - 1:
                want[0, 0] = not want[0, 0]
            if not np.array_equal(got, want):
                mismatches.append(f"sample {k} learning={learning}: output spikes differ")
            if not engine.store.state_equal(oracle):
                mismatches.append(f"sample {k} learning={learning}: state differs")
        return {"ran": True, "samples": len(checks), "ok": not mismatches,
                "mismatches": mismatches}


class ReplayWorkload:
    """``aersnn encode`` of N digits into a binary trace, then ``aersnn
    eval`` replaying it through a seeded, untrained checkpoint as one
    frozen-weight stream. Both commands run through ``aersnn.cli.main``."""

    def __init__(self, name: str, scale: str, seed: int):
        self.name = name
        self.size = SIZES[name][scale]
        self.seed = seed
        self.cfg_text = (
            "data.dataset = mnist\n"
            f"data.mnist_dir = {DIGITS_DIR}\n"
            f"train.samples = {self.size['samples']}\n"
            f"encoder.timesteps = {self.size['timesteps']}\n"
            f"data.aer_trace = {ENCODE_OUT}/trace.aer\n"
            f"run.seed = {seed}\n"
        )
        self.cfg = config.parse_config(self.cfg_text)
        self.cfg.validate()
        self.config_hash = config.config_hash(self.cfg)
        self.has_oracle = False
        self.attempted_per_round = 2  # the encode and eval commands

    def generate(self) -> None:
        write_digits(DIGITS_DIR, self.size["samples"], 1, self.seed)
        with open(REPLAY_CONFIG, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.cfg_text)
        cfg = self.cfg
        store = topology.build_network(
            cfg.topology_params(), cfg.stdp_params(),
            seed=config.derive_seed(cfg.seed, config.STREAM_INIT),
            numeric=cfg.numeric_spec(), v_rest=cfg.v_rest)
        topology.save_store(REPLAY_CHECKPOINT, store, seed=cfg.seed,
                            config_hash=bytes.fromhex(self.config_hash))

    def setup(self) -> None:
        """What the two commands load before their first packet: the
        config, the dataset, the checkpoint and the engine."""
        cfg = config.parse_config_file(REPLAY_CONFIG)
        encoders.load_mnist(cfg.mnist_dir, "train")
        encoders.load_mnist(cfg.mnist_dir, "test")
        store, _, _ = topology.load_store(REPLAY_CHECKPOINT)
        evaluator.build_engine(cfg, store)

    def install_recorders(self) -> None:
        pass

    def input_stats(self) -> dict:
        return {"samples": self.size["samples"], "timesteps": self.cfg.timesteps,
                "n_input": self.cfg.n_input, "n_exc": self.cfg.n_exc,
                "mode": self.cfg.mode}

    def oracle_check(self, fault: str) -> dict:
        return {"ran": False, "note": "no classifier and no oracle for replay; "
                "gated on packet-count agreement and digests"}

    def _command(self, argv: list[str]) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        return rc, err.getvalue().strip()

    def run_round(self, fault: str) -> dict:
        for d in (ENCODE_OUT, REPLAY_OUT):
            shutil.rmtree(d, ignore_errors=True)
        t0 = clock()
        rc_encode, err_encode = self._command(
            ["encode", "--config", REPLAY_CONFIG, "--out", ENCODE_OUT])
        t1 = clock()
        rc_replay, err_replay = self._command(
            ["eval", "--config", REPLAY_CONFIG, "--checkpoint", REPLAY_CHECKPOINT,
             "--out", REPLAY_OUT, "--no-learning"])
        t2 = clock()
        failed = (rc_encode != 0) + (rc_replay != 0)
        if failed:
            return {"attempted": self.attempted_per_round, "failed": failed,
                    "error": f"encode rc {rc_encode} {err_encode!r}; "
                             f"eval rc {rc_replay} {err_replay!r}"}
        trace = os.path.join(ENCODE_OUT, "trace.aer")
        with open(os.path.join(ENCODE_OUT, "trace.meta.json"), encoding="utf-8") as fh:
            meta = json.loads(fh.readline())
        with open(os.path.join(REPLAY_OUT, "metrics.jsonl"), encoding="utf-8") as fh:
            replay_metrics = json.loads(fh.readline())
        size = os.path.getsize(trace)
        counts = {"trace_bytes_div_6": size / PACKET_BYTES,
                  "meta_packets": meta["packets"],
                  "replay_packets_in": replay_metrics["packets_in"]}
        if fault == "packets":
            counts["meta_packets"] += 1
        artifact_bytes = sum(
            os.path.getsize(os.path.join(d, f))
            for d in (ENCODE_OUT, REPLAY_OUT) for f in os.listdir(d))
        packets = meta["packets"]
        return {
            "ingest_s": t1 - t0,
            "eval_s": t2 - t1,
            "ingest_samples": meta["samples"],
            "eval_samples": meta["samples"],
            "attempted": self.attempted_per_round,
            "packets": packets,
            "packets_per_sample": packets / meta["samples"],
            "packet_counts": counts,
            "packet_counts_agree": size % PACKET_BYTES == 0
            and len(set(counts.values())) == 1,
            "replay_packets_out": replay_metrics["packets_out"],
            "artifact_bytes": artifact_bytes,
            "digests": {
                "trace": file_sha256(trace),
                "replay_output": file_sha256(os.path.join(REPLAY_OUT, "replay_output.aer")),
            },
        }


WORKLOADS = {
    "digits_float": EngineWorkload,
    "ecg_fixed": EngineWorkload,
    "trace_replay": ReplayWorkload,
}


def make(name: str, scale: str, seed: int):
    return WORKLOADS[name](name, scale, seed)
