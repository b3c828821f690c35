import gzip
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import aersnn
from aersnn.cli import _write_lines, main
from aersnn.event_engine import packet_array, read_aer_file, write_aer_file
from aersnn.topology import load_store

from conftest import four_class_beats, make_idx_digit_dir, write_beat_csv
from test_topology import with_payload_value

TINY_CFG = """
topology.n_exc = 12
topology.w_inh = 0.6
lif.v_thresh = 4.0
encoder.timesteps = 12
encoder.max_rate = 0.4
train.samples = 8
train.label_fraction = 0.5
eval.samples = 6
run.seed = 5
"""


@pytest.fixture
def workspace(tmp_path):
    mnist_dir = make_idx_digit_dir(tmp_path / "mnist", n_train=12, n_test=6, seed=1)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(TINY_CFG + f"data.mnist_dir = {mnist_dir}\n")
    return tmp_path, cfg_path


def run_cli(*argv):
    return main([str(a) for a in argv])


def read_jsonl(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestTrain:
    def test_writes_all_artifacts(self, workspace):
        tmp, cfg = workspace
        out = tmp / "out"
        assert run_cli("train", "--config", cfg, "--out", out) == 0
        assert (out / "checkpoint.aern").exists()
        labels = json.loads((out / "labels.json").read_text())
        assert len(labels["label"]) == 12
        record = read_jsonl(out / "metrics.jsonl")[0]
        assert record["command"] == "train"
        assert 0.0 <= record["accuracy"] <= 1.0
        assert record["train_stats"]["samples"] == 8
        assert len(record["config_hash"]) == 64

    def test_byte_identical_reruns(self, workspace):
        tmp, cfg = workspace
        for out in ("a", "b"):
            assert run_cli("train", "--config", cfg, "--out", tmp / out) == 0
        for name in ("checkpoint.aern", "labels.json", "metrics.jsonl", "metrics.csv"):
            assert (tmp / "a" / name).read_bytes() == (tmp / "b" / name).read_bytes()

    def test_seed_override_changes_artifacts(self, workspace):
        tmp, cfg = workspace
        assert run_cli("train", "--config", cfg, "--out", tmp / "a") == 0
        assert run_cli("train", "--config", cfg, "--out", tmp / "c",
                       "--seed", "77") == 0
        assert ((tmp / "a" / "checkpoint.aern").read_bytes()
                != (tmp / "c" / "checkpoint.aern").read_bytes())

    def test_zero_samples_keeps_initial_store(self, workspace, tmp_path):
        tmp, cfg = workspace
        cfg2 = tmp / "zero.cfg"
        cfg2.write_text(cfg.read_text().replace("train.samples = 8",
                                                "train.samples = 0"))
        assert run_cli("train", "--config", cfg2, "--out", tmp / "z") == 0
        store, seed, _ = load_store(tmp / "z" / "checkpoint.aern")
        from aersnn.config import STREAM_INIT, derive_seed, parse_config_file
        from aersnn.topology import build_network

        parsed = parse_config_file(cfg2)
        fresh = build_network(parsed.topology_params(), parsed.stdp_params(),
                              seed=derive_seed(parsed.seed, STREAM_INIT),
                              numeric=parsed.numeric_spec(), v_rest=parsed.v_rest)
        assert store.state_equal(fresh)

    def test_resume_from_checkpoint(self, workspace):
        tmp, cfg = workspace
        assert run_cli("train", "--config", cfg, "--out", tmp / "a") == 0
        assert run_cli("train", "--config", cfg, "--out", tmp / "resumed",
                       "--checkpoint", tmp / "a" / "checkpoint.aern") == 0
        assert (tmp / "resumed" / "checkpoint.aern").exists()

    def test_no_learning_freezes_weights(self, workspace):
        tmp, cfg = workspace
        assert run_cli("train", "--config", cfg, "--out", tmp / "frozen",
                       "--no-learning") == 0
        store, _, _ = load_store(tmp / "frozen" / "checkpoint.aern")
        from aersnn.config import STREAM_INIT, derive_seed, parse_config_file
        from aersnn.topology import build_network

        parsed = parse_config_file(cfg)
        fresh = build_network(parsed.topology_params(), parsed.stdp_params(),
                              seed=derive_seed(parsed.seed, STREAM_INIT),
                              numeric=parsed.numeric_spec(), v_rest=parsed.v_rest)
        assert store.w.tobytes() == fresh.w.tobytes()

    @pytest.mark.parametrize("batch_size", [1, 4])
    def test_no_learning_keeps_weights_outside_the_clip_range(self, workspace, batch_size):
        tmp, cfg = workspace
        from aersnn.config import STREAM_INIT, derive_seed, parse_config_file
        from aersnn.topology import build_network, save_store

        parsed = parse_config_file(cfg)
        loaded = build_network(parsed.topology_params(), parsed.stdp_params(),
                               seed=derive_seed(parsed.seed, STREAM_INIT),
                               numeric=parsed.numeric_spec(), v_rest=parsed.v_rest)
        loaded.w[:] = 0.9
        save_store(tmp / "high.aern", loaded)
        narrow = tmp / "narrow.cfg"
        narrow.write_text(cfg.read_text()
                          + f"stdp.w_max = 0.5\nengine.batch_size = {batch_size}\n")
        assert run_cli("train", "--config", narrow, "--out", tmp / "frozen",
                       "--checkpoint", tmp / "high.aern", "--no-learning") == 0
        store, _, _ = load_store(tmp / "frozen" / "checkpoint.aern")
        assert store.w.tobytes() == loaded.w.tobytes()

    def test_numeric_mode_flag_trains_a_fixed_checkpoint(self, workspace):
        # the flag overrides the float config: the checkpoint is fixed-mode
        # and carries the hash of the config as run
        tmp, cfg = workspace
        out = tmp / "out"
        assert run_cli("train", "--config", cfg, "--out", out, "--numeric-mode", "fixed") == 0
        from aersnn.config import config_hash, parse_config_file

        fixed_hash = config_hash(parse_config_file(cfg).with_value("mode", "fixed"))
        data = (out / "checkpoint.aern").read_bytes()
        # the mode byte follows magic, version, sizes and the two formats
        assert data[struct.calcsize("<4sHIIBBBB")] == 1
        store, _, digest = load_store(out / "checkpoint.aern")
        assert store.numeric.is_fixed
        assert digest == bytes.fromhex(fixed_hash)
        assert read_jsonl(out / "metrics.jsonl")[0]["config_hash"] == fixed_hash

    def test_missing_dataset_is_exit_2(self, workspace):
        tmp, cfg = workspace
        bad = tmp / "bad.cfg"
        bad.write_text(TINY_CFG + f"data.mnist_dir = {tmp / 'missing'}\n")
        assert run_cli("train", "--config", bad, "--out", tmp / "x") == 2

    def test_invalid_config_is_exit_1(self, workspace):
        tmp, cfg = workspace
        bad = tmp / "bad.cfg"
        bad.write_text("lif.v_thresh = -5\n")
        assert run_cli("train", "--config", bad, "--out", tmp / "x") == 1

    def test_class_sorted_beats_label_every_class(self, workspace):
        # the beat file holds its classes in blocks; the split shuffles
        # both halves, so the tail of the training half that labels is not
        # one class
        tmp, cfg = workspace
        ecg = _beats_config(tmp, cfg, four_class_beats(n_per_class=10, seed=3),
                            "train.samples = -1\ntrain.label_fraction = 0.2\n")
        assert run_cli("train", "--config", ecg, "--out", tmp / "out") == 0
        response = np.array(json.loads((tmp / "out" / "labels.json").read_text())["response"])
        assert response.any(axis=0).sum() > 1


class TestEval:
    def test_eval_reproduces_train_end_accuracy(self, workspace):
        tmp, cfg = workspace
        out = tmp / "out"
        assert run_cli("train", "--config", cfg, "--out", out) == 0
        assert run_cli("eval", "--config", cfg, "--out", tmp / "ev",
                       "--checkpoint", out / "checkpoint.aern") == 0
        train_acc = read_jsonl(out / "metrics.jsonl")[0]["accuracy"]
        eval_acc = read_jsonl(tmp / "ev" / "metrics.jsonl")[0]["accuracy"]
        assert train_acc == eval_acc

    def test_eval_twice_identical(self, workspace):
        tmp, cfg = workspace
        out = tmp / "out"
        assert run_cli("train", "--config", cfg, "--out", out) == 0
        for name in ("e1", "e2"):
            assert run_cli("eval", "--config", cfg, "--out", tmp / name,
                           "--checkpoint", out / "checkpoint.aern") == 0
        assert ((tmp / "e1" / "metrics.jsonl").read_bytes()
                == (tmp / "e2" / "metrics.jsonl").read_bytes())

    def test_topology_mismatch_is_exit_1_with_no_output(self, workspace):
        tmp, cfg = workspace
        out = tmp / "out"
        assert run_cli("train", "--config", cfg, "--out", out) == 0
        bad = tmp / "bad.cfg"
        bad.write_text(cfg.read_text().replace("topology.n_exc = 12",
                                               "topology.n_exc = 9"))
        evdir = tmp / "ev_bad"
        assert run_cli("eval", "--config", bad, "--out", evdir,
                       "--checkpoint", out / "checkpoint.aern") == 1
        assert not evdir.exists()

    def test_missing_checkpoint_flag_is_exit_1(self, workspace):
        tmp, cfg = workspace
        assert run_cli("eval", "--config", cfg, "--out", tmp / "x") == 1

    def test_reads_only_the_test_split(self, workspace):
        # eval takes its samples from the test split alone: without the
        # train files it writes the metrics it writes with them
        tmp, cfg = workspace
        out = tmp / "out"
        assert run_cli("train", "--config", cfg, "--out", out) == 0
        assert run_cli("eval", "--config", cfg, "--out", tmp / "with",
                       "--checkpoint", out / "checkpoint.aern") == 0
        for name in ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"):
            (tmp / "mnist" / name).unlink()
        assert run_cli("eval", "--config", cfg, "--out", tmp / "without",
                       "--checkpoint", out / "checkpoint.aern") == 0
        metrics = (tmp / "with" / "metrics.jsonl").read_bytes()
        assert metrics and (tmp / "without" / "metrics.jsonl").read_bytes() == metrics


@pytest.mark.parametrize("flag", ["--checkpoint", "--no-learning"])
@pytest.mark.parametrize("command", [["sweep", "v_thresh", "4.0"], ["encode"]],
                         ids=["sweep", "encode"])
def test_sweep_and_encode_refuse_the_flags_they_would_ignore(workspace, capsys,
                                                              command, flag):
    # neither starts from a checkpoint nor can freeze learning: argparse
    # refuses the flags rather than the run dropping them
    tmp, cfg = workspace
    argv = [*command, "--config", cfg, "--out", tmp / "x", flag]
    if flag == "--checkpoint":
        argv.append(tmp / "checkpoint.aern")
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not (tmp / "x").exists()


class TestSweep:
    def test_rows_match_values(self, workspace):
        tmp, cfg = workspace
        out = tmp / "sw"
        assert run_cli("sweep", "timesteps", "8,12", "--config", cfg,
                       "--out", out) == 0
        rows = (out / "sweep.csv").read_text().splitlines()
        assert rows[0] == "value,accuracy,runtime_s"
        assert len(rows) == 3
        records = read_jsonl(out / "metrics.jsonl")
        assert [r["value"] for r in records] == [8.0, 12.0]

    def test_metrics_files_deterministic(self, workspace):
        tmp, cfg = workspace
        for name in ("s1", "s2"):
            assert run_cli("sweep", "v_thresh", "4.0,6.0", "--config", cfg,
                           "--out", tmp / name) == 0
        assert ((tmp / "s1" / "metrics.jsonl").read_bytes()
                == (tmp / "s2" / "metrics.jsonl").read_bytes())
        assert ((tmp / "s1" / "metrics.csv").read_bytes()
                == (tmp / "s2" / "metrics.csv").read_bytes())
        # sweep.csv equals too once the wall-clock column is dropped
        strip = lambda p: [",".join(r.split(",")[:2])
                           for r in (p.read_text().splitlines())]
        assert strip(tmp / "s1" / "sweep.csv") == strip(tmp / "s2" / "sweep.csv")


class TestEncode:
    def test_trace_file_shape_and_determinism(self, workspace):
        tmp, cfg = workspace
        out = tmp / "enc"
        assert run_cli("encode", "--config", cfg, "--out", out) == 0
        meta = read_jsonl(out / "trace.meta.json")[0]
        trace = out / "trace.aer"
        assert trace.stat().st_size == 6 * meta["packets"]
        assert run_cli("encode", "--config", cfg, "--out", tmp / "enc2") == 0
        assert trace.read_bytes() == (tmp / "enc2" / "trace.aer").read_bytes()

    def test_zero_feature_dataset_gives_empty_body(self, workspace, tmp_path):
        tmp, cfg = workspace
        from conftest import write_idx_images, write_idx_labels

        dark = tmp / "dark"
        dark.mkdir()
        write_idx_images(dark / "train-images-idx3-ubyte",
                         np.zeros((4, 28, 28), dtype=np.uint8))
        write_idx_labels(dark / "train-labels-idx1-ubyte", np.zeros(4))
        write_idx_images(dark / "t10k-images-idx3-ubyte",
                         np.zeros((2, 28, 28), dtype=np.uint8))
        write_idx_labels(dark / "t10k-labels-idx1-ubyte", np.zeros(2))
        cfg2 = tmp / "dark.cfg"
        cfg2.write_text(TINY_CFG + f"data.mnist_dir = {dark}\n")
        out = tmp / "dark_out"
        assert run_cli("encode", "--config", cfg2, "--out", out) == 0
        assert (out / "trace.aer").stat().st_size == 0

    def test_reads_only_the_training_split(self, workspace):
        # encode takes its samples from the training split alone: without the
        # t10k files it writes the trace it writes with them
        tmp, cfg = workspace
        assert run_cli("encode", "--config", cfg, "--out", tmp / "with") == 0
        for name in ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"):
            (tmp / "mnist" / name).unlink()
        assert run_cli("encode", "--config", cfg, "--out", tmp / "without") == 0
        trace = (tmp / "with" / "trace.aer").read_bytes()
        assert trace and (tmp / "without" / "trace.aer").read_bytes() == trace

    def test_encode_then_replay_matches_in_process_run(self, workspace):
        tmp, cfg = workspace
        out = tmp / "out"
        enc = tmp / "enc"
        assert run_cli("train", "--config", cfg, "--out", out) == 0
        assert run_cli("encode", "--config", cfg, "--out", enc) == 0
        replay_cfg = tmp / "replay.cfg"
        replay_cfg.write_text(cfg.read_text()
                              + f"data.aer_trace = {enc / 'trace.aer'}\n")
        rp = tmp / "replay"
        assert run_cli("eval", "--config", replay_cfg, "--out", rp,
                       "--checkpoint", out / "checkpoint.aern",
                       "--no-learning") == 0

        # drive the same stream through a fresh engine in-process
        from aersnn.config import parse_config_file
        from aersnn.evaluator import build_engine

        parsed = parse_config_file(replay_cfg)
        store, _, _ = load_store(out / "checkpoint.aern")
        engine = build_engine(parsed, store)
        engine.learning = False
        packets = read_aer_file(enc / "trace.aer")
        result = engine.run(packets, stop_ts=int(packets.timestamp.max()) + 1)
        assert np.array_equal(read_aer_file(rp / "replay_output.aer"), result.outputs)

    def test_replay_logs_three_activation_lines_per_step(self, workspace):
        tmp, cfg = workspace
        out, enc = tmp / "out", tmp / "enc"
        assert run_cli("train", "--config", cfg, "--out", out) == 0
        assert run_cli("encode", "--config", cfg, "--out", enc) == 0
        replay_cfg = tmp / "replay.cfg"
        replay_cfg.write_text(cfg.read_text() + "engine.log_activations = true\n"
                              f"data.aer_trace = {enc / 'trace.aer'}\n")
        rp = tmp / "replay"
        assert run_cli("eval", "--config", replay_cfg, "--out", rp,
                       "--checkpoint", out / "checkpoint.aern", "--no-learning") == 0
        steps = int(read_aer_file(enc / "trace.aer").timestamp.max()) + 1
        lines = (rp / "activations.csv").read_text().splitlines()
        assert len(lines) == 3 * steps
        assert [line.split(",")[:2] for line in lines[-3:]] == [
            [str(steps - 1), phase] for phase in ("integrate", "leak", "fire")]

    def test_learning_replay_learns_at_any_batch_size(self, workspace):
        # a replay is one stream: it learns into the live weights, so
        # batch_size, which batches the samples of train, changes nothing.
        # At the tiny config's rate every neuron fires every step, whatever
        # the weights; at a lower rate learning changes the spikes.
        tmp, cfg = workspace
        cfg.write_text(cfg.read_text().replace("encoder.max_rate = 0.4",
                                               "encoder.max_rate = 0.1"))
        out, enc = tmp / "out", tmp / "enc"
        assert run_cli("train", "--config", cfg, "--out", out) == 0
        assert run_cli("encode", "--config", cfg, "--out", enc) == 0
        replays = {}
        for batch_size, learning in ((1, True), (4, True), (4, False)):
            replay_cfg = tmp / f"replay-{batch_size}.cfg"
            replay_cfg.write_text(cfg.read_text() + f"engine.batch_size = {batch_size}\n"
                                  f"data.aer_trace = {enc / 'trace.aer'}\n")
            rp = tmp / f"replay-{batch_size}-{learning}"
            flags = [] if learning else ["--no-learning"]
            assert run_cli("eval", "--config", replay_cfg, "--out", rp,
                           "--checkpoint", out / "checkpoint.aern", *flags) == 0
            replays[batch_size, learning] = (rp / "replay_output.aer").read_bytes()
        assert replays[4, True] != replays[4, False]
        assert replays[4, True] == replays[1, True]


class TestReplayProtocol:
    def test_decreasing_timestamps_exit_3(self, workspace):
        tmp, cfg = workspace
        out = tmp / "out"
        assert run_cli("train", "--config", cfg, "--out", out) == 0
        bad_trace = tmp / "bad.aer"
        write_aer_file(bad_trace, packet_array([0, 0, 0], [5, 4, 9]))
        replay_cfg = tmp / "replay.cfg"
        replay_cfg.write_text(cfg.read_text() + f"data.aer_trace = {bad_trace}\n")
        assert run_cli("eval", "--config", replay_cfg, "--out", tmp / "rp",
                       "--checkpoint", out / "checkpoint.aern") == 3

    def test_fifo_overflow_exit_3(self, workspace, capsys):
        # the tiny network fires several neurons per step; an output FIFO
        # of one packet cannot hold them
        tmp, cfg = workspace
        small = tmp / "small_fifo.cfg"
        small.write_text(cfg.read_text() + "engine.fifo_capacity = 1\n")
        capsys.readouterr()
        assert run_cli("train", "--config", small, "--out", tmp / "x") == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("protocol error:")

    def test_fifo_overflow_in_lane_training_exit_3(self, workspace, capsys):
        # fixed-mode batches of 4 train in lanes; the first overflowing
        # sample ends the run before any artifact is written
        tmp, cfg = workspace
        small = tmp / "small_fifo.cfg"
        small.write_text(cfg.read_text() + "numeric.mode = fixed\nengine.batch_size = 4\n"
                         "engine.fifo_capacity = 1\n")
        capsys.readouterr()
        assert run_cli("train", "--config", small, "--out", tmp / "x") == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("protocol error:")
        assert not (tmp / "x").exists()

    @pytest.mark.parametrize("cut", [1, 5])
    def test_malformed_trace_exit_2(self, workspace, capsys, cut):
        # a trace cut short of whole 6-byte packets is an IO error, not a crash
        tmp, cfg = workspace
        out = tmp / "out"
        assert run_cli("train", "--config", cfg, "--out", out) == 0
        trace = tmp / "cut.aer"
        write_aer_file(trace, packet_array([0, 1, 2], [0, 1, 2]))
        trace.write_bytes(trace.read_bytes()[:-cut])
        replay_cfg = tmp / "replay.cfg"
        replay_cfg.write_text(cfg.read_text() + f"data.aer_trace = {trace}\n")
        capsys.readouterr()
        assert run_cli("eval", "--config", replay_cfg, "--out", tmp / "rp",
                       "--checkpoint", out / "checkpoint.aern") == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("io error:")
        assert not (tmp / "rp").exists()


def _eval_with_labels(tmp, cfg, edit):
    out = tmp / "out"
    assert run_cli("train", "--config", cfg, "--out", out) == 0
    labels = out / "labels.json"
    labels.write_text(edit(labels.read_text()))
    return ["eval", "--config", cfg, "--checkpoint", out / "checkpoint.aern",
            "--out", tmp / "ev"]


def _without_response(text):
    doc = json.loads(text)
    del doc["response"]
    return json.dumps(doc)


def _edit_labels(field, edit):
    def rewrite(text):
        doc = json.loads(text)
        doc[field] = edit(doc[field])
        return json.dumps(doc)
    return rewrite


def _train_with_three_classes(tmp, cfg):
    three = tmp / "three.cfg"
    three.write_text(cfg.read_text() + "data.n_classes = 3\n")
    return ["train", "--config", three, "--out", tmp / "x"]


def _eval_with_other_rest(tmp, cfg):
    out = tmp / "out"
    assert run_cli("train", "--config", cfg, "--out", out) == 0
    other = tmp / "rest.cfg"
    other.write_text(cfg.read_text() + "lif.v_rest = -0.5\n")
    return ["eval", "--config", other, "--checkpoint", out / "checkpoint.aern",
            "--out", tmp / "ev"]


def _train_with_config_bytes(tmp, cfg):
    bad = tmp / "bad.cfg"
    bad.write_bytes(cfg.read_bytes() + b"# caf\xe9\n")
    return ["train", "--config", bad, "--out", tmp / "x"]


def _train_on_beats_with_byte(tmp, cfg):
    csv = tmp / "beats.csv"
    write_beat_csv(csv, four_class_beats())
    csv.write_bytes(csv.read_bytes() + b"\xff\n")
    ecg = tmp / "ecg.cfg"
    ecg.write_text(cfg.read_text() + f"data.dataset = ecg\ndata.ecg_csv = {csv}\n")
    return ["train", "--config", ecg, "--out", tmp / "x"]


def _beats_config(tmp, cfg, beats, extra):
    csv = tmp / "beats.csv"
    write_beat_csv(csv, beats)
    ecg = tmp / "ecg.cfg"
    ecg.write_text(cfg.read_text() + f"data.dataset = ecg\ndata.ecg_csv = {csv}\n"
                   f"topology.n_input = 251\n{extra}")
    return ecg


def _train_without_images(tmp, cfg):
    from conftest import write_idx_images, write_idx_labels

    write_idx_images(tmp / "mnist" / "train-images-idx3-ubyte",
                     np.zeros((0, 28, 28), dtype=np.uint8))
    write_idx_labels(tmp / "mnist" / "train-labels-idx1-ubyte", np.zeros(0))
    return ["train", "--config", cfg, "--out", tmp / "x"]


def _train_on_gzip_images(damage):
    def build(tmp, cfg):
        images = tmp / "mnist" / "train-images-idx3-ubyte"
        packed = bytearray(gzip.compress(images.read_bytes(), mtime=0))
        images.unlink()
        (tmp / "mnist" / (images.name + ".gz")).write_bytes(damage(packed))
        return ["train", "--config", cfg, "--out", tmp / "x"]
    return build


def _corrupt_deflate(packed):
    packed[10] = 0xFF  # after the 10-byte gzip header: a block of the reserved type
    return bytes(packed)


def _with_checkpoint_rest(command, value):
    """argv of ``command`` from a trained fixed-mode checkpoint whose header
    ``v_rest`` is ``value``: no value of the voltage format."""
    def build(tmp, cfg):
        fixed = tmp / "fixed.cfg"
        fixed.write_text(cfg.read_text() + "numeric.mode = fixed\n")
        assert run_cli("train", "--config", fixed, "--out", tmp / "out") == 0
        path = tmp / "out" / "checkpoint.aern"
        blob = bytearray(path.read_bytes())
        struct.pack_into("<d", blob, 19, value)  # after the mode byte
        path.write_bytes(bytes(blob))
        return [command, "--config", fixed, "--checkpoint", path, "--out", tmp / "x"]
    return build


# name: (expected exit code, stderr prefix, argv builder)
BOUNDARY_CASES = {
    "seed-negative": (1, "error:", lambda tmp, cfg: [
        "train", "--config", cfg, "--seed", -1, "--out", tmp / "x"]),
    "seed-past-u64": (1, "error:", lambda tmp, cfg: [
        "train", "--config", cfg, "--seed", 2**64, "--out", tmp / "x"]),
    "labels-not-json": (2, "io error:", lambda tmp, cfg: _eval_with_labels(
        tmp, cfg, lambda text: text[:-5])),
    "labels-without-response": (2, "io error:", lambda tmp, cfg: _eval_with_labels(
        tmp, cfg, _without_response)),
    "labels-response-two-columns": (2, "io error:", lambda tmp, cfg: _eval_with_labels(
        tmp, cfg, _edit_labels("response", lambda rows: [row[:2] for row in rows]))),
    "labels-response-one-dimensional": (2, "io error:", lambda tmp, cfg: _eval_with_labels(
        tmp, cfg, _edit_labels("response", lambda rows: [row[0] for row in rows]))),
    "labels-minus-one": (2, "io error:", lambda tmp, cfg: _eval_with_labels(
        tmp, cfg, _edit_labels("label", lambda label: [-1] * len(label)))),
    "n-classes-below-labels": (1, "error:", _train_with_three_classes),
    "checkpoint-v-rest-mismatch": (1, "error:", _eval_with_other_rest),
    "train-checkpoint-v-rest-nan": (1, "error:", _with_checkpoint_rest("train", np.nan)),
    "train-checkpoint-v-rest-inf": (1, "error:", _with_checkpoint_rest("train", np.inf)),
    "eval-checkpoint-v-rest-nan": (1, "error:", _with_checkpoint_rest("eval", np.nan)),
    "eval-checkpoint-v-rest-minus-inf": (1, "error:", _with_checkpoint_rest("eval", -np.inf)),
    "config-not-utf8": (1, "error:", _train_with_config_bytes),
    "beats-csv-not-utf8": (2, "io error:", _train_on_beats_with_byte),
    "idx-gzip-truncated": (2, "io error:", _train_on_gzip_images(
        lambda packed: bytes(packed[:len(packed) // 2]))),
    "idx-gzip-corrupt": (2, "io error:", _train_on_gzip_images(_corrupt_deflate)),
    "idx-no-training-images": (2, "io error:", _train_without_images),
}


@pytest.mark.parametrize("name", sorted(BOUNDARY_CASES))
def test_bad_input_exits_with_one_line(workspace, capsys, name):
    code, prefix, build_argv = BOUNDARY_CASES[name]
    argv = build_argv(*workspace)
    capsys.readouterr()
    assert run_cli(*argv) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(prefix)


def test_interrupted_artifact_write_leaves_old_file(tmp_path):
    target = tmp_path / "metrics.jsonl"

    def lines():
        yield "first\n"
        raise RuntimeError("interrupted")

    with pytest.raises(RuntimeError):
        _write_lines(target, lines())
    assert list(tmp_path.iterdir()) == []
    target.write_text("old\n")
    with pytest.raises(RuntimeError):
        _write_lines(target, lines())
    assert target.read_text() == "old\n"
    assert list(tmp_path.iterdir()) == [target]


def test_the_program_does_not_load_its_oracle():
    # the dense float oracle is for tests and the benchmark; a fresh
    # interpreter shows what importing the command line loads
    src = Path(aersnn.__file__).parents[1]
    code = "import sys, aersnn.cli; print('aersnn.reference_sim' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout == "False\n"


def _train_with_config(tmp, cfg, extra):
    other = tmp / "other.cfg"
    other.write_text(cfg.read_text() + extra)
    return ["train", "--config", other, "--out", tmp / "x"]


def _eval_with_config(tmp, cfg, extra):
    assert run_cli("train", "--config", cfg, "--out", tmp / "out") == 0
    other = tmp / "other.cfg"
    other.write_text(cfg.read_text() + extra)
    return ["eval", "--config", other, "--checkpoint", tmp / "out" / "checkpoint.aern",
            "--out", tmp / "x"]


def _sweep(param, values, extra=""):
    def build(tmp, cfg):
        other = tmp / "other.cfg"
        other.write_text(cfg.read_text() + extra)
        return ["sweep", param, values, "--config", other, "--out", tmp / "x"]
    return build


def _with_digits(side, command="train", test_side=None):
    """argv of ``command`` on digits of ``side`` x ``side`` pixels (test
    digits of ``test_side``); eval runs on a checkpoint trained on the
    workspace's 28 x 28 digits, sweep over one value."""
    def build(tmp, cfg):
        argv = [command, "--config", cfg, "--out", tmp / "x"]
        if command == "sweep":
            argv[1:1] = ["v_thresh", "4.0"]
        if command == "eval":
            assert run_cli("train", "--config", cfg, "--out", tmp / "out") == 0
            argv += ["--checkpoint", tmp / "out" / "checkpoint.aern"]
        make_idx_digit_dir(tmp / "mnist", side=side)
        if test_side is not None:
            split = make_idx_digit_dir(tmp / "test-mnist", side=test_side)
            for name in ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"):
                (split / name).replace(tmp / "mnist" / name)
        return argv
    return build


def _with_checkpoint_value(command, mode, array, value):
    """argv of ``command`` from a trained ``mode`` checkpoint whose first
    value of payload array ``array`` (0: weights, 1: voltages) is
    ``value``."""
    def build(tmp, cfg):
        other = tmp / "other.cfg"
        other.write_text(cfg.read_text() + f"numeric.mode = {mode}\n")
        assert run_cli("train", "--config", other, "--out", tmp / "out") == 0
        path = tmp / "out" / "checkpoint.aern"
        path.write_bytes(with_payload_value(path.read_bytes(), load_store(path)[0],
                                            array, 0, value))
        return [command, "--config", other, "--checkpoint", path, "--out", tmp / "x"]
    return build


def _with_wide_digits(command):
    """argv of ``command`` on digits of 1 x 70000 pixels, with a config whose
    ``topology.n_input`` fits them: wider than 16-bit input ids reach."""
    def build(tmp, cfg):
        from conftest import write_idx_images, write_idx_labels

        rng = np.random.default_rng(3)
        for split, n in (("train", 12), ("t10k", 6)):
            write_idx_images(tmp / "mnist" / f"{split}-images-idx3-ubyte",
                             rng.integers(0, 256, (n, 1, 70000), dtype=np.uint8))
            write_idx_labels(tmp / "mnist" / f"{split}-labels-idx1-ubyte", np.arange(n) % 10)
        wide = tmp / "wide.cfg"
        wide.write_text(cfg.read_text() + "topology.n_input = 70000\ntopology.n_exc = 2\n"
                        "encoder.timesteps = 5\n")
        return [command, "--config", wide, "--out", tmp / "x"]
    return build


# name: argv builder of a command that must exit 1 before it writes to x
REJECTED_UP_FRONT = {
    # the config keeps the default topology.n_input = 784
    "train-digits-10x10": _with_digits(10),
    "train-digits-30x30": _with_digits(30),
    "eval-digits-30x30": _with_digits(30, "eval"),
    "sweep-digits-10x10": _with_digits(10, "sweep"),
    "eval-checkpoint-nan-weight": _with_checkpoint_value("eval", "float", 0, np.nan),
    "train-checkpoint-inf-weight": _with_checkpoint_value("train", "float", 0, np.inf),
    "eval-checkpoint-inf-voltage": _with_checkpoint_value("eval", "float", 1, -np.inf),
    "eval-fixed-checkpoint-weight-past-q2.14": _with_checkpoint_value("eval", "fixed", 0, 2**30),
    "train-fixed-checkpoint-weight-past-q2.14": _with_checkpoint_value(
        "train", "fixed", 0, 2**30),
    "eval-fixed-checkpoint-voltage-below-q8.8": _with_checkpoint_value(
        "eval", "fixed", 1, -2**31 + 1),
    "train-fixed-checkpoint-voltage-below-q8.8": _with_checkpoint_value(
        "train", "fixed", 1, -2**31 + 1),
    "train-eval-samples-zero": lambda tmp, cfg: _train_with_config(
        tmp, cfg, "eval.samples = 0\n"),
    "eval-eval-samples-zero": lambda tmp, cfg: _eval_with_config(
        tmp, cfg, "eval.samples = 0\n"),
    "sweep-eval-samples-zero": _sweep("v_thresh", "4.0", "eval.samples = 0\n"),
    "sweep-n-exc-zero": _sweep("n_exc", "4,0"),
    "sweep-timesteps-negative": _sweep("timesteps", "12,-3"),
    "sweep-batch-size-zero": _sweep("batch_size", "2,0"),
    "sweep-n-exc-fraction": _sweep("n_exc", "2.5,3"),
    "sweep-n-exc-inf": _sweep("n_exc", "inf"),
    "sweep-n-exc-nan": _sweep("n_exc", "nan"),
    "sweep-batch-size-fraction": _sweep("batch_size", "2,1.5"),
    "sweep-timesteps-minus-inf": _sweep("timesteps", "12,-inf"),
    "sweep-v-thresh-nan": _sweep("v_thresh", "4.0,nan"),
    "sweep-v-thresh-inf": _sweep("v_thresh", "inf"),
    "train-v-thresh-nan": lambda tmp, cfg: _train_with_config(tmp, cfg, "lif.v_thresh = nan\n"),
    "train-v-floor-minus-inf": lambda tmp, cfg: _train_with_config(
        tmp, cfg, "engine.v_floor = -inf\n"),
    # a floor above rest, here above the threshold too, fires every neuron
    # at every step of an empty stream
    "train-v-floor-above-rest": lambda tmp, cfg: _train_with_config(
        tmp, cfg, "engine.v_floor = 20\n"),
    "train-fifo-capacity-zero": lambda tmp, cfg: _train_with_config(
        tmp, cfg, "engine.fifo_capacity = 0\n"),
    "train-n-classes-negative": lambda tmp, cfg: _train_with_config(
        tmp, cfg, "data.n_classes = -1\n"),
    "train-label-fraction-one": lambda tmp, cfg: _train_with_config(
        tmp, cfg, "train.label_fraction = 1\n"),
    "train-test-fraction-zero": lambda tmp, cfg: _train_with_config(
        tmp, cfg, "data.test_fraction = 0\n"),
    "train-samples-minus-two": lambda tmp, cfg: _train_with_config(
        tmp, cfg, "train.samples = -2\n"),
    "train-log-activations-maybe": lambda tmp, cfg: _train_with_config(
        tmp, cfg, "engine.log_activations = maybe\n"),
    # each parameter bundle checks its own fields
    "train-trace-alpha-zero": lambda tmp, cfg: _train_with_config(
        tmp, cfg, "trace.alpha = 0\n"),
    "train-stdp-alpha-pre-zero": lambda tmp, cfg: _train_with_config(
        tmp, cfg, "stdp.alpha_pre = 0\n"),
    "train-stdp-alpha-post-zero": lambda tmp, cfg: _train_with_config(
        tmp, cfg, "stdp.alpha_post = 0\n"),
    "train-stdp-w-min-at-w-max": lambda tmp, cfg: _train_with_config(
        tmp, cfg, "stdp.w_min = 1\n"),
    "train-w-inh-negative": lambda tmp, cfg: _train_with_config(
        tmp, cfg, "topology.w_inh = -1\n"),
    "sweep-n-exc-word": _sweep("n_exc", "4,many"),
    "sweep-no-values": _sweep("n_exc", ","),
    # a zero time constant has no decay factor
    "train-tau-v-zero": lambda tmp, cfg: _train_with_config(tmp, cfg, "lif.tau_v = 0\n"),
    "train-tau-x-zero": lambda tmp, cfg: _train_with_config(tmp, cfg, "trace.tau_x = 0\n"),
    # a Q-format descriptor has two parts, and the error names it whole
    "train-v-format-three-parts": lambda tmp, cfg: _train_with_config(
        tmp, cfg, "numeric.v_format = q2.14.5\n"),
    # output packets carry 16-bit ids: rejected before a 440 MB store is built
    "train-n-exc-past-16-bits": lambda tmp, cfg: _train_with_config(
        tmp, cfg, "topology.n_exc = 70000\n"),
    "sweep-n-exc-past-16-bits": _sweep("n_exc", "12,70000"),
    # so do input packets: rejected before the encoder makes an id past them
    "train-n-input-past-16-bits": _with_wide_digits("train"),
    "encode-n-input-past-16-bits": _with_wide_digits("encode"),
    # the text trace's key is gone, and unknown keys are errors
    "train-write-text-trace": lambda tmp, cfg: _train_with_config(
        tmp, cfg, "data.write_text_trace = true\n"),
    # a test split of 4 of the 4 beats leaves labeling no sample
    "train-test-fraction-takes-every-beat": lambda tmp, cfg: [
        "train", "--config", _beats_config(tmp, cfg, four_class_beats(n_per_class=1),
                                           "data.test_fraction = 0.9\n"),
        "--out", tmp / "x"],
    "sweep-test-fraction-takes-every-beat": lambda tmp, cfg: [
        "sweep", "v_thresh", "4.0", "--config",
        _beats_config(tmp, cfg, four_class_beats(n_per_class=1),
                      "data.test_fraction = 0.9\n"),
        "--out", tmp / "x"],
    # eval reads the test split alone, so its 30 x 30 digits meet the
    # config's width check, not the training digits
    "eval-digit-splits-differ": _with_digits(28, "eval", test_side=30),
}

# name: the one line a case of REJECTED_UP_FRONT prints, where it is pinned
UP_FRONT_LINES = {
    "eval-digit-splits-differ": "error: mnist needs topology.n_input = 900, got 784",
    "train-n-input-past-16-bits": "error: n_input must be in [1, 65536], got 70000",
    "encode-n-input-past-16-bits": "error: n_input must be in [1, 65536], got 70000",
    "train-tau-v-zero": "error: tau must be positive, got 0.0",
    "train-tau-x-zero": "error: tau must be positive, got 0.0",
    "train-v-format-three-parts": "error: bad Q-format descriptor 'q2.14.5': "
                                  "invalid literal for int() with base 10: '14.5'",
    "train-label-fraction-one": "error: label_fraction must be in (0, 1), got 1.0",
    "train-test-fraction-zero": "error: test_fraction must be in (0, 1), got 0.0",
    "train-samples-minus-two": "error: train_samples must be >= -1 (-1 means the whole split)",
    "train-log-activations-maybe": "error: bad value for engine.log_activations: "
                                   "expected a boolean, got 'maybe'",
    "train-trace-alpha-zero": "error: alpha must be positive, got 0.0",
    "train-stdp-alpha-pre-zero": "error: alpha_pre must be positive, got 0.0",
    "train-stdp-alpha-post-zero": "error: alpha_post must be positive, got 0.0",
    "train-stdp-w-min-at-w-max": "error: w_min (1.0) must be below w_max (1.0)",
    "train-w-inh-negative": "error: w_inh must be >= 0, got -1.0",
    "train-v-floor-above-rest": "error: v_floor (20.0) must not exceed v_rest (0.0)",
    "sweep-n-exc-word": "error: bad sweep values '4,many': "
                        "could not convert string to float: 'many'",
    "sweep-no-values": "error: sweep needs at least one value",
}


@pytest.mark.parametrize("name", sorted(REJECTED_UP_FRONT))
def test_rejected_up_front_with_one_line(workspace, capsys, name):
    tmp, cfg = workspace
    argv = REJECTED_UP_FRONT[name](tmp, cfg)
    capsys.readouterr()
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    if name in UP_FRONT_LINES:
        assert err[0] == UP_FRONT_LINES[name]
    assert not (tmp / "x").exists()


def _beats_with(amplitude):
    def build(tmp, cfg):
        beats = four_class_beats()
        beats[2][0][7] = amplitude
        return ["train", "--config", _beats_config(tmp, cfg, beats, ""), "--out", tmp / "x"]
    return build


# name: argv builder of a command that must exit 2 before it writes to x
REJECTED_AS_IO = {
    "train-beat-nan": _beats_with(np.nan),
    "train-beat-inf": _beats_with(np.inf),
    "train-beat-minus-inf": _beats_with(-np.inf),
    "train-digit-splits-differ": _with_digits(28, test_side=10),
}


@pytest.mark.parametrize("name", sorted(REJECTED_AS_IO))
def test_rejected_as_io_with_one_line(workspace, capsys, name):
    tmp, cfg = workspace
    argv = REJECTED_AS_IO[name](tmp, cfg)
    capsys.readouterr()
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("io error:"), err
    assert not (tmp / "x").exists()


def test_digit_width_comes_from_the_data(tmp_path, capsys):
    make_idx_digit_dir(tmp_path / "mnist", side=10)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY_CFG + f"data.mnist_dir = {tmp_path / 'mnist'}\ntopology.n_input = 100\n")
    assert run_cli("train", "--config", cfg, "--out", tmp_path / "out") == 0
    assert load_store(tmp_path / "out" / "checkpoint.aern")[0].w.shape == (100, 12)
    cfg.write_text(cfg.read_text() + "topology.n_input = 784\n")
    capsys.readouterr()
    assert run_cli("train", "--config", cfg, "--out", tmp_path / "x") == 1
    assert capsys.readouterr().err == "error: mnist needs topology.n_input = 100, got 784\n"


# sha256 of the artifacts of train on 20 test samples, so that label and eval
# run frozen samples in lanes of 16 and 4; recorded from the engine that ran
# one sample per call. Removing the text trace's key changed only the config
# hash the artifacts embed (here and in the two tables below)
LANE_TRAIN_DIGESTS = {
    "activations.csv": "ec52b644177c591fe09a645a6d7f1b8ce0f6f09f212672bb09c9652c50cde5e8",
    "checkpoint.aern": "3359dfe26afea480c9529499810edc46f39bc68365db0e81a010d668023bb5ae",
    "labels.json": "86f4a443be40140a63bfd40ba49665b050afa8b852c3ebd89fcff7a4e0e0a6d1",
    "metrics.jsonl": "59050c0ad94ab2772ddea42559a22392a8dfd2be1ab3af3780e3b1810a07f548",
}


def test_train_artifacts_keep_their_bytes(tmp_path, monkeypatch):
    import hashlib

    monkeypatch.chdir(tmp_path)
    make_idx_digit_dir(tmp_path / "mnist", n_train=12, n_test=20, seed=1)
    (tmp_path / "run.cfg").write_text(
        TINY_CFG.replace("eval.samples = 6", "eval.samples = -1")
        + "data.mnist_dir = mnist\nengine.log_activations = true\n")
    assert run_cli("train", "--config", "run.cfg", "--out", "out") == 0
    digests = {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
               for name in LANE_TRAIN_DIGESTS}
    assert digests == LANE_TRAIN_DIGESTS


# sha256 of the artifacts of a fixed-mode train over 2 epochs of 12 samples
# in batches of 5 (5, 5 and a partial 2), with the rest below zero;
# recorded from the engine that trained one sample per call
FIXED_BATCH_TRAIN_DIGESTS = {
    "activations.csv": "e812796d05a5ae1f539b71400462827c8a13a32331dea3b5e1a2ef5f2090a4f4",
    "checkpoint.aern": "f7eeff2ba736c78836caceff024b74bfeec97fc7d058a70411a95e7cf10eb0d8",
    "labels.json": "10680056259148ae79441a01861e690c3629069e2e8846c2f383e331ffb44c3b",
    "metrics.jsonl": "b6c202d828a3c136106c64f6d88f940435c665bac62182013e725f8bf1659ee7",
}


def test_fixed_batch_train_artifacts_keep_their_bytes(tmp_path, monkeypatch):
    import hashlib

    monkeypatch.chdir(tmp_path)
    make_idx_digit_dir(tmp_path / "mnist", n_train=12, n_test=6, seed=1)
    (tmp_path / "run.cfg").write_text(
        TINY_CFG.replace("train.samples = 8", "train.samples = -1")
        + "data.mnist_dir = mnist\nengine.log_activations = true\nnumeric.mode = fixed\n"
        "engine.batch_size = 5\nlif.v_rest = -0.5\ntrain.epochs = 2\n")
    assert run_cli("train", "--config", "run.cfg", "--out", "out") == 0
    digests = {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
               for name in FIXED_BATCH_TRAIN_DIGESTS}
    assert digests == FIXED_BATCH_TRAIN_DIGESTS


# sha256 of the artifacts of a sweep of integer values, one written as 4.0;
# recorded from the sweep that cast them with int()
SWEEP_DIGESTS = {
    "metrics.csv": "8ec8e8aa238f02a8753d81c28360d425f49fe61f53a4f4f688a0015c0060ae23",
    "metrics.jsonl": "84604d0360a04696a6405ef8b1a1082ff48e4bd849e00eaab62087f32db90288",
}


def test_integer_sweep_values_keep_their_artifacts(tmp_path, monkeypatch):
    import hashlib

    monkeypatch.chdir(tmp_path)
    make_idx_digit_dir(tmp_path / "mnist", n_train=12, n_test=6, seed=1)
    (tmp_path / "run.cfg").write_text(TINY_CFG + "data.mnist_dir = mnist\n")
    assert run_cli("sweep", "n_exc", "4.0,6", "--config", "run.cfg", "--out", "sw") == 0
    digests = {name: hashlib.sha256((tmp_path / "sw" / name).read_bytes()).hexdigest()
               for name in SWEEP_DIGESTS}
    assert digests == SWEEP_DIGESTS
    rows = (tmp_path / "sw" / "sweep.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in rows] == ["value", "4.0", "6.0"]
