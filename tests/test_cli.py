import json

import numpy as np
import pytest

from aersnn.cli import _write_lines, main
from aersnn.event_engine import packet_array, read_aer_file, write_aer_file
from aersnn.topology import load_store

from conftest import four_class_beats, make_idx_digit_dir, write_beat_csv

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
