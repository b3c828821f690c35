"""Corrupted CLI inputs: config text, ``labels.json``, checkpoint headers
and AER traces. Whatever the damage, a command exits 0, 1, 2 or 3, and a
nonzero exit prints exactly one stderr line and leaves nothing under
``--out``.

Every input that runs stays as cheap as the workspace's own. A damaged
config that parses to larger layer sizes, step counts or sample counts is
not run, and traces are only truncated or have packets swapped: a sorted
trace whose last timestamp is near 2**32 is valid, and replaying it keeps
a per-step record for every step up to that timestamp."""

import io
import tempfile
from contextlib import redirect_stderr
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from aersnn.config import ConfigError, parse_config_file
from aersnn.event_engine import PACKET_BYTES
from aersnn.topology import _HEADER

from conftest import make_idx_digit_dir
from test_cli import TINY_CFG, run_cli

# bytes an edit inserts: no digit, letter, sign or dot, so no edit makes a
# number larger or a key name another key
JUNK = b" \t\n#=,:[]{}\"\x00\xff"

edits = st.lists(
    st.tuples(st.sampled_from(["delete", "insert", "replace"]), st.integers(0, 2**16),
              st.sampled_from(list(JUNK))),
    min_size=1, max_size=4)


def damage(data: bytes, edit_list, cut=None) -> bytes:
    """``data`` with each edit applied at its position modulo the length,
    then cut to ``cut`` bytes."""
    data = bytearray(data)
    for kind, pos, byte in edit_list:
        pos %= len(data) + 1
        if kind == "insert":
            data[pos:pos] = bytes([byte])
        elif pos < len(data):
            data[pos:pos + 1] = b"" if kind == "delete" else bytes([byte])
    return bytes(data[:cut])


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """A trained checkpoint, its labels and an encoded trace of the tiny
    workspace of ``test_cli``."""
    root = tmp_path_factory.mktemp("fuzz")
    mnist = make_idx_digit_dir(root / "mnist", n_train=12, n_test=6, seed=1)
    cfg_text = TINY_CFG + f"data.mnist_dir = {mnist}\n"
    (root / "run.cfg").write_text(cfg_text)
    assert run_cli("train", "--config", root / "run.cfg", "--out", root / "train") == 0
    assert run_cli("encode", "--config", root / "run.cfg", "--out", root / "encode") == 0
    return dict(root=root, cfg=cfg_text.encode(),
                checkpoint=(root / "train" / "checkpoint.aern").read_bytes(),
                labels=(root / "train" / "labels.json").read_bytes(),
                trace=(root / "encode" / "trace.aer").read_bytes(),
                limits=parse_config_file(root / "run.cfg"))


def costs_no_more(path: Path, limits) -> bool:
    """Whether the config at ``path`` is rejected, or runs layers, steps
    and samples no larger than ``limits``."""
    try:
        cfg = parse_config_file(path)
    except ConfigError:
        return True
    return all(0 <= getattr(cfg, name) <= getattr(limits, name)
               for name in ("n_input", "n_exc", "timesteps", "train_samples",
                            "eval_samples", "epochs"))


def check_exit(argv, out: Path) -> None:
    with redirect_stderr(io.StringIO()) as stderr:
        code = run_cli(*argv)
    assert code in (0, 1, 2, 3)
    if code:
        err = stderr.getvalue().splitlines()
        assert len(err) == 1, err
        assert not out.exists() or not any(out.iterdir())


def workdir(base):
    return tempfile.TemporaryDirectory(dir=base["root"])


@given(edit_list=edits, cut=st.none() | st.integers(0, 400),
       command=st.sampled_from(["train", "encode", "sweep"]))
def test_damaged_config(base, edit_list, cut, command):
    with workdir(base) as tmp:
        tmp = Path(tmp)
        cfg = tmp / "run.cfg"
        cfg.write_bytes(damage(base["cfg"], edit_list, cut))
        assume(costs_no_more(cfg, base["limits"]))
        sweep = ["n_exc", "12"] if command == "sweep" else []
        check_exit([command, *sweep, "--config", cfg, "--out", tmp / "x"], tmp / "x")


@given(edit_list=edits, cut=st.none() | st.integers(0, 2000))
def test_damaged_labels(base, edit_list, cut):
    with workdir(base) as tmp:
        tmp = Path(tmp)
        (tmp / "checkpoint.aern").write_bytes(base["checkpoint"])
        (tmp / "labels.json").write_bytes(damage(base["labels"], edit_list, cut))
        check_exit(["eval", "--config", base["root"] / "run.cfg", "--checkpoint",
                    tmp / "checkpoint.aern", "--out", tmp / "x"], tmp / "x")


@given(flips=st.lists(st.tuples(st.integers(0, _HEADER.size - 1), st.integers(1, 255)),
                      min_size=1, max_size=3),
       command=st.sampled_from(["train", "eval"]))
def test_damaged_checkpoint_header(base, flips, command):
    checkpoint = bytearray(base["checkpoint"])
    for pos, mask in flips:
        checkpoint[pos] ^= mask
    with workdir(base) as tmp:
        tmp = Path(tmp)
        (tmp / "checkpoint.aern").write_bytes(bytes(checkpoint))
        (tmp / "labels.json").write_bytes(base["labels"])
        check_exit([command, "--config", base["root"] / "run.cfg", "--checkpoint",
                    tmp / "checkpoint.aern", "--out", tmp / "x"], tmp / "x")


@given(swaps=st.lists(st.tuples(st.integers(0, 2**16), st.integers(0, 2**16)), max_size=3),
       cut=st.none() | st.integers(0, 2**16), learning=st.booleans())
def test_damaged_trace(base, swaps, cut, learning):
    packets = np.frombuffer(base["trace"], dtype=np.uint8).reshape(-1, PACKET_BYTES).copy()
    for i, j in swaps:
        i, j = i % len(packets), j % len(packets)
        packets[[i, j]] = packets[[j, i]]
    trace = packets.tobytes()[:None if cut is None else cut % (len(base["trace"]) + 1)]
    with workdir(base) as tmp:
        tmp = Path(tmp)
        (tmp / "trace.aer").write_bytes(trace)
        cfg = tmp / "replay.cfg"
        cfg.write_bytes(base["cfg"] + f"data.aer_trace = {tmp / 'trace.aer'}\n".encode())
        argv = ["eval", "--config", cfg, "--checkpoint", base["root"] / "train" / "checkpoint.aern",
                "--out", tmp / "x"] + ([] if learning else ["--no-learning"])
        check_exit(argv, tmp / "x")
