import struct

import numpy as np
import pytest

from aersnn.numerics import NumericSpec
from aersnn.plasticity import StdpParams
from aersnn.topology import (
    CheckpointError,
    TopologyParams,
    atomic_open,
    build_network,
    inhibition_credit,
    load_store,
    queue_inhibition,
    reset_for_sample,
    save_store,
    store_from_bytes,
    store_to_bytes,
)

SP = StdpParams(alpha_pre=0.01, alpha_post=0.01, w_min=0.0, w_max=1.0)


def small_store(n_input=4, n_exc=3, numeric=NumericSpec(), seed=7):
    tp = TopologyParams(n_input=n_input, n_exc=n_exc, w_inh=0.5)
    return build_network(tp, SP, seed=seed, numeric=numeric)


class TestBuildNetwork:
    def test_same_seed_bit_identical(self):
        a = small_store(seed=123)
        b = small_store(seed=123)
        assert a.state_equal(b)

    def test_different_seed_differs(self):
        assert not small_store(seed=1).state_equal(small_store(seed=2))

    def test_dense_synapse_count(self):
        store = small_store(n_input=784, n_exc=400)
        assert store.w.size == 313_600

    def test_initial_weights_inside_margin(self):
        store = small_store(n_input=50, n_exc=50)
        assert np.all(store.w >= 0.2)
        assert np.all(store.w <= 0.8)

    def test_initial_dynamic_state(self):
        store = small_store()
        assert np.all(store.exc_v == 0.0)
        assert np.all(store.exc_x == 0.0)
        assert np.all(store.input_x == 0.0)
        assert np.all(store.pending == 0.0)

    def test_rejects_empty_layers(self):
        with pytest.raises(ValueError):
            TopologyParams(n_input=0, n_exc=3, w_inh=0.5)
        with pytest.raises(ValueError):
            TopologyParams(n_input=3, n_exc=0, w_inh=0.5)

    def test_fixed_mode_weights_are_quantized_mantissas(self):
        store = small_store(numeric=NumericSpec(mode="fixed"))
        assert store.w.dtype == np.int64
        # weights within [0.2, 0.8] in q2.14 mantissa units
        assert np.all(store.w >= int(0.2 * 2**14) - 1)
        assert np.all(store.w <= int(0.8 * 2**14) + 1)


class TestQueueInhibition:
    def test_no_fires_no_change(self):
        store = small_store()
        queue_inhibition(store, np.array([], dtype=np.intp), inhibition_credit(store, 0.5))
        assert np.all(store.pending == 0.0)

    def test_all_but_self(self):
        store = small_store()
        queue_inhibition(store, np.array([1]), inhibition_credit(store, 0.5))
        assert store.pending.tolist() == [0.5, 0.0, 0.5]

    def test_superposition_of_two_fires(self):
        store = small_store()
        queue_inhibition(store, np.array([0, 1]), inhibition_credit(store, 0.5))
        assert store.pending.tolist() == [0.5, 0.5, 1.0]

    def test_self_exclusion(self):
        store = small_store()
        before = store.pending[1]
        queue_inhibition(store, np.array([1]), inhibition_credit(store, 0.5))
        assert store.pending[1] == before

    def test_fixed_mode_saturates_at_format_top(self):
        store = small_store(numeric=NumericSpec(mode="fixed"))
        for _ in range(10):
            queue_inhibition(store, np.array([0]), inhibition_credit(store, 100.0))
        top = store.numeric.v_format.raw_max
        assert np.all(store.pending[1:] == top)


class TestResetForSample:
    def test_fresh_store_unchanged(self):
        store = small_store()
        snapshot = store.copy()
        reset_for_sample(store)
        assert store.state_equal(snapshot)

    def test_only_weights_survive(self):
        store = small_store()
        w_before = store.w.copy()
        store.exc_v[:] = 0.7
        store.exc_x[:] = 2.0
        store.input_x[:] = 1.0
        store.pending[:] = 0.3
        reset_for_sample(store)
        assert np.array_equal(store.w, w_before)
        assert np.all(store.exc_v == store.v_rest)
        assert np.all(store.exc_x == 0.0)
        assert np.all(store.input_x == 0.0)
        assert np.all(store.pending == 0.0)


class TestCheckpoint:
    @pytest.mark.parametrize("numeric", [NumericSpec(), NumericSpec(mode="fixed")])
    def test_round_trip_bit_exact(self, numeric):
        store = small_store(n_input=9, n_exc=5, numeric=numeric, seed=99)
        store.exc_v[:] = store.exc_v + 3
        blob = store_to_bytes(store, seed=42, config_hash=b"\xaa" * 32)
        loaded, seed, digest = store_from_bytes(blob)
        assert seed == 42
        assert digest == b"\xaa" * 32
        assert loaded.state_equal(store)
        assert store_to_bytes(loaded, seed=42, config_hash=b"\xaa" * 32) == blob

    def test_file_round_trip(self, tmp_path):
        store = small_store()
        path = tmp_path / "net.aern"
        save_store(path, store, seed=7)
        loaded, seed, _ = load_store(path)
        assert seed == 7
        assert loaded.state_equal(store)

    def test_failed_save_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "net.aern"
        save_store(path, small_store(), seed=7)
        before = path.read_bytes()
        with pytest.raises(struct.error):
            save_store(path, small_store(), seed=-1)  # the header has no room for it
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["net.aern"]

    def test_write_raising_partway_leaves_no_file(self, tmp_path):
        with pytest.raises(RuntimeError):
            with atomic_open(tmp_path / "net.aern") as fh:
                fh.write(b"AERN")
                raise RuntimeError("interrupted")
        assert list(tmp_path.iterdir()) == []

    def test_bad_magic_rejected(self):
        blob = bytearray(store_to_bytes(small_store()))
        blob[:4] = b"NOPE"
        with pytest.raises(CheckpointError):
            store_from_bytes(bytes(blob))

    def test_bad_version_rejected(self):
        blob = bytearray(store_to_bytes(small_store()))
        blob[4:6] = (999).to_bytes(2, "little")
        with pytest.raises(CheckpointError):
            store_from_bytes(bytes(blob))

    def test_bad_mode_byte_rejected(self):
        blob = bytearray(store_to_bytes(small_store()))
        blob[18] = 7  # the numeric mode byte: 0 float, 1 fixed
        with pytest.raises(CheckpointError, match="mode byte 7"):
            store_from_bytes(bytes(blob))

    def test_truncation_rejected(self):
        blob = store_to_bytes(small_store())
        with pytest.raises(CheckpointError):
            store_from_bytes(blob[:-3])
        with pytest.raises(CheckpointError):
            store_from_bytes(blob[:10])
