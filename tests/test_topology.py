import math
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from aersnn.numerics import NumericSpec, QFormat
from aersnn.plasticity import StdpParams
from aersnn.topology import (
    STORE_ARRAYS,
    CheckpointError,
    StateStore,
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

    def test_n_input_fits_the_16_bit_input_ids(self):
        # input packets carry 16-bit ids: input 65535 is the last one
        TopologyParams(n_input=65536, n_exc=1, w_inh=0.5)
        with pytest.raises(ValueError, match=r"n_input must be in \[1, 65536\], got 65537"):
            TopologyParams(n_input=65537, n_exc=1, w_inh=0.5)

    def test_n_exc_fits_the_16_bit_output_ids(self):
        # output packets carry 16-bit ids: neuron 65535 is the last one
        TopologyParams(n_input=1, n_exc=65536, w_inh=0.5)
        with pytest.raises(ValueError, match="65536"):
            TopologyParams(n_input=1, n_exc=65537, w_inh=0.5)

    def test_fixed_mode_weights_are_quantized_mantissas(self):
        store = small_store(numeric=NumericSpec(mode="fixed"))
        assert store.w.dtype == np.int64
        # weights within [0.2, 0.8] in q2.14 mantissa units
        assert np.all(store.w >= int(0.2 * 2**14) - 1)
        assert np.all(store.w <= int(0.8 * 2**14) + 1)


def queue(store, *fired, w_inh=0.5):
    """Queue the inhibition of the neurons ``fired[b]`` of lane b against
    lanes of the store's pending inhibition; returns the lanes, and the
    firing counts."""
    crossed = np.zeros((len(fired), store.n_exc), dtype=bool)
    for lane, ids in enumerate(fired):
        crossed[lane, list(ids)] = True
    pending = np.repeat(store.pending[None], len(fired), axis=0)
    counts = queue_inhibition(store, crossed, inhibition_credit(store, w_inh), pending)
    return pending, counts


class TestQueueInhibition:
    def test_no_fires_no_change(self):
        store = small_store()
        pending, counts = queue(store, [])
        assert np.all(pending == 0.0)
        assert counts.tolist() == [[0]]

    def test_all_but_self(self):
        pending, _ = queue(small_store(), [1])
        assert pending.tolist() == [[0.5, 0.0, 0.5]]

    def test_superposition_of_two_fires(self):
        pending, counts = queue(small_store(), [0, 1])
        assert pending.tolist() == [[0.5, 0.5, 1.0]]
        assert counts.tolist() == [[2]]

    def test_lanes_inhibit_only_themselves(self):
        pending, counts = queue(small_store(), [0, 1], [], [2])
        assert pending.tolist() == [[0.5, 0.5, 1.0], [0.0, 0.0, 0.0], [0.5, 0.5, 0.0]]
        assert counts.tolist() == [[2], [0], [1]]

    def test_self_exclusion(self):
        store = small_store()
        before = store.pending[1]
        crossed = np.array([[False, True, False]])
        queue_inhibition(store, crossed, inhibition_credit(store, 0.5), store.pending[None])
        assert store.pending[1] == before
        assert store.pending.tolist() == [0.5, 0.0, 0.5]

    def test_fixed_mode_saturates_at_format_top(self):
        store = small_store(numeric=NumericSpec(mode="fixed"))
        credit = inhibition_credit(store, 100.0)
        for _ in range(10):
            queue_inhibition(store, np.array([[True, False, False]]), credit, store.pending[None])
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

    @pytest.mark.parametrize("numeric", [NumericSpec(), NumericSpec(mode="fixed")])
    def test_loaded_arrays_are_writeable_and_own_their_memory(self, numeric):
        blob = store_to_bytes(small_store(numeric=numeric), seed=7)
        loaded, _, _ = store_from_bytes(blob)
        payload = np.frombuffer(blob, dtype=np.uint8)
        for row, a in zip(STORE_ARRAYS, loaded.arrays()):
            assert a.flags.writeable, row.name
            assert not np.shares_memory(a, payload), row.name

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

    @pytest.mark.parametrize("mode", ["float", "fixed"])
    @pytest.mark.parametrize("v_rest", [np.nan, np.inf, -np.inf])
    def test_non_finite_rest_voltage_rejected(self, mode, v_rest):
        blob = bytearray(store_to_bytes(small_store(numeric=NumericSpec(mode=mode))))
        struct.pack_into("<d", blob, 19, v_rest)  # after the mode byte
        with pytest.raises(CheckpointError, match=r"rest voltage -?(nan|inf) is not finite"):
            store_from_bytes(bytes(blob))

    def test_truncation_rejected(self):
        blob = store_to_bytes(small_store())
        with pytest.raises(CheckpointError):
            store_from_bytes(blob[:-3])
        with pytest.raises(CheckpointError):
            store_from_bytes(blob[:10])

    def test_huge_layers_with_a_short_payload_allocate_nothing(self):
        # the header claims 2**64 - 2**33 + 1 weights: the payload size is
        # checked from the header alone, before any array is allocated
        blob = bytearray(store_to_bytes(small_store()))
        struct.pack_into("<II", blob, 6, 2**32 - 1, 2**32 - 1)  # n_input, n_exc
        blob = bytes(blob)
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointError, match="payload size mismatch"):
                store_from_bytes(blob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16


MODES = [NumericSpec(), NumericSpec(mode="fixed")]


class TestLayout:
    """The synapse matrix is row-major wherever a store comes from, and a
    checkpoint does not depend on the layout a caller gave it."""

    @pytest.mark.parametrize("numeric", MODES, ids=["float", "fixed"])
    def test_every_store_holds_a_row_major_matrix(self, tmp_path, numeric):
        assert StateStore(4, 3, numeric, 0.0).w.flags.c_contiguous
        store = small_store(numeric=numeric)
        assert store.w.flags.c_contiguous
        save_store(tmp_path / "net.aern", store)
        assert load_store(tmp_path / "net.aern")[0].w.flags.c_contiguous
        store.w = np.asfortranarray(store.w)
        dup = store.copy()
        assert dup.w.flags.c_contiguous and dup.state_equal(store)

    @pytest.mark.parametrize("numeric", MODES, ids=["float", "fixed"])
    def test_checkpoint_bytes_do_not_depend_on_the_layout(self, numeric):
        store = small_store(n_input=5, n_exc=4, numeric=numeric)
        blob = store_to_bytes(store)
        store.w = np.asfortranarray(store.w)
        assert store_to_bytes(store) == blob


def payload_sizes(n_input, n_exc):
    """The element counts of the checkpoint payload's arrays, in the order
    of ``STORE_ARRAYS``."""
    return [math.prod(row.shape(n_input, n_exc)) for row in STORE_ARRAYS]


def with_payload_value(blob, store, array, index, value):
    """The checkpoint ``blob`` of ``store`` with value ``index`` of payload
    array ``array`` (its position in ``STORE_ARRAYS``) replaced."""
    blob = bytearray(blob)
    dtype = np.dtype("<i4" if store.numeric.is_fixed else "<f8")
    sizes = payload_sizes(store.n_input, store.n_exc)
    payload = np.frombuffer(blob, dtype=dtype, offset=len(blob) - sum(sizes) * dtype.itemsize)
    payload[sum(sizes[:array]) + index] = value
    return bytes(blob)


def with_value(store, array, index, value):
    return with_payload_value(store_to_bytes(store), store, array, index, value)


FIXED = NumericSpec(mode="fixed")  # q8.8 voltages, q2.14 weights


class TestCheckpointValues:
    @pytest.mark.parametrize("array", range(len(STORE_ARRAYS)))
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_float_rejected(self, array, value):
        blob = with_value(small_store(), array, 1, value)
        with pytest.raises(CheckpointError, match=r"\[1\] = -?(nan|inf) is not finite"):
            store_from_bytes(blob)

    @pytest.mark.parametrize("array, value", [
        (0, 2**30), (0, -2**15 - 1), (0, 2**15),  # q2.14 weight mantissas
        (1, -2**31 + 1), (2, 2**15), (3, -2**15 - 1), (4, 2**31 - 1),  # q8.8 mantissas
    ])
    def test_mantissa_outside_its_format_rejected(self, array, value):
        blob = with_value(small_store(numeric=FIXED), array, 2, value)
        with pytest.raises(CheckpointError, match=f"\\[2\\] = {value} is outside the q"):
            store_from_bytes(blob)

    @pytest.mark.parametrize("array, value", [(0, -2**15), (0, 2**15 - 1), (1, -2**15),
                                              (4, 2**15 - 1)])
    def test_mantissa_at_its_format_edge_loads(self, array, value):
        loaded, _, _ = store_from_bytes(with_value(small_store(numeric=FIXED), array, 0, value))
        assert loaded.arrays()[array][(0,) * loaded.arrays()[array].ndim] == value

    def test_largest_finite_float_loads(self):
        top = np.finfo(np.float64).max
        loaded, _, _ = store_from_bytes(with_value(small_store(), 1, 2, -top))
        assert loaded.exc_v[2] == -top


def value_formats(numeric, n_input, n_exc):
    """The Q-format of every payload value of an ``n_input`` x ``n_exc``
    store, from its array's row of ``STORE_ARRAYS``."""
    return [getattr(numeric, row.fmt)
            for row, size in zip(STORE_ARRAYS, payload_sizes(n_input, n_exc))
            for _ in range(size)]


def holdable(numeric, n_input, n_exc, values):
    """Whether an ``n_input`` x ``n_exc`` store holds ``values``, its flat
    payload: finite floats, or mantissas inside their arrays' formats."""
    if not numeric.is_fixed:
        return bool(np.isfinite(values).all())
    return all(fmt.raw_min <= value <= fmt.raw_max
               for value, fmt in zip(values.tolist(), value_formats(numeric, n_input, n_exc)))


# the values an i32 payload mantissa can take
I32 = (-2**31, 2**31 - 1)


@st.composite
def payloads(draw):
    """A checkpoint of a small store with drawn payload values: floats with
    nan and the infinities, or i32 mantissas drawn from one past each end
    of their format, one of them maybe from the whole i32 range."""
    n_input, n_exc = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    size = sum(payload_sizes(n_input, n_exc))
    if draw(st.booleans()):
        numeric = NumericSpec(mode="fixed",
                              v_format=QFormat(draw(st.integers(1, 16)), draw(st.integers(0, 16))),
                              w_format=QFormat(draw(st.integers(1, 16)), draw(st.integers(0, 16))))
        values = [draw(st.integers(max(fmt.raw_min - 1, I32[0]), min(fmt.raw_max + 1, I32[1])))
                  for fmt in value_formats(numeric, n_input, n_exc)]
        if draw(st.booleans()):
            values[draw(st.integers(0, size - 1))] = draw(st.integers(*I32))
        values = np.array(values, dtype="<i4")
    else:
        numeric = NumericSpec()
        values = np.array(draw(st.lists(st.floats(width=64), min_size=size, max_size=size)))
    blob = store_to_bytes(StateStore(n_input, n_exc, numeric, 0.0))
    return numeric, (n_input, n_exc), values, blob[:len(blob) - values.nbytes] + values.tobytes()


@given(payloads())
def test_payload_loads_every_value_or_raises(case):
    numeric, layers, values, blob = case
    if not holdable(numeric, *layers, values):
        with pytest.raises(CheckpointError):
            store_from_bytes(blob)
        return
    store, _, _ = store_from_bytes(blob)
    loaded = np.concatenate([a.reshape(-1) for a in store.arrays()])
    assert holdable(numeric, *layers, loaded)
    assert loaded.tobytes() == values.astype(store.arith.dtype).tobytes()


@pytest.mark.parametrize("numeric", MODES, ids=["float", "fixed"])
@pytest.mark.parametrize("row", STORE_ARRAYS, ids=[row.name for row in STORE_ARRAYS])
def test_every_store_array_follows_its_row(numeric, row):
    """Each row of ``STORE_ARRAYS`` gives its array's shape, its checkpoint
    label and Q-format, and its value after ``reset_for_sample``; a copy of
    the store shares no buffer with it."""
    tp = TopologyParams(n_input=4, n_exc=3, w_inh=0.5)
    store = build_network(tp, SP, seed=7, numeric=numeric, v_rest=0.25)
    assert getattr(store, row.name).shape == row.shape(4, 3)

    fmt = getattr(numeric, row.fmt)
    value = fmt.raw_max + 1 if numeric.is_fixed else np.nan
    why = f"outside the {fmt} range" if numeric.is_fixed else "not finite"
    with pytest.raises(CheckpointError, match=re.escape(f"{row.label}[1] = {value} is {why}")):
        store_from_bytes(with_value(store, STORE_ARRAYS.index(row), 1, value))

    dup = store.copy()
    assert not np.shares_memory(getattr(dup, row.name), getattr(store, row.name))
    assert dup.state_equal(store)

    fill = store.arith.voltage(0.75)
    for a in store.arrays():
        a[...] = fill
    reset_for_sample(store)
    expected = {"rest": store.rest, 0: 0, None: fill}[row.reset]
    assert np.all(getattr(store, row.name) == expected)
    assert np.all(store.w == fill)
    assert dup.state_equal(build_network(tp, SP, seed=7, numeric=numeric, v_rest=0.25))
