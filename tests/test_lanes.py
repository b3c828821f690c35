"""``EventEngine.run_lanes`` against its reference, the streams run one by
one through ``run`` (``oracles.run_one_by_one``): per-lane outputs, step
records and stats, the final store, the batched weight deltas and the
error a failing call raises. Label and eval run frozen samples in lanes,
and fixed-mode training runs the samples of a batch in lanes, so they are
checked against their references too."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from aersnn import evaluator, event_engine
from aersnn.config import RunConfig
from aersnn.encoders import ECG_FEATURES, Sample, load_ecg_beats
from aersnn.event_engine import (
    RECORD_ROWS,
    EventEngine,
    FifoOverflowError,
    ProtocolError,
    packet_array,
)
from aersnn.evaluator import LANES, assign_labels, build_engine, evaluate, train_pass
from aersnn.numerics import DecayParams, Fixed, fixed_sub, leak_toward
from aersnn.reference_sim import dense_simulate
from aersnn.topology import STORE_ARRAYS, LifParams, StdpParams, store_to_bytes

from conftest import four_class_beats, grid_to_packets, make_engine, write_beat_csv
from oracles import run_one_by_one, step_by_handlers, train_one_by_one
from test_engine_pins import NARROW_LIF, Q3_8, Q8_8, REST_LIF, grid_stream, messy_stream
from test_reference_equiv import assert_bit_identical

# a rest of -0.0 and weights that hold -0.0: a voltage can stay -0.0, which
# adding a +0.0 pad row would turn into +0.0
SIGNED_ZERO_LIF = LifParams(v_rest=-0.0, v_thresh=1.0, tau_v=100.0, dt=1.0)

CASES = {
    "float": dict(),
    "float-rest-below-zero": dict(lif=REST_LIF),
    "float-signed-zeros": dict(lif=SIGNED_ZERO_LIF, weights=(-0.0, 0.0, -0.0, 0.5)),
    "q8.8": dict(numeric=Q8_8),
    "q8.8-rest-below-zero": dict(numeric=Q8_8, lif=REST_LIF),
    "q3.8-rails": dict(numeric=Q3_8, lif=NARROW_LIF, w_inh=1.5),
}


def case_engine(case, n_input, n_exc, seed=11, learning=False, **kwargs):
    kwargs = dict(CASES[case], **kwargs)
    values = kwargs.pop("weights", None)
    if values is not None:
        picks = np.random.default_rng(seed).integers(0, len(values), (n_input, n_exc))
        kwargs["weights"] = np.array(values)[picks]
    return make_engine(n_input=n_input, n_exc=n_exc, seed=seed, learning=learning, **kwargs)


def stream(kind, seed, steps, n_input, rate):
    if kind == "empty" or steps == 0:
        return packet_array([], [])
    if kind == "grid":
        return packet_array(*grid_stream(seed, steps, n_input, rate))
    return packet_array(*messy_stream(seed, steps, n_input))


def state_bytes(engine):
    return store_to_bytes(engine.store)


def assert_same_runs(got, want):
    assert len(got) == len(want)
    for lane, (g, w) in enumerate(zip(got, want)):
        assert g.outputs.tobytes() == w.outputs.tobytes(), f"lane {lane} outputs"
        assert g.steps.tobytes() == w.steps.tobytes(), f"lane {lane} steps"
        assert g.stats == w.stats, f"lane {lane} stats"


@given(
    case=st.sampled_from(sorted(CASES)),
    n_input=st.integers(1, 12),
    n_exc=st.integers(1, 6),
    lanes=st.lists(st.tuples(st.sampled_from(["grid", "messy", "empty"]),
                             st.integers(0, 2**16), st.integers(0, 24),
                             st.floats(0.05, 0.9)),
                   min_size=1, max_size=17),
    tail=st.integers(0, 3),
    warm=st.booleans(),
)
def test_lanes_match_streams_run_one_by_one(case, n_input, n_exc, lanes, tail, warm):
    streams = [stream(kind, seed, steps, n_input, rate) for kind, seed, steps, rate in lanes]
    stop_ts = max(steps for _, _, steps, _ in lanes) + tail
    engines = [case_engine(case, n_input, n_exc) for _ in range(2)]
    if warm:
        # start the lanes from a state off rest: voltages, traces, pending
        for engine in engines:
            engine.run(stream("messy", 1, 6, n_input, 0.5), stop_ts=6)
    got = engines[0].run_lanes(streams, stop_ts)
    want = run_one_by_one(engines[1], streams, stop_ts)
    assert_same_runs(got, want)
    assert state_bytes(engines[0]) == state_bytes(engines[1])
    assert engines[0].steps.tobytes() == engines[1].steps.tobytes()


@pytest.mark.parametrize("n_lanes", [1, 3, 17])
def test_saturating_and_quiet_lanes_together(n_lanes):
    # dense lanes hit the q3.8 voltage rails and fall back to sequential
    # saturating adds; sparse lanes beside them take the cumulative sum
    streams = [stream("grid", lane, 40, 16, 0.9 if lane % 2 else 0.1) for lane in range(n_lanes)]
    engines = [case_engine("q3.8-rails", 16, 5) for _ in range(2)]
    assert_same_runs(engines[0].run_lanes(streams, 42), run_one_by_one(engines[1], streams, 42))
    assert state_bytes(engines[0]) == state_bytes(engines[1])


def runs_of(ids, n_input):
    """A lane's ids of one step inside the input layer, cut before each id
    already seen in its run."""
    runs = [[]]
    for i in ids:
        if i < n_input:
            if i in runs[-1]:
                runs.append([])
            runs[-1].append(i)
    return [run for run in runs if run]


@given(
    n_input=st.integers(1, 8),
    # per lane, per busy step: the steps since the last busy one, and its
    # ids, some past the input layer and some repeated
    lanes=st.lists(st.lists(st.tuples(st.integers(0, 3), st.lists(st.integers(0, 10),
                                                                    max_size=8)),
                            max_size=6),
                   min_size=1, max_size=6),
    tail=st.integers(0, 2),
)
def test_plan_gives_each_lane_its_runs_in_stream_order(n_input, lanes, tail):
    streams, want, stop_ts = [], [], 0
    for busy in lanes:
        t, ids, ts, runs = -1, [], [], []
        for gap, step_ids in busy:
            t += gap + 1
            ids += step_ids
            ts += [t] * len(step_ids)
            runs += [(t, run) for run in runs_of(step_ids, n_input)]
        streams.append(packet_array(np.array(ids, dtype=np.int64), np.array(ts, dtype=np.int64)))
        want.append(runs)
        stop_ts = max(stop_ts, t + 1)
    stop_ts += tail
    n_lanes = len(streams)
    steps, ids, block_ts, offsets = event_engine._plan_lanes(streams, stop_ts, n_input)
    assert steps.shape == (n_lanes, stop_ts) and not steps["fired"].any()
    for lane, packets in enumerate(streams):
        arrived = np.bincount(packets["timestamp"], minlength=stop_ts)
        kept = np.bincount(packets["timestamp"][packets["neuron_id"] < n_input],
                           minlength=stop_ts)
        assert steps["packets_in"][lane].tolist() == arrived.tolist()
        assert steps["integrated"][lane].tolist() == kept.tolist()
    # walk the blocks as a run does, and strip each lane's offset and pads
    assert block_ts[-1] == stop_ts and len(offsets) == len(block_ts)
    assert block_ts[:-1] == sorted(block_ts[:-1]) and offsets[-1] == ids.size
    got = [[] for _ in streams]
    b = 0
    for t in range(stop_ts):
        while block_ts[b] == t:
            block = ids[offsets[b]:offsets[b + 1]].reshape(n_lanes, -1)
            block = block - np.arange(n_lanes)[:, None] * (n_input + 1)
            assert ((block >= 0) & (block <= n_input)).all()
            assert (block != n_input).any()
            for lane, row in enumerate(block.tolist()):
                run = [i for i in row if i != n_input]
                # pads only fill up a short row
                assert row == run + [n_input] * (len(row) - len(run))
                if run:
                    got[lane].append((t, run))
            b += 1
    assert b == len(block_ts) - 1
    assert got == want


class TestWrapUp:
    """A run's outputs and step records are built after its last step: at
    their edges every lane still equals its stream run alone."""

    def check(self, streams, stop_ts):
        engines = [make_engine(n_input=2, n_exc=3, weights=OVERFLOW_WEIGHTS, w_inh=0.0,
                               learning=False) for _ in range(2)]
        got = engines[0].run_lanes(streams, stop_ts)
        assert_same_runs(got, run_one_by_one(engines[1], streams, stop_ts))
        assert state_bytes(engines[0]) == state_bytes(engines[1])
        assert engines[0].steps.tobytes() == engines[1].steps.tobytes()
        return got

    def test_a_lane_that_never_fires_between_lanes_that_do(self):
        # input 0 fires all three neurons; the middle lane has no input
        streams = [packet_array([0], [1]), packet_array([], []), packet_array([0, 0], [2, 4])]
        got = self.check(streams, 6)
        assert [r.outputs.size for r in got] == [3, 0, 6]
        assert got[1].steps["fired"].sum() == 0

    @pytest.mark.parametrize("n_lanes", [1, 3])
    def test_a_fire_at_the_last_step(self, n_lanes):
        streams = [packet_array([0], [5 if lane % 2 else 9]) for lane in range(n_lanes)]
        got = self.check(streams, 10)
        assert got[0].outputs.timestamp.tolist() == [9, 9, 9]
        assert got[0].steps["fired"].tolist() == [0] * 9 + [3]

    @pytest.mark.parametrize("case, kwargs", [
        ("float", {}),
        ("q8.8", dict(learning=True, accumulate_updates=True)),
    ], ids=["float-frozen", "fixed-learning"])
    def test_16_lanes(self, case, kwargs):
        streams = [stream("messy" if lane % 3 else "grid", lane, 30, 12, 0.6)
                   for lane in range(16)]
        engines = [case_engine(case, 12, 6, **kwargs) for _ in range(2)]
        got = engines[0].run_lanes(streams, 32)
        assert_same_runs(got, run_one_by_one(engines[1], streams, 32))
        assert state_bytes(engines[0]) == state_bytes(engines[1])
        assert all(r.outputs.size for r in got)

    @pytest.mark.parametrize("n_lanes", [1, 4])
    def test_no_steps(self, n_lanes):
        got = self.check([packet_array([], [])] * n_lanes, 0)
        assert all(r.outputs.size == 0 and r.steps.shape == (0,) for r in got)
        assert all(r.stats.timesteps == 0 for r in got)

    def test_stop_ts_past_the_timestamp_field_raises(self):
        engine = make_engine(learning=False)
        before = state_bytes(engine)
        with pytest.raises(ValueError, match=r"stop_ts must be at most 2\*\*32"):
            engine.run(packet_array([], []), 2**32 + 1)
        assert state_bytes(engine) == before


# the fixed cases, whose accumulated deltas are int64 sums: they learn in lanes
LEARNING_CASES = ["q8.8", "q8.8-rest-below-zero", "q3.8-rails"]


@given(
    case=st.sampled_from(LEARNING_CASES),
    n_input=st.integers(1, 12),
    n_exc=st.integers(1, 6),
    lanes=st.lists(st.tuples(st.sampled_from(["messy", "grid", "empty"]),
                             st.integers(0, 2**16), st.integers(0, 24),
                             st.floats(0.05, 0.9)),
                   min_size=1, max_size=17),
    tail=st.integers(0, 3),
    warm=st.booleans(),
)
@example(case="q3.8-rails", n_input=9, n_exc=1, lanes=[("messy", k, 20, 0.5) for k in range(17)],
         tail=2, warm=True)
@example(case="q8.8", n_input=12, n_exc=6,
         lanes=[("messy", 3, 24, 0.5), ("empty", 0, 0, 0.5), ("grid", 4, 7, 0.9)],
         tail=0, warm=False)
def test_learning_lanes_match_streams_run_one_by_one(case, n_input, n_exc, lanes, tail, warm):
    streams = [stream(kind, seed, steps, n_input, rate) for kind, seed, steps, rate in lanes]
    stop_ts = max(steps for _, _, steps, _ in lanes) + tail
    engines = [case_engine(case, n_input, n_exc, learning=True, accumulate_updates=True)
               for _ in range(2)]
    if warm:
        # start from a state off rest and deltas already collected
        for engine in engines:
            engine.run(stream("messy", 1, 6, n_input, 0.5), stop_ts=6)
    assert engines[0].learns_in_lanes
    got = engines[0].run_lanes(streams, stop_ts)
    want = run_one_by_one(engines[1], streams, stop_ts)
    assert_same_runs(got, want)
    assert state_bytes(engines[0]) == state_bytes(engines[1])
    assert engines[0]._w_delta.tobytes() == engines[1]._w_delta.tobytes()
    assert engines[0].steps.tobytes() == engines[1].steps.tobytes()


@pytest.mark.parametrize("n_lanes", [RECORD_ROWS // 4, 17, RECORD_ROWS + 1],
                         ids=["fill", "cross", "wide"])
def test_learning_lanes_fold_their_records_as_steps_add_them(monkeypatch, n_lanes):
    # every handler call records one row per lane: RECORD_ROWS // 4 lanes
    # fill the records exactly, 17 lanes leave rows over and fold between
    # the calls of a step, and more lanes than RECORD_ROWS fold every call
    assert RECORD_ROWS % 4 == 0 and RECORD_ROWS % 17
    folds, fold = [], event_engine.fold_rank1_raw

    def counting_fold(delta, left, right, work):
        folds.append(len(left))
        fold(delta, left, right, work)

    monkeypatch.setattr(event_engine, "fold_rank1_raw", counting_fold)
    streams = [stream("messy", lane, 24, 12, 0.5) for lane in range(n_lanes)]
    engines = [case_engine("q8.8", 12, 6, learning=True, accumulate_updates=True)
               for _ in range(2)]
    engines[0].run_lanes(streams, 26)
    assert len(folds) > 2 and max(folds) == max(RECORD_ROWS, n_lanes) // n_lanes * n_lanes
    reference = engines[1]
    start = [a.copy() for a in reference.store.arrays()[1:]]
    for packets in streams:
        for a, saved in zip(reference.store.arrays()[1:], start):
            a[:] = saved
        step_by_handlers(reference, packets, 26)
    assert engines[0]._w_delta.any()
    assert engines[0]._w_delta.tobytes() == reference._w_delta.tobytes()
    assert state_bytes(engines[0]) == state_bytes(reference)


# the engines of the layout test: a run that learns into the live weights,
# one whose updates accumulate (in lanes where the engine learns in lanes)
# and a frozen one
LAYOUT_ENGINES = {
    "live-learning": dict(learning=True),
    "accumulating": dict(learning=True, accumulate_updates=True),
    "frozen": dict(),
}


@pytest.mark.parametrize("regime", sorted(LAYOUT_ENGINES))
@pytest.mark.parametrize("case, weights", [
    ("float", None),
    ("float", (-0.25, 0.5, 1.25)),  # outside [w_min, w_max]: clipped at every firing step
    ("q8.8", None),
    ("q3.8-rails", None),
], ids=["float", "float-out-of-range", "q8.8", "q3.8-rails"])
def test_runs_do_not_depend_on_the_weight_layout(case, weights, regime):
    # live weights a caller made column-major give the row-major run's
    # outputs, store and batched deltas bit for bit, through a flush and
    # a second run
    extra = {} if weights is None else dict(weights=weights)
    engines = [case_engine(case, 12, 6, **extra, **LAYOUT_ENGINES[regime]) for _ in range(2)]
    engines[0].store.w = np.ascontiguousarray(engines[0].store.w)
    engines[1].store.w = np.asfortranarray(engines[1].store.w)
    n_lanes = 4 if not engines[0].learning or engines[0].learns_in_lanes else 1
    streams = [stream("messy" if lane % 2 else "grid", lane, 20, 12, 0.6)
               for lane in range(n_lanes)]
    for _ in range(2):
        got, want = [engine.run_lanes(streams, 22) for engine in engines]
        assert_same_runs(got, want)
        assert learned(engines[1]) == learned(engines[0])
        assert state_bytes(engines[1]) == state_bytes(engines[0])
        for engine in engines:
            engine.apply_accumulated_updates()
        assert state_bytes(engines[1]) == state_bytes(engines[0])
    assert engines[1].store.w.flags.f_contiguous


LEARNING_ONLY = [row.name for row in STORE_ARRAYS if row.learning_only]


def set_traces_off_zero(engine, seed):
    """Give every learning-only array values in ``(0, x_max]``, in store
    units."""
    rng = np.random.default_rng(seed)
    for name in LEARNING_ONLY:
        a = getattr(engine.store, name)
        a[:] = [engine.arith.voltage(x) for x in rng.uniform(0.1, engine.trace.x_max, a.size)]


def learning_only_bytes(engine):
    return [getattr(engine.store, name).tobytes() for name in LEARNING_ONLY]


class TestFrozenRunsKeepLearningOnlyState:
    """Only the weight updates read the traces, so a frozen run leaves every
    learning-only array of the store as it was at the call."""

    @pytest.mark.parametrize("n_lanes", [1, 16])
    @pytest.mark.parametrize("case", ["float", "q8.8"])
    def test_frozen_run_leaves_learning_only_arrays_as_they_were(self, case, n_lanes,
                                                                  monkeypatch):
        assert LEARNING_ONLY == ["exc_x", "input_x"]
        engine = case_engine(case, 12, 6)
        set_traces_off_zero(engine, 1)
        before = learning_only_bytes(engine)
        # a frozen run reads and writes the store's own learning-only arrays:
        # it makes no lane copies of them
        shared, fire = [], engine.fire_handler

        def recording_fire():
            shared.extend(np.shares_memory(getattr(engine, f"_{name}"),
                                           getattr(engine.store, name))
                          for name in LEARNING_ONLY)
            return fire()

        monkeypatch.setattr(engine, "fire_handler", recording_fire)
        streams = [stream("messy" if lane % 2 else "grid", lane, 30, 12, 0.6)
                   for lane in range(n_lanes)]
        results = engine.run_lanes(streams, 32)
        assert sum(r.stats.packets_out for r in results) > 0
        assert shared and all(shared)
        assert learning_only_bytes(engine) == before

    @pytest.mark.parametrize("n_lanes", [1, 16])
    @pytest.mark.parametrize("case", ["float", "q8.8"])
    def test_frozen_outputs_do_not_depend_on_the_traces(self, case, n_lanes):
        engines = [case_engine(case, 12, 6) for _ in range(2)]
        set_traces_off_zero(engines[1], 2)
        streams = [stream("grid", lane, 30, 12, 0.5) for lane in range(n_lanes)]
        got, want = [engine.run_lanes(streams, 32) for engine in engines]
        assert_same_runs(got, want)
        for name in ("w", "exc_v", "pending"):
            assert (getattr(engines[0].store, name).tobytes()
                    == getattr(engines[1].store, name).tobytes()), name

    @pytest.mark.parametrize("case, n_lanes, kwargs", [
        ("float", 1, {}),
        ("q8.8", 1, {}),
        ("q8.8", 16, dict(accumulate_updates=True)),
    ], ids=["float-live", "fixed-live", "fixed-accumulating-16"])
    def test_learning_runs_update_the_traces(self, case, n_lanes, kwargs):
        engine = case_engine(case, 12, 6, learning=True, **kwargs)
        set_traces_off_zero(engine, 3)
        before = learning_only_bytes(engine)
        streams = [stream("grid", lane, 30, 12, 0.5) for lane in range(n_lanes)]
        engine.run_lanes(streams, 32)
        after = learning_only_bytes(engine)
        assert all(a != b for a, b in zip(after, before))


# input 0 drives all three neurons over threshold in one step, input 1 only
# neuron 0: an output FIFO of one packet overflows on input 0 alone
OVERFLOW_WEIGHTS = [[2.0, 2.0, 2.0], [2.0, 0.0, 0.0]]


def overflow_error(streams, learning=False, **kwargs):
    """The overflow messages of the lanes and of the streams run one by
    one."""
    outcomes = []
    for runner in (lambda e: e.run_lanes(streams, 12),
                   lambda e: run_one_by_one(e, streams, 12)):
        engine = make_engine(n_input=2, n_exc=3, weights=OVERFLOW_WEIGHTS, w_inh=0.0,
                             learning=learning, fifo_capacity=1, **kwargs)
        with pytest.raises(FifoOverflowError) as info:
            runner(engine)
        outcomes.append(str(info.value))
    return outcomes


OVERFLOW_AT = [
    (None, 9, 2),  # lane 2 overflows first in time, lane 1 is the lowest
    (7, 9, 2),     # lane 0 overflows after the lanes above it
    (None, None, 5),
    (3, None, None),
]


def overflow_streams(overflow_at):
    return [packet_array([1, 0], [1, t]) if t is not None else packet_array([1], [1])
            for t in overflow_at]


# lanes and engine settings of a call that overflows; a live-learning run
# keeps w_max above the rows, so the learning runs fire as the frozen ones
FAILING_RUNS = {
    "1": (1, {}),
    "3": (3, {}),
    "1-live-learning": (1, dict(learning=True, stdp=StdpParams(0.01, 0.005, w_max=2.0))),
    "3-fixed-accumulating": (3, dict(learning=True, numeric=Q8_8, accumulate_updates=True)),
}


def learned(engine):
    """The bytes of the live weights and of the batched deltas, if any."""
    delta = engine._w_delta
    return engine.store.w.tobytes(), None if delta is None else delta.tobytes()


class TestErrorOrder:
    @pytest.mark.parametrize("overflow_at", OVERFLOW_AT)
    def test_fifo_overflow_raises_for_the_lowest_overflowing_lane(self, overflow_at):
        lanes, one_by_one = overflow_error(overflow_streams(overflow_at))
        assert lanes == one_by_one
        lowest = next(t for t in overflow_at if t is not None)
        assert lanes == f"3 neurons fired at step {lowest}, output FIFO holds 1"

    @pytest.mark.parametrize("overflow_at", OVERFLOW_AT)
    def test_fifo_overflow_in_a_learning_chunk_raises_for_the_lowest_lane(self, overflow_at):
        lanes, one_by_one = overflow_error(overflow_streams(overflow_at), learning=True,
                                           numeric=Q8_8, accumulate_updates=True)
        assert lanes == one_by_one
        lowest = next(t for t in overflow_at if t is not None)
        assert lanes == f"3 neurons fired at step {lowest}, output FIFO holds 1"

    @pytest.mark.parametrize("name", list(FAILING_RUNS))
    def test_failing_run_leaves_the_store_as_it_was(self, name):
        # every lane fires neuron 0 alone at step 1, then lane 0 overflows
        # at step 5 and lanes above it at step 7
        n_lanes, kwargs = FAILING_RUNS[name]
        engines = [make_engine(n_input=2, n_exc=3, weights=OVERFLOW_WEIGHTS, w_inh=0.5,
                               fifo_capacity=capacity, **{"learning": False, **kwargs})
                   for capacity in (1, 3)]
        for engine in engines:
            learning, engine.learning = engine.learning, False
            engine.run(packet_array([1, 1], [0, 2]), stop_ts=3)
            engine.learning = learning
        engine = engines[0]
        before = [a.copy() for a in engine.store.arrays()[1:]]
        assert any(a.any() for a in before[1:])
        learned_before = learned(engine)
        streams = [packet_array([1, 0], [1, 7 if lane else 5]) for lane in range(n_lanes)]
        with pytest.raises(FifoOverflowError) as info:
            engine.run_lanes(streams, stop_ts=12)
        assert str(info.value) == "3 neurons fired at step 5, output FIFO holds 1"
        for a, saved in zip(engine.store.arrays()[1:], before):
            assert a.tobytes() == saved.tobytes()
        # a learning run keeps the updates of all its steps, as the same run
        # with room for every fired neuron makes them
        engines[1].run_lanes(streams, stop_ts=12)
        assert learned(engine) == learned(engines[1])
        assert (learned(engine) != learned_before) == engine.learning
        if engine.learning and engine._w_delta is None:
            # potentiation took columns at w_max past it, which the run
            # clips at its end, before it raises
            w = engine.store.w
            assert engine._w_min <= w.min() and w.max() == engine._w_max

    def test_bad_stream_raises_before_any_state_changes(self):
        engine = make_engine(n_input=4, n_exc=3, learning=False)
        engine.run(packet_array([0, 1, 2], [0, 1, 1]), stop_ts=3)
        before = state_bytes(engine)
        backwards = packet_array([0, 1], [4, 2])
        late = packet_array([2], [9])
        streams = [packet_array([0, 3], [0, 5]), backwards, late]
        with pytest.raises(ProtocolError) as info:
            engine.run_lanes(streams, stop_ts=8)
        assert state_bytes(engine) == before
        with pytest.raises(ProtocolError) as alone:
            engine.run(backwards, stop_ts=8)
        assert str(info.value) == str(alone.value)

    def test_learning_runs_one_lane_only(self):
        engine = make_engine(n_input=4, n_exc=3)
        before = state_bytes(engine)
        streams = [packet_array([0], [0]), packet_array([1], [0])]
        with pytest.raises(ValueError, match="one lane"):
            engine.run_lanes(streams, stop_ts=2)
        assert state_bytes(engine) == before
        assert len(engine.run_lanes(streams[:1], stop_ts=2)) == 1

    # float deltas would sum in another order; live weights change within a
    # batch (float live weights: the test above)
    @pytest.mark.parametrize("kwargs", [dict(accumulate_updates=True), dict(numeric=Q8_8)],
                             ids=["float-accumulate", "fixed-live"])
    def test_learning_in_lanes_needs_exactly_summed_deltas(self, kwargs):
        engine = make_engine(n_input=4, n_exc=3, **kwargs)
        assert not engine.learns_in_lanes
        before = state_bytes(engine)
        streams = [packet_array([0], [0]), packet_array([1], [0])]
        with pytest.raises(ValueError, match="one lane"):
            engine.run_lanes(streams, stop_ts=2)
        assert state_bytes(engine) == before
        engine.learning = False
        assert len(engine.run_lanes(streams, stop_ts=2)) == 2


def lane_config(mode):
    return RunConfig(n_input=24, n_exc=10, w_inh=0.3, v_thresh=1.5, timesteps=30,
                     max_rate=0.3, n_classes=3, mode=mode, seed=9)


def lane_samples(n, n_input=24, seed=2):
    rng = np.random.default_rng(seed)
    return [Sample(features=rng.random(n_input), label=k % 3) for k in range(n)]


def label_and_eval(cfg, samples, monkeypatch, reference):
    """Labels, confusion, classified counts, last step record and store of
    a label and an eval pass, with lanes or with the reference."""
    engine = build_engine(cfg)
    if reference:
        def one_by_one(streams, stop_ts):
            # run, which the reference calls, runs its one stream as one lane
            if len(streams) == 1:
                return EventEngine.run_lanes(engine, streams, stop_ts)
            return run_one_by_one(engine, streams, stop_ts)

        monkeypatch.setattr(engine, "run_lanes", one_by_one)
    counts = []
    classify = evaluator.classify

    def recording_classify(c, labels):
        counts.append(c.tobytes())
        return classify(c, labels)

    monkeypatch.setattr(evaluator, "classify", recording_classify)
    labels = assign_labels(engine, samples, cfg, cfg.resolved_n_classes())
    metrics = evaluate(engine, labels, samples[::-1], cfg)
    monkeypatch.undo()
    return (labels.to_dict(), metrics.confusion.tolist(), counts,
            engine.steps.tobytes(), state_bytes(engine))


@pytest.mark.parametrize("mode", ["float", "fixed"])
@pytest.mark.parametrize("n", [1, LANES, LANES + 1, 2 * LANES + 1])
def test_label_and_eval_match_the_reference(mode, n, monkeypatch):
    cfg = lane_config(mode)
    samples = lane_samples(n)
    got = label_and_eval(cfg, samples, monkeypatch, reference=False)
    assert got == label_and_eval(cfg, samples, monkeypatch, reference=True)
    assert len(got[2]) == n



def chunk_sizes(n, batch_size, width):
    """The lane counts of a learning pass over n samples: chunks of up to
    ``width`` that never cross a multiple of ``batch_size``."""
    sizes = []
    for first in range(0, n, batch_size):
        left = min(batch_size, n - first)
        sizes += [min(width, left - k) for k in range(0, left, width)]
    return sizes


@pytest.mark.parametrize("mode", ["float", "fixed"])
@pytest.mark.parametrize("batch_size", [1, 2, 3, 4, 5, 16, 17, 20])
def test_train_pass_matches_the_reference(mode, batch_size, monkeypatch):
    # 23 samples: every batch size leaves a partial last batch, and 20
    # holds more samples than one chunk of LANES
    cfg = lane_config(mode).with_value("batch_size", batch_size).with_value("epochs", 2)
    samples = lane_samples(23)
    engine, reference = build_engine(cfg), build_engine(cfg)
    lanes = []
    run_lanes = engine.run_lanes

    def recording_run_lanes(streams, stop_ts):
        lanes.append(len(streams))
        return run_lanes(streams, stop_ts)

    monkeypatch.setattr(engine, "run_lanes", recording_run_lanes)
    totals = train_pass(engine, samples, cfg)
    assert totals == train_one_by_one(reference, samples, cfg)
    assert store_to_bytes(engine.store) == store_to_bytes(reference.store)
    assert totals["packets_out"] > 0
    width = LANES if mode == "fixed" and batch_size > 1 else 1
    assert engine.learns_in_lanes == (width > 1)
    assert lanes == 2 * chunk_sizes(23, batch_size, width)


def scalar_leak_less_pending(engine, v, pending):
    """What one leak makes of fixed-point voltages ``v`` with ``pending``
    inhibition, by the scalar primitives: the leak toward rest, less the
    pending inhibition (above the floor)."""
    fmt = engine.arith.v_format
    rest = Fixed(engine.arith.voltage(engine.lif.v_rest), fmt)
    decay = DecayParams(tau=engine.lif.tau_v, dt=engine.lif.dt)
    return [fixed_sub(leak_toward(Fixed(int(x), fmt), rest, decay), Fixed(int(p), fmt)).raw
            for x, p in zip(v, pending)]


class TestPendingInhibitionFlag:
    """A leak applies pending inhibition only while some may be queued:
    after a firing step, and after every binding of lane state. A store
    whose pending inhibition is off zero gets it applied at the first leak
    of a run, and at the first leak of a handler call after a run that
    raised."""

    @pytest.mark.parametrize("learning", [False, True])
    def test_float_run_from_pending_off_zero_matches_the_oracle(self, learning):
        # every voltage starts above threshold, and the pending inhibition
        # pulls it below at the first leak: nothing fires at step 0
        for seed in range(4):
            engine = case_engine("float", 12, 6, seed=seed, learning=learning)
            rng = np.random.default_rng(seed)
            engine.store.exc_v[:] = rng.uniform(1.05, 1.15, 6)
            engine.store.pending[:] = rng.uniform(0.2, 0.6, 6)
            oracle = engine.store.copy()
            grid = rng.random((40, 12)) < 0.3
            grid[0] = False
            res = engine.run(grid_to_packets(grid), stop_ts=40)
            out_grid = np.zeros((40, 6), dtype=bool)
            out_grid[res.outputs.timestamp, res.outputs.neuron_id] = True
            ref_grid = dense_simulate(oracle, engine.lif, engine.trace, engine.stdp,
                                      engine.topology, grid, learning=learning)
            assert not out_grid[0].any()
            assert_bit_identical(engine.store, out_grid, oracle, ref_grid, f"seed {seed}")

    @pytest.mark.parametrize("n_lanes", [1, 16])
    def test_fixed_run_from_pending_off_zero(self, n_lanes):
        # every voltage starts above threshold, and the pending inhibition
        # pulls it below at the first leak: no lane fires at step 0
        engines = [case_engine("q8.8", 12, 6) for _ in range(3)]
        ar = engines[0].arith
        v0 = [ar.voltage(x) for x in (1.25, 1.5, 1.1, 1.3, 2.0, 1.05)]
        p0 = [ar.voltage(x) for x in (0.5, 0.75, 0.25, 1.0, 1.5, 0.125)]
        for engine in engines:
            engine.store.exc_v[:] = v0
            engine.store.pending[:] = p0
        streams = [packet_array(ids, ts + 1) for ids, ts in
                   (grid_stream(lane, 20, 12, 0.4) for lane in range(n_lanes))]
        got = engines[0].run_lanes(streams, 24)
        assert_same_runs(got, run_one_by_one(engines[1], streams, 24))
        assert all(0 not in r.outputs.timestamp.tolist() for r in got)
        # the first step alone: the scalar leak toward rest, less pending
        engines[2].run_lanes([packet_array([], [])] * n_lanes, 1)
        assert engines[2].store.exc_v.tolist() == scalar_leak_less_pending(engines[2], v0, p0)
        assert not engines[2].store.pending.any()

    @pytest.mark.parametrize("case", ["float", "q8.8"])
    def test_leak_after_an_overflowing_run_applies_pending(self, case):
        # the run fires at step 0 and is quiet after it, so its last leak
        # found nothing queued; it raises and leaves the store as it was
        engine = make_engine(n_input=2, n_exc=3, weights=OVERFLOW_WEIGHTS, w_inh=0.0,
                             fifo_capacity=1, learning=False, **CASES[case])
        ar = engine.arith
        engine.store.exc_v[:] = [ar.voltage(x) for x in (0.5, -0.25, 0.75)]
        engine.store.pending[:] = [ar.voltage(x) for x in (0.25, 0.5, 0.125)]
        before = engine.store.copy()
        with pytest.raises(FifoOverflowError):
            engine.run(packet_array([0], [0]), stop_ts=4)
        assert engine.store.state_equal(before)
        engine.leak_handler()
        if case == "float":
            oracle = before.copy()
            dense_simulate(oracle, engine.lif, engine.trace, engine.stdp, engine.topology,
                           np.zeros((1, 2), dtype=bool), learning=False)
            want = oracle.exc_v.tolist()
        else:
            want = scalar_leak_less_pending(engine, before.exc_v, before.pending)
        assert engine.store.exc_v.tolist() == want
        assert not engine.store.pending.any()


def test_paper_scale_frozen_ecg_runs_never_saturate_row_by_row(tmp_path, monkeypatch):
    # the bounds of the whole frozen copy are looser than those of one
    # call's rows; at the ecg_fixed config (251 x 100, q8.8) they must still
    # keep every frozen call on the one reduction, or runs slow down unseen
    cfg = RunConfig(dataset="ecg", n_input=ECG_FEATURES, timesteps=100, mode="fixed",
                    batch_size=4, seed=5)
    cfg.validate()
    write_beat_csv(tmp_path / "beats.csv", four_class_beats(n_per_class=10, seed=1))
    samples = load_ecg_beats(tmp_path / "beats.csv")
    engine = build_engine(cfg)
    train_pass(engine, samples[:24], cfg)
    calls = {"add_rows": 0, "saturating": 0}
    arith = type(engine.arith)
    add_rows, saturating = arith.add_rows, arith._add_saturating

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(arith, "add_rows", counting("add_rows", add_rows))
    monkeypatch.setattr(arith, "_add_saturating", counting("saturating", saturating))
    labels = assign_labels(engine, samples[24:32], cfg, cfg.resolved_n_classes())
    evaluate(engine, labels, samples[32:], cfg)
    assert calls["add_rows"] > 100
    assert calls["saturating"] == 0
