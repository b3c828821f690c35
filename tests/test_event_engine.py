import numpy as np
import pytest
from hypothesis import given, strategies as st

from aersnn.event_engine import (
    EventEngine,
    FifoOverflowError,
    ProtocolError,
    PACKET_DTYPE,
    packet_array,
    read_aer_file,
    write_activation_log,
    write_aer_file,
    write_aer_text,
)
from aersnn.numerics import NumericSpec
from aersnn.topology import TopologyParams, build_network

from conftest import (
    GAPPED_FIRED_SETS,
    STILL_LIF,
    STILL_TRACE,
    grid_to_packets,
    make_engine,
)


class TestConstruction:
    def test_store_of_other_size_rejected(self):
        eng = make_engine(n_input=4, n_exc=3)
        store = build_network(TopologyParams(n_input=4, n_exc=2, w_inh=0.5), eng.stdp, seed=7)
        with pytest.raises(ValueError, match="topology"):
            EventEngine(store, eng.lif, eng.trace, eng.stdp, eng.topology)

    def test_store_with_other_rest_rejected(self):
        # samples would start at the store's rest while the engine leaks
        # toward and resets to the other one
        eng = make_engine()
        store = build_network(eng.topology, eng.stdp, seed=7, v_rest=-0.5)
        with pytest.raises(ValueError, match="v_rest"):
            EventEngine(store, eng.lif, eng.trace, eng.stdp, eng.topology)


class TestPacketCodec:
    def test_all_zero_layout(self):
        assert packet_array([0], [0]).tobytes() == bytes(6)

    def test_little_endian_layout(self):
        assert packet_array([5], [3]).tobytes() == bytes([5, 0, 3, 0, 0, 0])

    @given(st.integers(min_value=0, max_value=0xFFFF),
           st.integers(min_value=0, max_value=0xFFFFFFFF))
    def test_round_trip_identity(self, nid, ts):
        p = packet_array([nid], [ts])
        assert np.array_equal(np.frombuffer(p.tobytes(), dtype=PACKET_DTYPE), p)

    def test_decode_rejects_wrong_length(self, tmp_path):
        path = tmp_path / "trace.aer"
        for size in (5, 7):
            path.write_bytes(b"\x00" * size)
            with pytest.raises(ValueError):
                read_aer_file(path)

    def test_field_ranges_enforced(self):
        with pytest.raises(ValueError):
            packet_array([0x10000], [0])
        with pytest.raises(ValueError):
            packet_array([0], [-1])
        with pytest.raises(ValueError):
            packet_array([0], [0x100000000])

    def test_binary_trace_file_round_trip(self, tmp_path):
        packets = packet_array([3, 1, 9], [0, 2, 2])
        path = tmp_path / "trace.aer"
        assert write_aer_file(path, packets) == 3
        assert path.stat().st_size == 6 * 3
        assert np.array_equal(read_aer_file(path), packets)

    def test_text_trace_file_round_trip(self, tmp_path):
        packets = packet_array([3, 1], [0, 2])
        path = tmp_path / "trace.txt"
        write_aer_text(path, packets)
        assert path.read_text() == "0,3\n2,1\n"


class TestEventFifo:
    def test_overflow_raises(self):
        # the output buffer drains every step and holds fifo_capacity packets
        eng = make_engine(n_exc=3, fifo_capacity=2)
        eng.store.exc_v[:] = [1.5, 1.5, 0.0]
        assert eng.fire_handler(0).tolist() == [0, 1]
        eng.store.exc_v[:] = 1.5
        with pytest.raises(FifoOverflowError):
            eng.fire_handler(1)


class TestIntegrateHandler:
    def test_row_integration(self):
        eng = make_engine(n_input=1, n_exc=2, weights=[[0.3, 0.4]])
        eng.integrate_handler(np.array([0]))
        assert eng.store.exc_v.tolist() == [0.3, 0.4]

    def test_zero_weights_still_apply_ltd(self):
        eng = make_engine(n_input=1, n_exc=2, weights=[[0.5, 0.5]])
        eng.store.exc_x[:] = 2.0
        eng.integrate_handler(np.array([0]))
        # depression by alpha_post * x_post = 0.005 * 2
        assert eng.store.w[0].tolist() == [0.49, 0.49]

    def test_inference_mode_keeps_weights_bit_identical(self):
        eng = make_engine(learning=False)
        before = eng.store.w.tobytes()
        eng.store.exc_x[:] = 3.0
        eng.integrate_handler(np.array([2]))
        assert eng.store.w.tobytes() == before
        assert np.any(eng.store.exc_v != 0.0)

    def test_out_of_range_id_dropped_and_counted(self):
        # run drops ids outside the input layer before integrate sees them
        eng = make_engine(n_input=4)
        res = eng.run(packet_array([4], [0]), stop_ts=1)
        assert res.steps["integrated"].tolist() == [0]
        assert res.stats.packets_dropped == 1
        assert res.stats.packets_integrated == 0
        assert np.all(eng.store.exc_v == 0.0)

    def test_repeated_id_integrates_the_depressed_row(self):
        # the second spike of input 0 in the step sees the row after the
        # first spike's depression: v = w + clip(w - a_post * x); the
        # still leak leaves the step's values as integrate left them
        eng = make_engine(n_input=1, n_exc=1, weights=[[0.5]], lif=STILL_LIF,
                          trace=STILL_TRACE)
        eng.store.exc_x[:] = 2.0
        res = eng.run(packet_array([0, 0], [0, 0]), stop_ts=1)
        assert res.steps["integrated"].tolist() == [2]
        depressed = np.clip(0.5 - 0.005 * 2.0, 0.0, 1.0)
        assert eng.store.exc_v[0] == 0.5 + depressed
        assert eng.store.w[0, 0] == np.clip(depressed - 0.005 * 2.0, 0.0, 1.0)
        assert eng.store.input_x[0] == 2.0

    def test_bumps_input_trace_after_ltd(self):
        eng = make_engine(n_input=2, n_exc=1, weights=[[0.5], [0.5]])
        eng.integrate_handler(np.array([1]))
        assert eng.store.input_x.tolist() == [0.0, 1.0]


class TestLeakHandler:
    def test_fresh_store_is_fixed_point(self):
        eng = make_engine()
        before = eng.store.copy()
        eng.leak_handler()
        assert eng.store.state_equal(before)

    def test_decay_then_inhibition(self):
        eng = make_engine(n_exc=3)
        eng.store.exc_v[:] = 1.0
        eng.store.pending[:] = 0.5
        eng.leak_handler()
        assert eng.store.exc_v == pytest.approx([0.49, 0.49, 0.49], abs=1e-12)
        assert np.all(eng.store.pending == 0.0)

    def test_floor_clamps_undershoot(self):
        eng = make_engine(v_floor=-0.2)
        eng.store.exc_v[:] = 0.1
        eng.store.pending[:] = 0.5
        eng.leak_handler()
        assert np.all(eng.store.exc_v == -0.2)

    def test_traces_decay(self):
        eng = make_engine()
        eng.store.exc_x[:] = 8.0
        eng.store.input_x[:] = 4.0
        eng.leak_handler()
        assert eng.store.exc_x == pytest.approx([7.6] * 3)
        assert eng.store.input_x == pytest.approx([3.8] * 4)


class TestFireHandler:
    def test_below_threshold_is_quiet(self):
        eng = make_engine()
        eng.store.exc_v[:] = 0.99
        w_before = eng.store.w.tobytes()
        assert eng.fire_handler(5).size == 0
        assert eng.store.w.tobytes() == w_before

    def test_single_fire_potentiates_own_column_only(self):
        eng = make_engine(n_input=2, n_exc=2, weights=[[0.5, 0.5], [0.5, 0.5]])
        eng.store.input_x[:] = [2.0, 0.0]
        eng.store.exc_v[:] = [1.2, 0.3]
        out = eng.fire_handler(7)
        assert out.tolist() == [0]
        # column 0 gains alpha_pre * x_pre, column 1 untouched
        assert eng.store.w[:, 0].tolist() == [0.52, 0.5]
        assert eng.store.w[:, 1].tolist() == [0.5, 0.5]
        assert eng.store.exc_v[0] == 0.0
        assert eng.store.exc_x[0] == 1.0

    def test_exact_threshold_fires(self):
        eng = make_engine()
        eng.store.exc_v[0] = 1.0
        assert eng.fire_handler(0).tolist() == [0]

    def test_simultaneous_fires_ascending_and_mutual_inhibition(self):
        eng = make_engine(n_exc=3, w_inh=0.5)
        eng.store.exc_v[:] = [1.5, 0.0, 1.2]
        out = eng.fire_handler(4)
        assert out.tolist() == [0, 2]
        assert eng.store.pending.tolist() == [0.5, 1.0, 0.5]


class TestRun:
    def test_empty_input_runs_dry_cycles(self):
        eng = make_engine()
        res = eng.run(packet_array([], []), stop_ts=10)
        assert res.outputs.size == 0
        assert res.stats.timesteps == 10
        assert res.stats.idle_steps == 10

    def test_gap_runs_one_cycle_per_elapsed_step(self):
        eng = make_engine(n_input=1, n_exc=1, weights=[[0.4]], learning=False)
        res = eng.run(packet_array([0, 0], [0, 3]), stop_ts=4)
        # v after t0 leak: 0.4*0.99; two more leaks before t3 integration
        expected = 0.4 * 0.99**3 + 0.4
        expected -= expected * 0.01
        assert res.stats.timesteps == 4
        assert eng.store.exc_v[0] == pytest.approx(expected, abs=1e-12)

    def test_decreasing_timestamp_aborts(self):
        eng = make_engine()
        with pytest.raises(ProtocolError):
            eng.run(packet_array([0, 0], [5, 4]), stop_ts=10)

    def test_rejected_stream_leaves_store_untouched(self):
        eng = make_engine()
        eng.store.exc_v[:] = 0.7
        eng.store.exc_x[:] = 1.5
        before = eng.store.copy()
        with pytest.raises(ProtocolError):
            eng.run(packet_array([0, 1, 2, 3], [0, 5, 4, 6]), stop_ts=10)
        assert eng.store.state_equal(before)

    def test_packet_past_stop_rejected(self):
        eng = make_engine()
        with pytest.raises(ProtocolError):
            eng.run(packet_array([0], [10]), stop_ts=10)

    def test_packet_conservation(self):
        eng = make_engine(n_input=4)
        packets = packet_array([0, 9, 2, 11], [0, 1, 1, 3])
        res = eng.run(packets, stop_ts=5)
        assert res.stats.packets_in == 4
        assert res.stats.packets_integrated + res.stats.packets_dropped == 4
        assert res.stats.packets_dropped == 2

    def test_fsm_phase_order_within_each_step(self, tmp_path):
        eng = make_engine()
        grid = np.zeros((6, 4), dtype=bool)
        grid[0, 1] = grid[2, 0] = grid[2, 3] = True
        res = eng.run(grid_to_packets(grid), stop_ts=6)
        path = tmp_path / "activations.csv"
        write_activation_log(path, res.steps, eng.store.n_exc)
        order = {"integrate": 0, "leak": 1, "fire": 2}
        log = [(int(ts), phase, int(count)) for ts, phase, count in
               (line.split(",") for line in path.read_text().splitlines())]
        by_step = {}
        for ts, phase, _ in log:
            by_step.setdefault(ts, []).append(order[phase])
        for ts, phases in by_step.items():
            assert phases == sorted(phases), f"phase order broken at step {ts}"
        # integration counts land in the right steps
        counts = {ts: c for ts, phase, c in log if phase == "integrate"}
        assert counts[0] == 1 and counts[2] == 2 and counts[1] == 0

    def test_periodic_drive_periodic_output(self):
        # one input firing every step into a 1x1 net with a superthreshold
        # weight: the neuron fires on a fixed cadence
        eng = make_engine(n_input=1, n_exc=1, weights=[[1.5]], w_inh=0.0,
                          learning=False)
        packets = packet_array(np.zeros(20, dtype=int), np.arange(20))
        res = eng.run(packets, stop_ts=20)
        fire_steps = [p.timestamp for p in res.outputs]
        assert fire_steps == list(range(20))

    def test_determinism_bit_identical(self):
        for numeric in (NumericSpec(), NumericSpec(mode="fixed")):
            rng = np.random.default_rng(3)
            grid = rng.random((50, 4)) < 0.3
            runs = []
            for _ in range(2):
                eng = make_engine(seed=11, numeric=numeric)
                res = eng.run(grid_to_packets(grid), stop_ts=50)
                runs.append((res.outputs, eng.store))
            assert np.array_equal(runs[0][0], runs[1][0])
            assert runs[0][1].state_equal(runs[1][1])

    def test_activation_count_linear_in_input_spikes(self):
        # event-driven claim: integrate work scales with input activity,
        # leak+fire work is fixed by the horizon
        totals = {}
        for rate in (0.05, 0.2, 0.4):
            rng = np.random.default_rng(5)
            grid = rng.random((80, 4)) < rate
            eng = make_engine(seed=2, learning=False)
            res = eng.run(grid_to_packets(grid), stop_ts=80)
            totals[rate] = (res.stats, int(grid.sum()))
        for rate, (stats, n_spikes) in totals.items():
            assert stats.packets_integrated == n_spikes
            assert stats.timesteps == 80

    def test_id_repeated_within_a_step_splits_as_in_the_handler(self):
        # run splits a step that repeats an id into runs of distinct ids, so
        # the repeat integrates its row as depressed by the earlier occurrence
        engines = [make_engine(n_input=2, n_exc=1, weights=[[0.5], [0.25]]) for _ in range(2)]
        for eng in engines:
            eng.store.exc_x[:] = 2.0
        engines[0].run(packet_array([1, 0, 1], [0, 0, 0]), stop_ts=1)
        engines[1].integrate_handler(np.array([1, 0]))
        engines[1].integrate_handler(np.array([1]))
        engines[1].leak_handler()
        engines[1].fire_handler(0)
        assert engines[0].store.state_equal(engines[1].store)

    def test_step_record_and_stats_count_by_hand(self):
        # step 0 drops id 9, step 1 drops its only id (idle), step 3 repeats
        # id 2 and fires neuron 0 through the strong row of input 0
        weights = [[1.5, 0.0, 0.0], [0.2, 0.2, 0.2], [0.1, 0.1, 0.1], [0.0, 0.0, 0.0]]
        eng = make_engine(n_input=4, n_exc=3, weights=weights, learning=False)
        res = eng.run(packet_array([1, 9, 7, 2, 0, 2], [0, 0, 1, 3, 3, 3]), stop_ts=5)
        assert res.steps["packets_in"].tolist() == [2, 1, 0, 3, 0]
        assert res.steps["integrated"].tolist() == [1, 0, 0, 3, 0]
        assert res.steps["fired"].tolist() == [0, 0, 0, 1, 0]
        assert res.outputs.tolist() == [(0, 3)]
        assert res.stats.as_dict() == dict(
            packets_in=6, packets_integrated=4, packets_dropped=2, packets_out=1,
            timesteps=5, idle_steps=3)
        assert eng.steps is res.steps

    def test_run_resets_stats_between_calls(self):
        eng = make_engine()
        eng.run(packet_array([0], [0]), stop_ts=2)
        res = eng.run(packet_array([], []), stop_ts=2)
        assert res.stats.packets_in == 0


class TestBatchedUpdates:
    def test_accumulated_deltas_apply_on_flush(self):
        eng = make_engine(n_input=1, n_exc=1, weights=[[0.5]],
                          accumulate_updates=True)
        eng.store.exc_x[:] = 2.0
        eng.integrate_handler(np.array([0]))
        # live weights untouched until the flush
        assert eng.store.w[0, 0] == 0.5
        eng.apply_accumulated_updates()
        assert eng.store.w[0, 0] == pytest.approx(0.49)

    @pytest.mark.parametrize("fired", GAPPED_FIRED_SETS)
    def test_gapped_fire_accumulates_column_by_column(self, fired):
        eng = make_engine(n_input=4, n_exc=10, accumulate_updates=True)
        before = eng.store.w.copy()
        eng.store.input_x[:] = [0.5, 1.0, 1.5, 2.0]
        gain = eng.store.input_x * eng.stdp.alpha_pre
        for times in (1, 2):
            eng.store.exc_v[list(fired)] = eng.lif.v_thresh
            assert eng.fire_handler(0).tolist() == list(fired)
            for j in range(10):
                expected = times * gain if j in fired else np.zeros(4)
                assert eng._w_delta[:, j].tolist() == expected.tolist(), f"column {j}"
        assert eng.store.w.tobytes() == before.tobytes()

    def test_flush_is_noop_without_accumulation(self):
        eng = make_engine()
        before = eng.store.w.tobytes()
        eng.apply_accumulated_updates()
        assert eng.store.w.tobytes() == before
