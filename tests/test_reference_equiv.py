"""Event-driven engine vs dense reference: bit-for-bit agreement in float
mode over randomized networks, inputs, and parameters."""

import ast
from pathlib import Path

import numpy as np
import pytest

from aersnn import reference_sim
from aersnn.event_engine import EventEngine
from aersnn.numerics import NumericSpec
from aersnn.reference_sim import dense_simulate
from aersnn.topology import LifParams, StdpParams, TopologyParams, TraceParams, build_network

from conftest import GAPPED_FIRED_SETS, grid_to_packets, make_engine


def random_case(rng):
    n_input = int(rng.integers(1, 11))
    n_exc = int(rng.integers(1, 6))
    steps = int(rng.integers(1, 201))
    lif = LifParams(
        v_rest=float(rng.uniform(-0.5, 0.5)),
        v_thresh=float(rng.uniform(0.6, 3.0)),
        tau_v=float(rng.uniform(2.0, 200.0)),
        dt=1.0,
    )
    alpha = float(rng.uniform(0.1, 2.0))
    trace = TraceParams(
        tau_x=float(rng.uniform(2.0, 200.0)),
        alpha=alpha,
        x_max=float(rng.uniform(alpha, 4 * alpha)),
        dt=1.0,
    )
    stdp = StdpParams(
        alpha_pre=float(rng.uniform(0.001, 0.2)),
        alpha_post=float(rng.uniform(0.001, 0.2)),
        w_min=0.0,
        w_max=1.0,
    )
    topology = TopologyParams(
        n_input=n_input, n_exc=n_exc, w_inh=float(rng.uniform(0.0, 1.0))
    )
    grid = rng.random((steps, n_input)) < rng.uniform(0.0, 0.5)
    learning = bool(rng.integers(0, 2))
    seed = int(rng.integers(0, 2**31))
    return lif, trace, stdp, topology, grid, learning, seed


def run_both(lif, trace, stdp, topology, grid, learning, seed):
    numeric = NumericSpec()
    engine_store = build_network(topology, stdp, seed=seed, numeric=numeric,
                                 v_rest=lif.v_rest)
    oracle_store = build_network(topology, stdp, seed=seed, numeric=numeric,
                                 v_rest=lif.v_rest)
    engine = EventEngine(engine_store, lif, trace, stdp, topology,
                         learning=learning)
    res = engine.run(grid_to_packets(grid), stop_ts=grid.shape[0])
    out_grid = np.zeros((grid.shape[0], topology.n_exc), dtype=bool)
    for p in res.outputs:
        out_grid[p.timestamp, p.neuron_id] = True
    ref_grid = dense_simulate(oracle_store, lif, trace, stdp, topology, grid,
                              learning=learning)
    return engine_store, out_grid, oracle_store, ref_grid


def run_both_on(engine_store, oracle_store, lif, trace, stdp, topology, grid):
    """Engine and oracle from two given stores; returns the engine's output
    packets and the arguments of ``assert_bit_identical``."""
    res = EventEngine(engine_store, lif, trace, stdp, topology).run(
        grid_to_packets(grid), stop_ts=grid.shape[0])
    out_grid = np.zeros((grid.shape[0], topology.n_exc), dtype=bool)
    out_grid[res.outputs.timestamp, res.outputs.neuron_id] = True
    ref_grid = dense_simulate(oracle_store, lif, trace, stdp, topology, grid)
    return res.outputs, (engine_store, out_grid, oracle_store, ref_grid)


def assert_bit_identical(engine_store, out_grid, oracle_store, ref_grid, label=""):
    assert np.array_equal(out_grid, ref_grid), f"{label}: output spikes differ"
    assert engine_store.w.tobytes() == oracle_store.w.tobytes(), f"{label}: weights"
    assert engine_store.exc_v.tobytes() == oracle_store.exc_v.tobytes(), f"{label}: voltages"
    assert engine_store.exc_x.tobytes() == oracle_store.exc_x.tobytes(), f"{label}: exc traces"
    assert engine_store.input_x.tobytes() == oracle_store.input_x.tobytes(), f"{label}: input traces"
    assert engine_store.pending.tobytes() == oracle_store.pending.tobytes(), f"{label}: pending"


class TestDenseReferenceBasics:
    def test_zero_input_decays_to_quiet(self):
        eng = make_engine()
        store = eng.store
        store.exc_v[:] = 0.9
        grid = np.zeros((400, 4), dtype=bool)
        out = dense_simulate(store, eng.lif, eng.trace, eng.stdp, eng.topology, grid)
        assert not out.any()
        assert np.all(np.abs(store.exc_v) < 0.02)

    def test_single_step_threshold_crossing(self):
        # superthreshold weight, effectively leak-free horizon
        lif = LifParams(v_rest=0.0, v_thresh=1.0, tau_v=1e18, dt=1.0)
        eng = make_engine(n_input=1, n_exc=1, weights=[[1.0]], lif=lif,
                          learning=False)
        grid = np.array([[True], [False]])
        out = dense_simulate(eng.store, lif, eng.trace, eng.stdp, eng.topology,
                             grid, learning=False)
        assert out[0, 0]
        assert not out[1, 0]

    def test_learning_disabled_never_touches_weights(self):
        eng = make_engine()
        before = eng.store.w.tobytes()
        rng = np.random.default_rng(0)
        grid = rng.random((100, 4)) < 0.4
        dense_simulate(eng.store, eng.lif, eng.trace, eng.stdp, eng.topology,
                       grid, learning=False)
        assert eng.store.w.tobytes() == before

    def test_rejects_fixed_mode_store(self):
        eng = make_engine(numeric=NumericSpec(mode="fixed"))
        with pytest.raises(ValueError):
            dense_simulate(eng.store, eng.lif, eng.trace, eng.stdp, eng.topology,
                           np.zeros((5, 4), dtype=bool))

    def test_rejects_mismatched_grid(self):
        eng = make_engine()
        with pytest.raises(ValueError):
            dense_simulate(eng.store, eng.lif, eng.trace, eng.stdp, eng.topology,
                           np.zeros((5, 9), dtype=bool))


class TestEngineMatchesDense:
    def test_fuzz_cases_bit_identical(self):
        rng = np.random.default_rng(20240817)
        for case in range(60):
            params = random_case(rng)
            assert_bit_identical(*run_both(*params), label=f"case {case}")

    def test_frozen_runs_keep_traces_off_zero(self):
        # only the weight updates read the traces: with learning off, both
        # the oracle and the engine leave them as they were at the call
        rng = np.random.default_rng(20261019)
        fired = 0
        for case in range(30):
            lif, trace, stdp, topology, grid, _, seed = random_case(rng)
            stores = [build_network(topology, stdp, seed=seed, v_rest=lif.v_rest)
                      for _ in range(2)]
            traces = [rng.uniform(0.1, trace.x_max, n)
                      for n in (topology.n_exc, topology.n_input)]
            for store in stores:
                store.exc_x[:], store.input_x[:] = traces
            engine = EventEngine(stores[0], lif, trace, stdp, topology, learning=False)
            res = engine.run(grid_to_packets(grid), stop_ts=grid.shape[0])
            out_grid = np.zeros((grid.shape[0], topology.n_exc), dtype=bool)
            out_grid[res.outputs.timestamp, res.outputs.neuron_id] = True
            ref_grid = dense_simulate(stores[1], lif, trace, stdp, topology, grid,
                                      learning=False)
            assert stores[1].exc_x.tobytes() == traces[0].tobytes(), f"case {case}"
            assert stores[1].input_x.tobytes() == traces[1].tobytes(), f"case {case}"
            assert_bit_identical(stores[0], out_grid, stores[1], ref_grid, label=f"case {case}")
            fired += int(ref_grid.sum())
        assert fired > 0

    def test_dense_grid_heavy_learning(self):
        # every input firing every step, learning on: maximal interaction
        # between depression, potentiation, and lateral inhibition
        lif = LifParams(v_rest=0.0, v_thresh=0.8, tau_v=10.0, dt=1.0)
        trace = TraceParams(tau_x=5.0, alpha=1.0, x_max=3.0, dt=1.0)
        stdp = StdpParams(alpha_pre=0.1, alpha_post=0.1)
        topology = TopologyParams(n_input=6, n_exc=4, w_inh=0.4)
        grid = np.ones((120, 6), dtype=bool)
        assert_bit_identical(
            *run_both(lif, trace, stdp, topology, grid, True, seed=5),
            label="dense grid",
        )

    @pytest.mark.parametrize("fired", GAPPED_FIRED_SETS)
    def test_gapped_fired_set(self, fired):
        # step 0 fires exactly ``fired``: potentiation must reach those
        # columns and no column in the gaps between them
        lif = LifParams(v_rest=0.0, v_thresh=1.0, tau_v=20.0, dt=1.0)
        trace = TraceParams(tau_x=10.0, alpha=0.5, x_max=2.0, dt=1.0)
        stdp = StdpParams(alpha_pre=0.2, alpha_post=0.05)
        topology = TopologyParams(n_input=6, n_exc=10, w_inh=0.3)
        grid = np.random.default_rng(sum(fired)).random((30, 6)) < 0.3
        grid[0] = False
        stores = [build_network(topology, stdp, seed=3) for _ in range(2)]
        for store in stores:
            store.w[:, ::3] = 0.99  # potentiation clips these at w_max
            store.exc_v[list(fired)] = 3.0
            store.input_x[:] = np.linspace(0.1, 1.5, 6)
        outputs, both = run_both_on(*stores, lif, trace, stdp, topology, grid)
        assert outputs.neuron_id[outputs.timestamp == 0].tolist() == list(fired)
        assert_bit_identical(*both, label=str(fired))

    def test_weights_outside_the_bounds_clip_on_both_sides(self):
        # a checkpoint trained under other bounds: depression pulls weights
        # above w_max down to it and potentiation lifts those below w_min.
        # Only neuron 1 fires, at step 0 before any input, so potentiation
        # meets its column unclipped; the other columns see depression alone.
        lif = LifParams(v_rest=0.0, v_thresh=50.0, tau_v=10.0, dt=1.0)
        trace = TraceParams(tau_x=5.0, alpha=1.0, x_max=3.0, dt=1.0)
        stdp = StdpParams(alpha_pre=0.1, alpha_post=0.1)
        topology = TopologyParams(n_input=6, n_exc=4, w_inh=0.4)
        grid = np.ones((3, 6), dtype=bool)
        grid[0] = False
        stores = [build_network(topology, stdp, seed=4) for _ in range(2)]
        for store in stores:
            store.w[::2] = 1.4
            store.w[1::2] = -0.3
            store.exc_x[:] = 1.0
            store.exc_v[1] = 100.0
        outputs, both = run_both_on(*stores, lif, trace, stdp, topology, grid)
        assert outputs.neuron_id.tolist() == [1]
        assert_bit_identical(*both, label="out of bounds")
        assert 0.0 <= stores[0].w.min() and stores[0].w.max() <= 1.0

    def test_paper_density_fuzz(self):
        # 784 x 100 (and 784 x 1) with 8 to 100 input spikes per step: long
        # row sums, where a pairwise reduction would round differently
        rng = np.random.default_rng(20260917)
        for case, n_exc in enumerate((100, 100, 100, 100, 1, 1)):
            steps = 20
            grid = np.zeros((steps, 784), dtype=bool)
            for t in range(steps):
                grid[t, rng.choice(784, int(rng.integers(8, 101)), replace=False)] = True
            lif = LifParams(v_rest=float(rng.uniform(-0.5, 0.5)),
                            # a lone neuron must not reset every step,
                            # which would hide voltage rounding
                            v_thresh=float(rng.uniform(5.0, 30.0) * (10 if n_exc == 1 else 1)),
                            tau_v=float(rng.uniform(20.0, 200.0)), dt=1.0)
            trace = TraceParams(tau_x=float(rng.uniform(5.0, 50.0)), alpha=1.0,
                                x_max=4.0, dt=1.0)
            stdp = StdpParams(alpha_pre=float(rng.uniform(0.001, 0.05)),
                              alpha_post=float(rng.uniform(0.001, 0.05)))
            topology = TopologyParams(n_input=784, n_exc=n_exc,
                                      w_inh=float(rng.uniform(0.0, 2.0)))
            assert_bit_identical(
                *run_both(lif, trace, stdp, topology, grid, case % 2 == 0,
                          seed=int(rng.integers(0, 2**31))),
                label=f"paper density case {case}",
            )

    @pytest.mark.parametrize("w_min, w_max", [(0.0, 1.0), (-1.0, 0.0)])
    def test_signed_zero_weights_keep_their_sign(self, w_min, w_max):
        # -0.0 weights sit on a bound of 0.0: the oracle's np.clip keeps
        # them as they are, and so must depression's clip, the clip of the
        # rows integrate reads and the clip at the end of the run. Inputs
        # 0-29 spike twice, 30-39 never; no neuron fires.
        lif = LifParams(v_rest=0.0, v_thresh=1.0, tau_v=10.0, dt=1.0)
        trace = TraceParams(tau_x=5.0, alpha=1.0, x_max=3.0, dt=1.0)
        stdp = StdpParams(alpha_pre=0.1, alpha_post=0.1, w_min=w_min, w_max=w_max)
        topology = TopologyParams(n_input=40, n_exc=40, w_inh=0.4)
        grid = np.zeros((3, 40), dtype=bool)
        grid[:2, :30] = True
        stores = [build_network(topology, stdp, seed=2) for _ in range(2)]
        for store in stores:
            store.w[:] = -0.0
        outputs, both = run_both_on(*stores, lif, trace, stdp, topology, grid)
        assert outputs.size == 0
        assert_bit_identical(*both, label="signed zero")
        assert np.signbit(stores[0].w).all()

    @pytest.mark.parametrize("learning", [True, False])
    def test_negative_zero_rest_keeps_its_sign(self, learning):
        # a leak toward +0.0 may skip v - rest, one toward -0.0 may not:
        # -0.0 - (-0.0) is +0.0. Four inputs fire the neuron at step 2, it
        # resets to -0.0, and the quiet steps after must leave it there
        lif = LifParams(v_rest=-0.0, v_thresh=1.0, tau_v=10.0, dt=1.0)
        trace = TraceParams(tau_x=5.0, alpha=1.0, x_max=3.0, dt=1.0)
        stdp = StdpParams(alpha_pre=0.1, alpha_post=0.1)
        topology = TopologyParams(n_input=4, n_exc=1, w_inh=0.4)
        grid = np.zeros((5, 4), dtype=bool)
        grid[2] = True
        stores = [build_network(topology, stdp, seed=1, v_rest=-0.0) for _ in range(2)]
        for store in stores:
            store.w[:] = 0.5
        res = EventEngine(stores[0], lif, trace, stdp, topology, learning=learning).run(
            grid_to_packets(grid), stop_ts=5)
        assert res.outputs.timestamp.tolist() == [2]
        out_grid = np.zeros((5, 1), dtype=bool)
        out_grid[2, 0] = True
        ref_grid = dense_simulate(stores[1], lif, trace, stdp, topology, grid,
                                  learning=learning)
        assert_bit_identical(stores[0], out_grid, stores[1], ref_grid, label="rest -0.0")
        assert stores[0].exc_v.tolist() == [0.0] and np.signbit(stores[0].exc_v).all()

    def test_potentiation_past_w_max_then_depression(self):
        # weights at and just below w_max: inputs 0-2 make every neuron
        # fire in steps 0-4, each firing potentiating every column past
        # w_max, inputs 3-5 fire only from step 5 on, so their rows are
        # read and depressed after five potentiations
        lif = LifParams(v_rest=0.0, v_thresh=0.8, tau_v=10.0, dt=1.0)
        trace = TraceParams(tau_x=5.0, alpha=1.0, x_max=3.0, dt=1.0)
        stdp = StdpParams(alpha_pre=0.05, alpha_post=0.02)
        topology = TopologyParams(n_input=6, n_exc=4, w_inh=0.1)
        grid = np.zeros((9, 6), dtype=bool)
        grid[:5, :3] = True
        grid[5:, 3:] = True
        stores = [build_network(topology, stdp, seed=6) for _ in range(2)]
        for store in stores:
            store.w[:] = np.linspace(0.97, 1.0, store.w.size).reshape(store.w.shape)
            store.input_x[3:] = [0.5, 1.0, 2.0]
        outputs, both = run_both_on(*stores, lif, trace, stdp, topology, grid)
        assert np.unique(outputs.timestamp[outputs.neuron_id == 0]).size >= 5
        assert_bit_identical(*both, label="past w_max")
        assert (stores[0].w == 1.0).any() and stores[0].w.max() <= 1.0

    def test_negative_input_trace_potentiates_below_w_min(self):
        # a store whose input 0 has a negative trace (not one this engine
        # makes): every neuron fires at step 0, before any input, and
        # potentiation pulls row 0 below w_min; input 0 never spikes, so
        # only the clip at each firing brings it back
        lif = LifParams(v_rest=0.0, v_thresh=1.0, tau_v=10.0, dt=1.0)
        trace = TraceParams(tau_x=5.0, alpha=1.0, x_max=3.0, dt=1.0)
        stdp = StdpParams(alpha_pre=0.1, alpha_post=0.05)
        topology = TopologyParams(n_input=5, n_exc=3, w_inh=0.2)
        grid = np.zeros((6, 5), dtype=bool)
        grid[2:, 1:] = True
        stores = [build_network(topology, stdp, seed=8) for _ in range(2)]
        for store in stores:
            store.w[0] = 0.01
            store.w[1:] = 0.98
            store.input_x[:] = [-2.0, 0.5, 1.0, 1.5, 2.0]
            store.exc_v[:] = 5.0
        outputs, both = run_both_on(*stores, lif, trace, stdp, topology, grid)
        assert outputs.neuron_id[outputs.timestamp == 0].tolist() == [0, 1, 2]
        assert_bit_identical(*both, label="negative trace")
        assert (stores[0].w[0] == 0.0).all() and stores[0].w.max() <= 1.0

    def test_fire_handler_outside_a_run_clips(self):
        # a handler called outside a run potentiates the store's weights
        # and clips them at once, as no run end follows
        engine = make_engine(n_input=4, n_exc=3, weights=np.full((4, 3), 0.99))
        store = engine.store
        store.input_x[:] = [0.0, 0.5, 1.0, 2.0]
        store.exc_v[:] = [5.0, 0.0, 5.0]
        fired = engine.fire_handler()
        assert fired.tolist() == [0, 2]
        want = np.full((4, 3), 0.99)
        want[:, [0, 2]] = np.clip(0.99 + engine.stdp.alpha_pre * store.input_x[:, None],
                                  engine.stdp.w_min, engine.stdp.w_max)
        assert store.w.tobytes() == want.tobytes()
        assert store.w.max() == engine.stdp.w_max


def test_the_oracle_imports_nothing_of_the_engine():
    # an oracle that ran engine code could share its faults
    tree = ast.parse(Path(reference_sim.__file__).read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["aersnn" if node.level else "", node.module]))
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    assert "aersnn.topology" in names
    assert not [name for name in names if name.split(".")[:2] == ["aersnn", "event_engine"]]
