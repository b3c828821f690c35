"""The neuron update rules, checked on the engine's handlers one neuron at a
time: integrate adds weight rows, leak decays voltages toward rest and
traces toward zero, fire resets and bumps."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from aersnn.topology import LifParams, TraceParams

from conftest import make_engine

LIF = LifParams(v_rest=0.0, v_thresh=1.0, tau_v=100.0, dt=1.0)
TRACE = TraceParams(tau_x=4.0, alpha=1.0, x_max=10.0, dt=1.0)


def neuron(v=0.0, x=0.0, *, lif=LIF, trace=TRACE, weights=((0.0,),), **kwargs):
    """An engine around one excitatory neuron with voltage ``v`` and
    trace ``x``, fed by one input per row of ``weights``."""
    eng = make_engine(n_input=len(weights), n_exc=1, lif=lif, trace=trace,
                      weights=weights, **kwargs)
    eng.store.exc_v[:] = v
    eng.store.exc_x[:] = x
    return eng


def state(eng):
    return float(eng.store.exc_v[0]), float(eng.store.exc_x[0])


class TestParams:
    def test_threshold_must_exceed_rest(self):
        with pytest.raises(ValueError):
            LifParams(v_rest=0.0, v_thresh=0.0, tau_v=10.0)

    def test_floor_must_not_exceed_rest(self):
        with pytest.raises(ValueError, match="v_floor"):
            LifParams(v_rest=0.0, v_thresh=1.0, tau_v=10.0, v_floor=0.5)
        assert LifParams(v_rest=0.25, v_thresh=1.0, tau_v=10.0, v_floor=0.25).floor == 0.25

    def test_trace_ceiling_must_cover_increment(self):
        with pytest.raises(ValueError):
            TraceParams(tau_x=4.0, alpha=2.0, x_max=1.0)


class TestIntegrate:
    def test_zero_weight_is_identity(self):
        eng = neuron()
        eng.integrate_handler(np.array([[0]]))
        assert state(eng) == (0.0, 0.0)

    def test_sums_activations(self):
        eng = neuron(weights=[[0.3], [0.4]])
        eng.integrate_handler(np.array([[0, 1]]))
        assert eng.store.exc_v[0] == pytest.approx(0.7)

    def test_no_clamp_at_threshold(self):
        eng = neuron(v=0.9, weights=[[0.3]])
        eng.integrate_handler(np.array([[0]]))
        assert eng.store.exc_v[0] == pytest.approx(1.2)

    def test_trace_untouched(self):
        eng = neuron(x=2.5, weights=[[1.0]])
        eng.integrate_handler(np.array([[0]]))
        assert eng.store.exc_x[0] == 2.5


class TestLeakState:
    def test_joint_fixed_point(self):
        eng = neuron(v=LIF.v_rest, x=0.0)
        eng.leak_handler()
        assert state(eng) == (LIF.v_rest, 0.0)

    def test_hand_evaluated_step(self):
        eng = neuron(v=1.0, x=8.0)
        eng.leak_handler()
        assert state(eng) == (0.99, 6.0)

    def test_tau_v_steps_approach_exponential(self):
        eng = neuron(v=1.0)
        for _ in range(int(LIF.tau_v)):
            eng.leak_handler()
        assert math.exp(-1) - 0.05 <= eng.store.exc_v[0] <= math.exp(-1) + 0.05

    @given(st.floats(min_value=-50.0, max_value=50.0, allow_subnormal=False))
    def test_voltage_strictly_approaches_rest(self, v):
        if abs(v - LIF.v_rest) < 1e-9:
            return
        # a floor below every drawn voltage, so only the decay acts
        eng = neuron(v=v, lif=replace(LIF, v_floor=-100.0))
        eng.leak_handler()
        assert abs(eng.store.exc_v[0] - LIF.v_rest) < abs(v - LIF.v_rest)


class TestFireCheck:
    def test_below_threshold_unchanged(self):
        eng = neuron(v=LIF.v_thresh - 1e-9, x=0.5)
        assert eng.fire_handler().size == 0
        assert state(eng) == (LIF.v_thresh - 1e-9, 0.5)

    def test_threshold_crossing_resets_and_bumps(self):
        eng = neuron(v=1.2, x=0.5)
        assert eng.fire_handler().tolist() == [0]
        assert state(eng) == (LIF.v_rest, 1.5)

    def test_boundary_is_inclusive(self):
        eng = neuron(v=LIF.v_thresh)
        assert eng.fire_handler().tolist() == [0]

    def test_idempotent_when_silent(self):
        eng = neuron(v=0.3, x=0.3)
        before = eng.store.copy()
        for _ in range(2):
            assert eng.fire_handler().size == 0
            assert eng.store.state_equal(before)

    def test_reset_is_exact(self):
        eng = neuron(v=7.77)
        eng.fire_handler()
        assert eng.store.exc_v[0] == LIF.v_rest


class TestBumpTrace:
    # an input spike bumps its input trace as a firing bumps the neuron's
    def test_from_zero(self):
        eng = neuron()
        eng.integrate_handler(np.array([[0]]))
        assert eng.store.input_x[0] == 1.0

    def test_ceiling_clamp(self):
        eng = neuron()
        eng.store.input_x[:] = 9.5
        eng.integrate_handler(np.array([[0]]))
        assert eng.store.input_x[0] == 10.0

    def test_bump_bump_leak_sequence(self):
        eng = neuron(trace=TraceParams(tau_x=2.0, alpha=1.0, x_max=10.0, dt=1.0))
        eng.integrate_handler(np.array([[0]]))
        eng.integrate_handler(np.array([[0]]))
        assert eng.store.input_x[0] == 2.0
        eng.leak_handler()
        assert eng.store.input_x[0] == 1.0

    @given(st.lists(st.sampled_from(["bump", "leak", "fire"]), max_size=200))
    def test_trace_stays_in_bounds_under_any_interleaving(self, ops):
        eng = neuron()
        for op in ops:
            if op == "bump":
                eng.integrate_handler(np.array([[0]]))
            elif op == "fire":
                eng.store.exc_v[:] = LIF.v_thresh
                eng.fire_handler()
            else:
                eng.leak_handler()
            for x in (eng.store.input_x[0], eng.store.exc_x[0]):
                assert 0.0 <= x <= TRACE.x_max
