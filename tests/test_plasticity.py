"""The trace STDP rules, checked on the engine's handlers with one input and
one neuron: integrate depresses the input's row by the neuron's trace,
fire potentiates the neuron's column by the input's trace; and the pair
STDP oracle the trace rule reproduces."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from aersnn.numerics import DecayParams
from aersnn.topology import StdpParams, TraceParams

from conftest import DEFAULT_LIF, make_engine
from oracles import PairStdpParams, SpikeTrain, pair_stdp_delta

P = StdpParams(alpha_pre=0.1, alpha_post=0.1, w_min=0.0, w_max=1.0)


def synapse(w, stdp=P, **kwargs):
    """An engine around one input, one neuron and the weight ``w``."""
    return make_engine(n_input=1, n_exc=1, stdp=stdp, weights=[[w]], **kwargs)


def ltd(eng, x_post):
    """One input spike with the neuron's trace at ``x_post``."""
    eng.store.exc_x[:] = x_post
    eng.integrate_handler(np.array([[0]]))
    return float(eng.store.w[0, 0])


def ltp(eng, x_pre):
    """One firing with the input's trace at ``x_pre``."""
    eng.store.input_x[:] = x_pre
    eng.store.exc_v[:] = eng.lif.v_thresh
    assert eng.fire_handler().tolist() == [0]
    return float(eng.store.w[0, 0])


class TestLtdOnPre:
    def test_zero_trace_is_identity(self):
        assert ltd(synapse(0.5), 0.0) == 0.5

    def test_hand_evaluated(self):
        assert ltd(synapse(0.5), 0.2) == pytest.approx(0.48)

    def test_floor_clamp(self):
        assert ltd(synapse(P.w_min), 5.0) == P.w_min

    @given(st.floats(min_value=0.0, max_value=10.0),
           st.floats(min_value=0.0, max_value=10.0))
    def test_monotone_in_trace(self, xa, xb):
        lo, hi = sorted((xa, xb))
        assert ltd(synapse(0.5), hi) <= ltd(synapse(0.5), lo)


class TestLtpOnPost:
    def test_zero_trace_is_identity(self):
        assert ltp(synapse(0.5), 0.0) == 0.5

    def test_hand_evaluated(self):
        assert ltp(synapse(0.5), 1.0) == pytest.approx(0.6)

    def test_ceiling_clamp(self):
        assert ltp(synapse(P.w_max), 5.0) == P.w_max

    @given(st.floats(min_value=0.0, max_value=10.0),
           st.floats(min_value=0.0, max_value=10.0))
    def test_monotone_in_trace(self, xa, xb):
        lo, hi = sorted((xa, xb))
        assert ltp(synapse(0.5), lo) <= ltp(synapse(0.5), hi)


class TestWeightBounds:
    @given(st.lists(st.tuples(st.sampled_from(["ltd", "ltp"]),
                              st.floats(min_value=0.0, max_value=10.0)),
                    max_size=300))
    def test_any_update_sequence_stays_clamped(self, ops):
        eng = synapse(0.5)
        for kind, trace in ops:
            w = ltd(eng, trace) if kind == "ltd" else ltp(eng, trace)
            assert P.w_min <= w <= P.w_max


class TestPairStdpDelta:
    PAIR = PairStdpParams(a_pre=0.01, a_post=0.01, tau_pre=20.0, tau_post=20.0)

    def test_empty_train_contributes_nothing(self):
        assert pair_stdp_delta(SpikeTrain(()), SpikeTrain((3, 9)), self.PAIR) == 0.0

    def test_causal_pair_potentiates(self):
        delta = pair_stdp_delta(SpikeTrain((0,)), SpikeTrain((10,)), self.PAIR)
        assert delta == pytest.approx(0.0060653, abs=1e-7)

    def test_anticausal_pair_depresses(self):
        delta = pair_stdp_delta(SpikeTrain((10,)), SpikeTrain((0,)), self.PAIR)
        assert delta == pytest.approx(-0.0060653, abs=1e-7)

    def test_coincident_pair_contributes_zero(self):
        assert pair_stdp_delta(SpikeTrain((5,)), SpikeTrain((5,)), self.PAIR) == 0.0

    def test_additive_over_post_partitions(self):
        pre = SpikeTrain((0, 7, 20))
        whole = pair_stdp_delta(pre, SpikeTrain((2, 11, 15, 30)), self.PAIR)
        split = (pair_stdp_delta(pre, SpikeTrain((2, 11)), self.PAIR)
                 + pair_stdp_delta(pre, SpikeTrain((15, 30)), self.PAIR))
        assert whole == pytest.approx(split, abs=1e-15)

    def test_rejects_non_increasing_times(self):
        with pytest.raises(ValueError):
            SpikeTrain((4, 4))


class TestTracePairCorrespondence:
    """A single causal pre/post pair: the engine's trace rule must
    reproduce the pair-based delta. Exactly so under exponential trace
    decay, and within the iterative kernel's dt/tau relative bound under
    the engine's iterative decay."""

    # unit learning rates and bounds the deltas never reach
    RULE = StdpParams(alpha_pre=1.0, alpha_post=1.0, w_min=-10.0, w_max=10.0)

    @pytest.mark.parametrize("tau", [10.0, 20.0, 100.0])
    @pytest.mark.parametrize("gap_frac", [0.1, 0.5, 1.0])
    def test_exponential_decay_matches_exactly(self, tau, gap_frac):
        gap = max(1, int(round(tau * gap_frac)))
        a_pre = 0.01
        pair = PairStdpParams(a_pre=a_pre, a_post=0.01, tau_pre=tau, tau_post=tau)
        expected = pair_stdp_delta(SpikeTrain((0,)), SpikeTrain((gap,)), pair)

        # Trace bumped by alpha = a_pre at the pre spike, decayed
        # exponentially to the post spike, read by LTP with unit rate.
        x_pre = a_pre * math.exp(-gap / tau)
        got = ltp(synapse(0.0, self.RULE), x_pre)
        assert abs(got - expected) <= 1e-12

    @pytest.mark.parametrize("tau", [10.0, 20.0, 100.0])
    def test_iterative_decay_matches_within_bound(self, tau):
        a_pre = 0.01
        pair = PairStdpParams(a_pre=a_pre, a_post=0.01, tau_pre=tau, tau_post=tau)
        decay = DecayParams(tau=tau, dt=1.0)
        trace = TraceParams(tau_x=tau, alpha=a_pre, x_max=1.0, dt=1.0)
        for gap in range(1, int(tau) + 1):
            expected = pair_stdp_delta(SpikeTrain((0,)), SpikeTrain((gap,)), pair)
            # the pre spike bumps the input trace to a_pre, gap leak steps
            # decay it, the post spike potentiates by it
            eng = synapse(0.0, self.RULE, lif=DEFAULT_LIF, trace=trace)
            eng.integrate_handler(np.array([[0]]))
            for _ in range(gap):
                eng.leak_handler()
            eng.store.exc_v[:] = eng.lif.v_thresh
            eng.fire_handler()
            got = float(eng.store.w[0, 0])
            assert abs(got - expected) / abs(expected) <= decay.decay
