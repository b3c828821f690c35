import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from aersnn.numerics import (
    COEF_FORMAT,
    DecayParams,
    Fixed,
    NumericSpec,
    QFormat,
    VOLTAGE_FORMAT,
    WEIGHT_FORMAT,
    convert_raw_array,
    fixed_add,
    fixed_convert,
    fixed_mul,
    fixed_sub,
    leak_decay,
    leak_toward,
    quantize_array,
    to_fixed,
    to_real,
    trunc_shift_raw,
)
from aersnn.numerics import _trunc_shift_int

from oracles import exp_decay_reference

Q8_8 = QFormat(8, 8)
FIXED = NumericSpec(mode="fixed", v_format=Q8_8).arithmetic


class TestQFormat:
    def test_range_q8_8(self):
        assert Q8_8.raw_min == -32768
        assert Q8_8.raw_max == 32767
        assert Q8_8.min_value == -128.0
        assert Q8_8.max_value == 128.0 - 2.0**-8

    def test_invalid_layouts(self):
        with pytest.raises(ValueError):
            QFormat(0, 8)
        with pytest.raises(ValueError):
            QFormat(8, -1)
        with pytest.raises(ValueError):
            QFormat(16, 17)

    def test_descriptor_round_trip(self):
        assert QFormat.from_string("q2.14") == WEIGHT_FORMAT
        assert str(QFormat(8, 8)) == "q8.8"
        with pytest.raises(ValueError):
            QFormat.from_string("8.8")


class TestConversion:
    def test_zero(self):
        assert to_fixed(0.0, Q8_8).raw == 0

    def test_half_in_q8_8(self):
        assert to_fixed(0.5, Q8_8).raw == 128

    def test_saturates_above_range(self):
        # max raw for a 16-bit format is 2**15 - 1
        assert to_fixed(300.0, Q8_8).raw == 32767
        assert to_fixed(-300.0, Q8_8).raw == -32768

    def test_ties_round_away_from_zero(self):
        lsb = Q8_8.lsb
        assert to_fixed(1.5 * lsb, Q8_8).raw == 2
        assert to_fixed(-1.5 * lsb, Q8_8).raw == -2

    @given(st.floats(min_value=-127.9, max_value=127.9))
    def test_round_trip_error_bounded(self, r):
        fx = to_fixed(r, Q8_8)
        assert abs(to_real(fx) - r) <= 2.0 ** (-Q8_8.frac_bits - 1)

    @given(st.floats(min_value=-1.9, max_value=1.9))
    def test_round_trip_error_bounded_q2_14(self, r):
        fx = to_fixed(r, WEIGHT_FORMAT)
        assert abs(to_real(fx) - r) <= 2.0 ** (-WEIGHT_FORMAT.frac_bits - 1)


class TestFixedArithmetic:
    def test_add_sub(self):
        a = to_fixed(1.25, Q8_8)
        b = to_fixed(0.5, Q8_8)
        assert to_real(fixed_add(a, b)) == 1.75
        assert to_real(fixed_sub(a, b)) == 0.75

    def test_saturation_never_wraps(self):
        top = Fixed(Q8_8.raw_max, Q8_8)
        bottom = Fixed(Q8_8.raw_min, Q8_8)
        assert fixed_add(top, top).raw == Q8_8.raw_max
        assert fixed_sub(bottom, top).raw == Q8_8.raw_min
        big = Fixed(WEIGHT_FORMAT.raw_max, WEIGHT_FORMAT)
        assert fixed_mul(big, big, WEIGHT_FORMAT).raw == WEIGHT_FORMAT.raw_max

    def test_mul_truncates_toward_zero(self):
        # 3 lsb * 0.5 = 1.5 lsb, truncation keeps 1 lsb on both signs
        c = to_fixed(0.5, COEF_FORMAT)
        pos = Fixed(3, Q8_8)
        neg = Fixed(-3, Q8_8)
        assert fixed_mul(pos, c, Q8_8).raw == 1
        assert fixed_mul(neg, c, Q8_8).raw == -1

    def test_convert_rounds_to_nearest(self):
        x = Fixed(96, WEIGHT_FORMAT)  # 96 * 2^-14 = 1.5 * 2^-8
        assert fixed_convert(x, Q8_8).raw == 2
        assert fixed_convert(Fixed(-96, WEIGHT_FORMAT), Q8_8).raw == -2

    @given(st.integers(min_value=-32768, max_value=32767),
           st.integers(min_value=-32768, max_value=32767))
    def test_arithmetic_on_extremes_stays_clamped(self, ra, rb):
        a = Fixed(ra, Q8_8)
        b = Fixed(rb, Q8_8)
        for result in (fixed_add(a, b), fixed_sub(a, b), fixed_mul(a, b, Q8_8)):
            assert Q8_8.raw_min <= result.raw <= Q8_8.raw_max


class TestDecayParams:
    def test_rejects_overshooting_step(self):
        with pytest.raises(ValueError):
            DecayParams(tau=1.0, dt=1.0)
        with pytest.raises(ValueError):
            DecayParams(tau=-4.0)
        with pytest.raises(ValueError):
            DecayParams(tau=4.0, dt=0.0)

    def test_power_of_two_tau_is_exact_in_fixed(self):
        p = DecayParams(tau=16.0, dt=1.0)
        assert p.decay_raw() * 16 == 1 << COEF_FORMAT.frac_bits


class TestLeakDecay:
    def test_zero_is_fixed_point(self):
        assert leak_decay(0.0, DecayParams(tau=7.0)) == 0.0

    def test_hand_evaluated_step(self):
        assert leak_decay(8.0, DecayParams(tau=4.0, dt=1.0)) == 6.0

    def test_hand_evaluated_slow_decay(self):
        assert leak_decay(100.0, DecayParams(tau=100.0, dt=1.0)) == 99.0

    def test_fixed_mode_matches_float_on_exact_values(self):
        p = DecayParams(tau=4.0, dt=1.0)
        x = to_fixed(8.0, Q8_8)
        assert to_real(leak_decay(x, p)) == 6.0

    @pytest.mark.parametrize("tau", [10.0, 20.0, 100.0])
    def test_iterative_tracks_exponential(self, tau):
        # After k <= tau steps the iterative kernel stays within dt/tau
        # relative error of the continuous-decay reference.
        p = DecayParams(tau=tau, dt=1.0)
        x = 1.0
        for k in range(1, int(tau) + 1):
            x = leak_decay(x, p)
            ref = exp_decay_reference(1.0, k, tau)
            assert abs(x - ref) / ref <= p.decay


class TestLeakToward:
    def test_rest_is_fixed_point(self):
        p = DecayParams(tau=3.0)
        assert leak_toward(0.25, 0.25, p) == 0.25

    def test_rest_is_fixed_point_in_fixed_mode(self):
        p = DecayParams(tau=3.0)
        rest = to_fixed(0.25, Q8_8)
        assert leak_toward(rest, rest, p).raw == rest.raw

    def test_hand_evaluated_step(self):
        assert leak_toward(1.0, 0.0, DecayParams(tau=100.0, dt=1.0)) == 0.99

    def test_decay_symmetric_about_rest(self):
        assert leak_toward(-0.5, 0.0, DecayParams(tau=2.0, dt=1.0)) == -0.25

    @given(st.floats(min_value=-100.0, max_value=100.0, allow_subnormal=False),
           st.floats(min_value=-10.0, max_value=10.0, allow_subnormal=False),
           st.floats(min_value=1.5, max_value=500.0))
    def test_monotone_contraction_float(self, v, rest, tau):
        # Strict contraction needs the gap to be resolvable in float64;
        # below ~1 ulp the decay step rounds to zero.
        if abs(v - rest) < 1e-9:
            rest = v
        p = DecayParams(tau=tau, dt=1.0)
        out = leak_toward(v, rest, p)
        if v > rest:
            assert rest <= out < v
        elif v < rest:
            assert v < out <= rest

    @given(st.integers(min_value=-32768, max_value=32767),
           st.integers(min_value=2, max_value=500))
    def test_fixed_mode_never_expands(self, raw, tau):
        # Truncation can stall a sub-lsb step, so fixed mode guarantees
        # non-expansion rather than strict contraction.
        p = DecayParams(tau=float(tau), dt=1.0)
        rest = to_fixed(0.0, Q8_8)
        out = leak_toward(Fixed(raw, Q8_8), rest, p)
        if raw >= 0:
            assert 0 <= out.raw <= raw
        else:
            assert raw <= out.raw <= 0


class TestExpDecayReference:
    def test_t_zero_returns_start(self):
        assert exp_decay_reference(3.5, 0, 42.0) == 3.5

    def test_one_time_constant(self):
        assert exp_decay_reference(1.0, 10, 10.0) == pytest.approx(0.367879, abs=1e-6)

    def test_scales_with_start_value(self):
        assert exp_decay_reference(2.0, 40, 20.0) == pytest.approx(0.270671, abs=1e-6)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            exp_decay_reference(1.0, -1, 10.0)
        with pytest.raises(ValueError):
            exp_decay_reference(1.0, 1, 0.0)


class TestRawArrayKernels:
    def test_matches_scalar_leak_decay(self):
        p = DecayParams(tau=6.0, dt=1.0)
        raws = np.array([-32768, -301, -1, 0, 1, 517, 32767], dtype=np.int64)
        out = raws - FIXED.mul_v(raws, FIXED.coef(p.decay))
        for raw, got in zip(raws, out):
            assert got == leak_decay(Fixed(int(raw), Q8_8), p).raw

    def test_matches_scalar_leak_toward(self):
        p = DecayParams(tau=10.0, dt=1.0)
        rest = to_fixed(-1.0, Q8_8)
        raws = np.array([-32768, -300, 0, 250, 32767], dtype=np.int64)
        out = raws - FIXED.mul_v(raws - rest.raw, FIXED.coef(p.decay))
        for raw, got in zip(raws, out):
            assert got == leak_toward(Fixed(int(raw), Q8_8), rest, p).raw

    @given(st.lists(st.one_of(st.integers(-(2**40), 2**40),
                              st.sampled_from([-(2**40), -1, 0, 1, 2**40])),
                    min_size=1, max_size=20),
           st.integers(min_value=-3, max_value=30))
    def test_trunc_shift_matches_scalar(self, products, shift):
        got = trunc_shift_raw(np.array(products, dtype=np.int64), shift)
        assert got.tolist() == [_trunc_shift_int(p, shift) for p in products]

    @given(st.sampled_from([(WEIGHT_FORMAT, VOLTAGE_FORMAT), (VOLTAGE_FORMAT, WEIGHT_FORMAT),
                            (Q8_8, QFormat(3, 8)), (QFormat(3, 8), Q8_8)]),
           st.data())
    def test_convert_raw_array_matches_scalar(self, formats, data):
        src, dst = formats
        raw = st.integers(src.raw_min, src.raw_max)
        rails = st.sampled_from([src.raw_min, src.raw_min + 1, -1, 0, 1, src.raw_max])
        # odd multiples of half the dropped LSB: ties for the rounding
        half = 1 << max(src.frac_bits - dst.frac_bits - 1, 0)
        ties = st.integers(-9, 8).map(lambda m: (2 * m + 1) * half)
        raws = data.draw(st.lists(st.one_of(raw, rails, ties), min_size=1, max_size=20))
        got = convert_raw_array(np.array(raws, dtype=np.int64), src, dst)
        assert got.tolist() == [fixed_convert(Fixed(r, src), dst).raw for r in raws]

    def test_quantize_array_matches_scalar(self):
        vals = np.array([0.0, 0.5, -0.5, 1.0 / 3.0, 300.0, -300.0])
        raws = quantize_array(vals, Q8_8)
        for v, raw in zip(vals, raws):
            assert raw == to_fixed(float(v), Q8_8).raw


class TestNumericSpec:
    def test_mode_validation(self):
        assert not NumericSpec().is_fixed
        assert NumericSpec(mode="fixed").is_fixed
        with pytest.raises(ValueError):
            NumericSpec(mode="double")
