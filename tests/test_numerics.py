import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

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
    fold_rank1_raw,
    fold_work,
    leak_decay,
    leak_toward,
    quantize_array,
    to_fixed,
    to_real,
    trunc_shift_raw,
)
from aersnn.event_engine import RECORD_ROWS
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


Q4_4 = QFormat(4, 4)
Q4_4_ARITH = NumericSpec(mode="fixed", v_format=Q4_4).arithmetic


def add_rows_by_scalars(v, rows, fmt):
    """Lane b, column j: ``v[b, j]`` then ``rows[b, 0, j], rows[b, 1, j],
    ...`` added one at a time by the scalar saturating ``fixed_add``."""
    out = v.copy()
    for b, j in np.ndindex(v.shape):
        x = Fixed(int(v[b, j]), fmt)
        for r in rows[b, :, j].tolist():
            x = fixed_add(x, Fixed(r, fmt))
        out[b, j] = x.raw
    return out


@st.composite
def lane_rows(draw, fmt=Q4_4):
    """``(lanes, n)`` voltages and ``(lanes, K, n)`` rows of 1-16 lanes in
    ``fmt``; a lane's rows past its own count are pad rows of 0. Entries
    are at most ``spread`` from 0, voltages anywhere or within a few rows
    of a rail."""
    lanes, k, n = draw(st.integers(1, 16)), draw(st.integers(1, 12)), draw(st.integers(1, 4))
    spread = draw(st.sampled_from([2, 12, fmt.raw_max]))
    gap = draw(st.integers(0, 4 * spread))
    lo, hi = draw(st.sampled_from([
        (fmt.raw_min, fmt.raw_max),
        (min(fmt.raw_min + gap, fmt.raw_max), min(fmt.raw_min + gap + spread, fmt.raw_max)),
        (max(fmt.raw_max - gap - spread, fmt.raw_min), max(fmt.raw_max - gap, fmt.raw_min)),
    ]))
    v = np.array(draw(st.lists(st.integers(lo, hi), min_size=lanes * n, max_size=lanes * n)),
                 dtype=np.int64).reshape(lanes, n)
    entry = st.integers(max(-spread, fmt.raw_min), spread)
    rows = np.array(draw(st.lists(entry, min_size=lanes * k * n, max_size=lanes * k * n)),
                    dtype=np.int64).reshape(lanes, k, n)
    for b, used in enumerate(draw(st.lists(st.integers(1, k), min_size=lanes,
                                           max_size=lanes))):
        rows[b, used:] = 0
    return v, rows


class TestAddRows:
    def check(self, v, rows):
        want = add_rows_by_scalars(v, rows, Q4_4)
        Q4_4_ARITH.add_rows(v, rows.copy())
        assert v.tolist() == want.tolist()

    @staticmethod
    def bound_holds(v, rows):
        k = rows.shape[1]
        return (v.min() + k * min(rows.min(), 0) >= Q4_4.raw_min
                and v.max() + k * max(rows.max(), 0) <= Q4_4.raw_max)

    @given(lane_rows())
    def test_matches_scalar_saturating_adds(self, case):
        self.check(*case)

    def test_no_saturation_sums_in_one_reduction(self):
        v = np.array([[100, -100, 0], [-110, 110, 5]], dtype=np.int64)
        rows = np.array([[[3, -2, 1], [-2, 2, 0], [0, 0, 0]],
                         [[2, -1, -3], [1, 1, 1], [2, -2, 0]]], dtype=np.int64)
        assert self.bound_holds(v, rows)
        self.check(v, rows)

    def test_sums_that_hit_either_rail(self):
        # lane 0 climbs to the top rail and comes down, lane 1 falls to the
        # bottom rail and comes up, lane 2 needs no saturation
        v = np.array([[120], [-120], [0]], dtype=np.int64)
        rows = np.array([[[10], [10], [-5]], [[-10], [-10], [5]], [[1], [-1], [0]]],
                        dtype=np.int64)
        assert not self.bound_holds(v, rows)
        self.check(v, rows)
        assert v[:, 0].tolist() == [Q4_4.raw_max - 5, Q4_4.raw_min + 5, 0]

    @pytest.mark.parametrize("start, step", [(-110, -10), (110, 10)])
    def test_every_row_counts_toward_the_bound(self, start, step):
        # one row alone stays inside the format, the two together do not
        v = np.array([[start]], dtype=np.int64)
        rows = np.array([[[step], [step]]], dtype=np.int64)
        assert not self.bound_holds(v, rows)
        self.check(v, rows)
        assert v[0, 0] in (Q4_4.raw_min, Q4_4.raw_max)

    @given(lane_rows(), st.integers(0, 3 * Q4_4.raw_max), st.integers(0, 3 * Q4_4.raw_max))
    def test_looser_bounds_give_the_same_sums(self, case, below, above):
        # a run passes bounds of its whole frozen copy, which can only be
        # looser than the rows of one call
        v, rows = case
        own = v.copy()
        Q4_4_ARITH.add_rows(own, rows.copy())
        bounds = (min(rows.min(), 0) - below, max(rows.max(), 0) + above)
        Q4_4_ARITH.add_rows(v, rows.copy(), bounds)
        assert v.tolist() == own.tolist()

    @pytest.mark.parametrize("start, step, loose, loops", [
        # no add saturates, yet the looser bounds reach past a rail: only
        # they take the saturating adds
        (120, 1, (0, 5), 1),
        (-120, -1, (-5, 0), 1),
        # the sums hit a rail: both take them
        (120, 5, (-1, 6), 2),
        (-120, -5, (-6, 1), 2),
    ], ids=["top-loose", "bottom-loose", "top-rail", "bottom-rail"])
    def test_each_branch_near_either_rail(self, start, step, loose, loops, monkeypatch):
        # the rows one at a time through the saturating adds give what the
        # one reduction gives
        taken, saturating = [], type(Q4_4_ARITH)._add_saturating
        monkeypatch.setattr(type(Q4_4_ARITH), "_add_saturating",
                            lambda self, v, rows: taken.append(1) or saturating(self, v, rows))
        v = np.array([[start, start // 2]], dtype=np.int64)
        rows = np.array([[[step, 0], [step, step], [0, step]]], dtype=np.int64)
        assert self.bound_holds(v, rows) == (loops == 1)
        results = []
        for bounds in (None, loose):
            got = v.copy()
            Q4_4_ARITH.add_rows(got, rows.copy(), bounds)
            results.append(got.tolist())
        assert results[0] == results[1] == add_rows_by_scalars(v, rows, Q4_4).tolist()
        assert len(taken) == loops


# the magnitudes of the fold's values against its float64 bound rows * top <
# 2**53: far below it, at its edge from either side, and far above it
FOLD_TOPS = {
    "small": lambda rows: 2**15,
    "edge-below": lambda rows: (2**53 - 1) // rows,
    "edge-above": lambda rows: -(-2**53 // rows),
    "huge": lambda rows: 2**62,
}


@st.composite
def rank1_updates(draw):
    """Steps of 1-16 lanes, each a depression (per lane distinct ids and a
    drop row) or a potentiation (per lane a gain column and fired ids), of
    ``(m, n)`` deltas, with one update per lane and step adding up to a
    row count around ``RECORD_ROWS``. Values are within ``top`` of zero,
    and one of them is ``top`` or ``-top``."""
    m, n, lanes = draw(st.integers(1, 8)), draw(st.integers(1, 6)), draw(st.integers(1, 16))
    steps = draw(st.integers(max(RECORD_ROWS // lanes - 1, 1), RECORD_ROWS // lanes + 2))
    top = FOLD_TOPS[draw(st.sampled_from(sorted(FOLD_TOPS)))](steps * lanes)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    updates = []
    for _ in range(steps):
        depress = bool(rng.integers(2))
        for _ in range(lanes):
            values = rng.integers(-top, top, n if depress else m, endpoint=True)
            chosen = np.flatnonzero(rng.random(m if depress else n) < rng.random())
            updates.append((depress, chosen, values))
    updates[rng.integers(len(updates))][2][0] = top * rng.choice([-1, 1])
    return m, n, updates


class TestFoldRank1:
    @given(rank1_updates(), st.integers(0, 3), st.booleans())
    def test_matches_sequential_int64_updates(self, case, spare_rows, reuse):
        m, n, updates = case
        want = np.zeros((m, n), dtype=np.int64)
        left = np.zeros((len(updates), m), dtype=np.int64)
        right = np.zeros((len(updates), n), dtype=np.int64)
        for row, (depress, chosen, values) in enumerate(updates):
            if depress:
                want[chosen] -= values
                left[row, chosen], right[row] = -1, values
            else:
                want[:, chosen] += values[:, None]
                left[row], right[row, chosen] = values, 1
        got = np.zeros((m, n), dtype=np.int64)
        work = None
        if reuse:
            # work arrays with rows to spare, left over from an earlier fold
            work = fold_work(len(updates) + spare_rows, m, n)
            for a in work:
                a.fill(-7)
        fold_rank1_raw(got, left, right, work)
        assert got.tolist() == want.tolist()

    @pytest.mark.parametrize("rows", [RECORD_ROWS - 1, RECORD_ROWS, RECORD_ROWS + 1])
    def test_sum_past_the_float_bound(self, rows):
        # odd gains whose sum passes 2**53: a float64 sum would round it
        gain = -(-2**53 // rows) | 1
        delta = np.array([[5]], dtype=np.int64)
        fold_rank1_raw(delta, np.full((rows, 1), gain, np.int64), np.ones((rows, 1), np.int64))
        assert delta[0, 0] == 5 + rows * gain


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
    # the engine multiplies by prepared 0-d factors (v_factor, w_factor),
    # so these tests take the same operands
    def test_matches_scalar_leak_decay(self):
        p = DecayParams(tau=6.0, dt=1.0)
        raws = np.array([-32768, -301, -1, 0, 1, 517, 32767], dtype=np.int64)
        out = raws - FIXED.mul_v(raws, FIXED.v_factor(p.decay))
        for raw, got in zip(raws, out):
            assert got == leak_decay(Fixed(int(raw), Q8_8), p).raw

    def test_matches_scalar_leak_toward(self):
        p = DecayParams(tau=10.0, dt=1.0)
        rest = to_fixed(-1.0, Q8_8)
        raws = np.array([-32768, -300, 0, 250, 32767], dtype=np.int64)
        out = raws - FIXED.mul_v(raws - rest.raw, FIXED.v_factor(p.decay))
        for raw, got in zip(raws, out):
            assert got == leak_toward(Fixed(int(raw), Q8_8), rest, p).raw

    @given(st.integers(min_value=-17, max_value=31), st.data())
    def test_trunc_shift_matches_scalar(self, shift, data):
        # the documented domain: |product| <= 2**52, and a left shift's
        # result inside int64
        top = min(2**52, 2**(62 + shift))
        products = data.draw(st.lists(st.one_of(st.integers(-top, top),
                                                st.sampled_from([-top, -1, 0, 1, top])),
                                      min_size=1, max_size=20))
        got = trunc_shift_raw(np.array(products, dtype=np.int64), 2.0 ** -shift)
        assert got.tolist() == [_trunc_shift_int(p, shift) for p in products]

    @pytest.mark.parametrize("top, shifts", [
        # a difference of two 32-bit mantissas times a 16-bit coefficient
        ((2**33 - 1) * (2**16 - 1), range(32)),
        # the documented domain's edge, left shifts staying inside int64
        (2**52, range(-10, 0)),
    ], ids=["extreme-engine-operands", "domain-edge-left-shifts"])
    def test_trunc_shift_at_the_edges(self, top, shifts):
        products = [-top, -top + 1, top - 1, top]
        for shift in shifts:
            got = trunc_shift_raw(np.array(products, dtype=np.int64), 2.0 ** -shift)
            assert got.tolist() == [_trunc_shift_int(p, shift) for p in products], shift

    @given(v_int=st.integers(2, 16), v_frac=st.integers(0, 12), w_frac=st.integers(4, 20),
           coef=st.integers(COEF_FORMAT.raw_min, COEF_FORMAT.raw_max),
           spread=st.lists(st.integers(-2**27, 2**27 - 1), max_size=20))
    @example(v_int=16, v_frac=12, w_frac=20, coef=COEF_FORMAT.raw_min, spread=[])
    @example(v_int=16, v_frac=12, w_frac=4, coef=COEF_FORMAT.raw_max, spread=[])
    @example(v_int=16, v_frac=0, w_frac=20, coef=COEF_FORMAT.raw_max, spread=[])
    def test_one_multiply_products_match_scalar(self, v_int, v_frac, w_frac, coef, spread):
        # w_shift = 14 + v_frac - w_frac runs from -6 through 0 to 22; the
        # 28-bit spread is scaled onto the voltage format, whose rails are
        # always among the mantissas. The factors are prepared from the
        # coefficient's real value, which quantizes back to the mantissa
        arith = NumericSpec(mode="fixed", v_format=QFormat(v_int, v_frac),
                            w_format=QFormat(2, w_frac)).arithmetic
        fmt = arith.v_format
        raws = [fmt.raw_min, -1, 0, 1, fmt.raw_max] + [r >> (28 - fmt.total_bits) for r in spread]
        x = np.array(raws, dtype=np.int64)
        real = coef * COEF_FORMAT.lsb
        assert arith.coef(real) == coef
        c = Fixed(coef, COEF_FORMAT)
        for got, shift, out in ((arith.mul_v(x, arith.v_factor(real)), COEF_FORMAT.frac_bits, fmt),
                                (arith.mul_w(x, arith.w_factor(real)), arith.w_shift,
                                 arith.w_format)):
            assert got.dtype == np.int64
            assert got.tolist() == [_trunc_shift_int(r * coef, shift) for r in raws], shift
            # the scalar product is the same, saturated to its format
            assert np.clip(got, out.raw_min, out.raw_max).tolist() == \
                [fixed_mul(Fixed(r, fmt), c, out).raw for r in raws], shift

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
