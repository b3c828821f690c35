"""Q-format fixed-point values and the discrete iterative leak kernels.

Every stateful quantity in this package is computed in one of two numeric
modes:

* ``float`` mode: plain IEEE-754 float64. This is the reference mode; the
  dense simulator and all oracle tests run here.
* ``fixed`` mode: two's-complement integer mantissas in a declared Q-format,
  modeling the hardware datapath. Additions saturate at the format bounds
  (never wrap), multiplications truncate toward zero (the hardware's
  shift; arrays scale by an exact power of two in float64), and
  real-to-fixed conversion rounds to nearest with ties away from zero.

The per-step leak is the iterative form

    x' = x - x * (dt / tau)            decay toward zero
    v' = v - (v - rest) * (dt / tau)   decay toward a rest level

with ``dt / tau`` computed once per parameter set. Division by tau never
happens at update time: the quotient is a precomputed multiplier, quantized
to ``COEF_FORMAT`` in fixed mode, so a power-of-two tau is exact. The float
expressions above are normative. Any independent implementation that must
agree with this module bit-for-bit (see the dense reference simulator) has
to evaluate exactly these operations in this order.

The scalar kernels accept floats, float arrays and ``Fixed`` values. The
engine and the store hold one arithmetic object instead, picked once by
``NumericSpec.arithmetic``: ``FloatArithmetic`` or ``FixedArithmetic``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class QFormat:
    """Bit layout of a fixed-point value: ``int_bits`` (sign included) and
    ``frac_bits``. Real value of a mantissa ``raw`` is ``raw * 2**-frac_bits``;
    the representable range is [-2**(int_bits-1), 2**(int_bits-1) - 2**-frac_bits].
    """

    int_bits: int
    frac_bits: int

    def __post_init__(self) -> None:
        if self.int_bits < 1:
            raise ValueError(f"int_bits must be >= 1, got {self.int_bits}")
        if self.frac_bits < 0:
            raise ValueError(f"frac_bits must be >= 0, got {self.frac_bits}")
        if self.int_bits + self.frac_bits > 32:
            raise ValueError(
                f"total width {self.int_bits + self.frac_bits} exceeds 32 bits"
            )

    @property
    def total_bits(self) -> int:
        return self.int_bits + self.frac_bits

    @property
    def raw_min(self) -> int:
        return -(1 << (self.total_bits - 1))

    @property
    def raw_max(self) -> int:
        return (1 << (self.total_bits - 1)) - 1

    @property
    def lsb(self) -> float:
        return 2.0 ** -self.frac_bits

    @property
    def min_value(self) -> float:
        return self.raw_min * self.lsb

    @property
    def max_value(self) -> float:
        return self.raw_max * self.lsb

    @classmethod
    def from_string(cls, text: str) -> "QFormat":
        """Parse a ``"q<int>.<frac>"`` descriptor, e.g. ``"q8.8"``."""
        s = text.strip().lower()
        if not s.startswith("q") or "." not in s:
            raise ValueError(f"bad Q-format descriptor {text!r}, expected e.g. 'q8.8'")
        int_part, frac_part = s[1:].split(".", 1)
        try:
            return cls(int(int_part), int(frac_part))
        except ValueError as exc:
            raise ValueError(f"bad Q-format descriptor {text!r}: {exc}") from exc

    def __str__(self) -> str:
        return f"q{self.int_bits}.{self.frac_bits}"


#: Default format for membrane voltages and activity traces (16 bit).
VOLTAGE_FORMAT = QFormat(8, 8)
#: Default format for synapse weights and unit-range coefficients (16 bit).
WEIGHT_FORMAT = QFormat(2, 14)
#: Format of precomputed decay multipliers and learning-rate coefficients.
COEF_FORMAT = QFormat(2, 14)


@dataclass(frozen=True)
class Fixed:
    """A fixed-point value: signed mantissa plus its format."""

    raw: int
    fmt: QFormat

    def __post_init__(self) -> None:
        if not self.fmt.raw_min <= self.raw <= self.fmt.raw_max:
            raise ValueError(
                f"raw {self.raw} outside {self.fmt} range "
                f"[{self.fmt.raw_min}, {self.fmt.raw_max}]"
            )


def _clamp_int(raw: int, fmt: QFormat) -> int:
    if raw > fmt.raw_max:
        return fmt.raw_max
    if raw < fmt.raw_min:
        return fmt.raw_min
    return raw


def _round_half_away(scaled: float) -> int:
    if scaled >= 0.0:
        return math.floor(scaled + 0.5)
    return math.ceil(scaled - 0.5)


def _trunc_shift_int(product: int, shift: int) -> int:
    """Shift right by ``shift`` truncating toward zero (scalar ints)."""
    if shift <= 0:
        return product << (-shift)
    if product < 0:
        return -((-product) >> shift)
    return product >> shift


def to_fixed(r: float, fmt: QFormat) -> Fixed:
    """Quantize a real to ``fmt``: round to nearest, ties away from zero,
    saturating at the format bounds."""
    scaled = float(r) * (1 << fmt.frac_bits)
    return Fixed(_clamp_int(_round_half_away(scaled), fmt), fmt)


def to_real(x: Fixed) -> float:
    return x.raw * x.fmt.lsb


def fixed_add(a: Fixed, b: Fixed) -> Fixed:
    if a.fmt != b.fmt:
        raise ValueError(f"format mismatch: {a.fmt} vs {b.fmt}")
    return Fixed(_clamp_int(a.raw + b.raw, a.fmt), a.fmt)


def fixed_sub(a: Fixed, b: Fixed) -> Fixed:
    if a.fmt != b.fmt:
        raise ValueError(f"format mismatch: {a.fmt} vs {b.fmt}")
    return Fixed(_clamp_int(a.raw - b.raw, a.fmt), a.fmt)


def fixed_mul(a: Fixed, b: Fixed, out_fmt: QFormat) -> Fixed:
    """Saturating multiply; the double-width product is truncated toward
    zero when narrowed to ``out_fmt``."""
    shift = a.fmt.frac_bits + b.fmt.frac_bits - out_fmt.frac_bits
    raw = _trunc_shift_int(a.raw * b.raw, shift)
    return Fixed(_clamp_int(raw, out_fmt), out_fmt)


def fixed_convert(x: Fixed, fmt: QFormat) -> Fixed:
    """Re-quantize to another format: round to nearest, ties away from zero."""
    diff = x.fmt.frac_bits - fmt.frac_bits
    if diff <= 0:
        raw = x.raw << (-diff)
    else:
        half = 1 << (diff - 1)
        if x.raw >= 0:
            raw = (x.raw + half) >> diff
        else:
            raw = -((-x.raw + half) >> diff)
    return Fixed(_clamp_int(raw, fmt), fmt)


@dataclass(frozen=True)
class DecayParams:
    """Time constant and tick size of one iterative leak.

    ``dt / tau < 1`` is required: at ``dt = tau`` the iterative step jumps
    straight to the target and beyond it the map overshoots.
    """

    tau: float
    dt: float = 1.0

    def __post_init__(self) -> None:
        if self.tau <= 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.dt / self.tau >= 1.0:
            raise ValueError(
                f"dt/tau must be < 1, got dt={self.dt} tau={self.tau}"
            )

    @property
    def decay(self) -> float:
        """The per-step multiplier ``dt / tau`` (float64, computed once)."""
        return self.dt / self.tau

    def decay_raw(self, fmt: QFormat = COEF_FORMAT) -> int:
        """The multiplier quantized to a coefficient mantissa."""
        return to_fixed(self.decay, fmt).raw


def leak_decay(x, p: DecayParams):
    """One iterative decay step toward zero: ``x - x * (dt/tau)``.

    Accepts a float scalar, a float64 array, or a ``Fixed`` value; the fixed
    path truncates the product toward zero and cannot leave the format range.
    """
    if isinstance(x, Fixed):
        delta = _trunc_shift_int(x.raw * p.decay_raw(), COEF_FORMAT.frac_bits)
        return Fixed(_clamp_int(x.raw - delta, x.fmt), x.fmt)
    return x - x * p.decay


def leak_toward(v, rest, p: DecayParams):
    """One iterative decay step toward ``rest``: ``v - (v - rest) * (dt/tau)``.

    ``rest`` is an exact fixed point of the map in both modes.
    """
    if isinstance(v, Fixed):
        if not isinstance(rest, Fixed) or rest.fmt != v.fmt:
            raise ValueError("rest must be a Fixed value in the same format as v")
        diff = v.raw - rest.raw
        delta = _trunc_shift_int(diff * p.decay_raw(), COEF_FORMAT.frac_bits)
        return Fixed(_clamp_int(v.raw - delta, v.fmt), v.fmt)
    return v - (v - rest) * p.decay


# Vectorized raw-mantissa helpers (int64 arrays). These share the scalar
# semantics exactly: trunc-toward-zero products, nearest-ties-away
# conversion, saturating narrowing.


def saturate_raw(raw: np.ndarray, lo: int, hi: int, out: np.ndarray | None = None) -> np.ndarray:
    """``np.clip`` without its per-call checks. Like ``np.clip`` it keeps
    a value equal to a bound as it is: ``-0.0`` stays ``-0.0`` at a bound
    of ``0.0``. numpy returns the second operand of a tie, which its docs
    do not promise; the float oracle tests check it."""
    return np.minimum(hi, np.maximum(lo, raw, out=out), out=out)


def trunc_shift_raw(x: np.ndarray, shift: int, coef: int = 1) -> np.ndarray:
    """``x * coef * 2**-shift`` truncated toward zero, in one float64
    multiply by the pre-scaled coefficient. Exact while the integer product
    satisfies ``|x * coef| < 2**53`` and the result fits int64: float64
    holds ``x``, ``coef`` and their product exactly, the power-of-two scale
    keeps the significand and ``astype`` truncates. Engine products are
    below ``2**49``: mantissas and their differences below ``2**33`` times
    coefficients below ``2**16``."""
    return (x * (coef * 2.0 ** -shift)).astype(np.int64)


def fold_work(rows: int, m: int, n: int) -> tuple[np.ndarray, ...]:
    """The float64 ``(rows, m)``, ``(rows, n)`` and ``(m, n)`` and the int64
    ``(m, n)`` arrays ``fold_rank1_raw`` works in, for folds of up to
    ``rows`` rows into an ``(m, n)`` delta."""
    return (np.empty((rows, m)), np.empty((rows, n)), np.empty((m, n)),
            np.empty((m, n), np.int64))


def fold_rank1_raw(delta: np.ndarray, left: np.ndarray, right: np.ndarray,
                   work: tuple[np.ndarray, ...] | None = None) -> None:
    """``delta += left.T @ right`` in place, for int64 ``(rows, m)`` ``left``
    and ``(rows, n)`` ``right`` of which, in every row, one is a 0/±1
    indicator: the int64 adds of the rows' outer products, in any order.
    Each cell then sums at most ``rows`` integers no larger in magnitude
    than ``top``, the largest in either array, so while ``rows * top <
    2**53`` every partial sum of a float64 product is an exact integer,
    in whatever order the GEMM takes them; otherwise an int64 product,
    which wraps as the int64 adds do. The float path works in the arrays
    of ``work`` (``fold_work``), allocated if none are given: a caller
    that folds often passes the same ones, as temporaries of this size
    come from fresh pages at every fold."""
    rows = len(left)
    top = max(int(left.max(initial=0)), -int(left.min(initial=0)),
              int(right.max(initial=0)), -int(right.min(initial=0)))
    if rows * top >= 2**53:
        delta += left.T @ right
        return
    lf, rf, product, exact = work or fold_work(rows, *delta.shape)
    np.copyto(lf[:rows], left)
    np.copyto(rf[:rows], right)
    np.matmul(lf[:rows].T, rf[:rows], out=product)
    np.copyto(exact, product, casting="unsafe")
    delta += exact


def quantize_array(values: np.ndarray, fmt: QFormat) -> np.ndarray:
    """Vectorized ``to_fixed``: float64 array to int64 mantissas."""
    scaled = np.asarray(values, dtype=np.float64) * float(1 << fmt.frac_bits)
    raw = np.where(scaled >= 0.0, np.floor(scaled + 0.5), np.ceil(scaled - 0.5))
    return np.clip(raw, fmt.raw_min, fmt.raw_max).astype(np.int64)


def convert_raw_array(raw: np.ndarray, src: QFormat, dst: QFormat) -> np.ndarray:
    """Vectorized ``fixed_convert`` on mantissa arrays (saturating)."""
    diff = src.frac_bits - dst.frac_bits
    if diff <= 0:
        out = raw << (-diff)
    else:
        # round the magnitude half up: x ^ sign - sign is |x| for the sign
        # mask 0 or -1, and maps the rounded magnitude back to its sign
        sign = raw >> 63
        out = raw ^ sign
        out -= sign
        out += 1 << (diff - 1)
        out >>= diff
        out ^= sign
        out -= sign
    return saturate_raw(out, dst.raw_min, dst.raw_max, out=out)


class FloatArithmetic:
    """Float64 values; every operation is the plain IEEE one."""

    dtype = np.float64

    def voltage(self, r: float) -> float:
        return float(r)

    weight = coef = voltage

    def weights(self, reals: np.ndarray) -> np.ndarray:
        return np.asarray(reals, dtype=np.float64)

    def mul_v(self, x: np.ndarray, coef: float) -> np.ndarray:
        return x * coef

    mul_w = mul_v

    # x + (-0.0) is x for every x, -0.0 included: a pad row adds nothing
    pad = -0.0
    # sums depend on their order, so batched deltas add in stream order
    exact_sums = False

    def saturate_v(self, v: np.ndarray) -> None:
        pass

    def w_to_v(self, rows: np.ndarray) -> np.ndarray:
        return rows

    def add_rows(self, v: np.ndarray, rows: np.ndarray,
                 bounds: tuple | None = None) -> None:
        """``v[b] += rows[b, 0]; v[b] += rows[b, 1]; ...`` in place, in that
        order, for every lane b of the ``(lanes, n)`` voltages; the ``(lanes,
        K, n)`` rows are C-ordered, and are overwritten. Float adds do not
        saturate, so the row ``bounds`` go unused."""
        # the sums below add v + rows[0], rows[1], ... in that order
        rows[:, 0] += v
        if v.shape[1] == 1:
            # a reduction over a lone column would run pairwise; a
            # cumulative sum always adds row after row
            v[:] = np.cumsum(rows, axis=1)[:, -1]
        else:
            # down the rows of a C-ordered stack numpy adds row after row,
            # to a start of +0.0 unless told otherwise: -0.0 + x is x for
            # every x, where +0.0 + -0.0 would lose the sign of a zero sum
            np.add.reduce(rows, axis=1, out=v, initial=-0.0)


class FixedArithmetic:
    """Int64 mantissas: voltages and traces in ``v_format``, weights in
    ``w_format``, coefficients in ``COEF_FORMAT``. Products truncate toward
    zero and voltage sums saturate, as in the scalar ``Fixed`` primitives."""

    dtype = np.int64

    def __init__(self, v_format: QFormat, w_format: QFormat):
        self.v_format, self.w_format = v_format, w_format
        self.v_min, self.v_max = v_format.raw_min, v_format.raw_max
        # coef (frac 14) x trace (frac v) -> weight (frac w)
        self.w_shift = COEF_FORMAT.frac_bits + v_format.frac_bits - w_format.frac_bits

    def voltage(self, r: float) -> int:
        return to_fixed(r, self.v_format).raw

    def weight(self, r: float) -> int:
        return to_fixed(r, self.w_format).raw

    def coef(self, r: float) -> int:
        return to_fixed(r, COEF_FORMAT).raw

    def weights(self, reals: np.ndarray) -> np.ndarray:
        return quantize_array(reals, self.w_format)

    def mul_v(self, x: np.ndarray, coef: int) -> np.ndarray:
        # |result| <= |x| as coef < 1, so a leak step needs no saturation
        return trunc_shift_raw(x, COEF_FORMAT.frac_bits, coef)

    def mul_w(self, x: np.ndarray, coef: int) -> np.ndarray:
        return trunc_shift_raw(x, self.w_shift, coef)

    # a saturating add of zero leaves a value in range as it is
    pad = 0
    # int64 sums of mantissas are exact: batched deltas add in any order
    exact_sums = True

    def saturate_v(self, v: np.ndarray) -> None:
        saturate_raw(v, self.v_min, self.v_max, out=v)

    def w_to_v(self, rows: np.ndarray) -> np.ndarray:
        """Weight mantissas re-quantized to the voltage format."""
        return convert_raw_array(rows, self.w_format, self.v_format)

    def add_rows(self, v: np.ndarray, rows: np.ndarray,
                 bounds: tuple | None = None) -> None:
        """Saturating ``v[b] += rows[b, 0]; v[b] += rows[b, 1]; ...`` in
        place, for every lane b of the ``(lanes, n)`` voltages; the rows
        are in the voltage format (``w_to_v``). ``bounds``, if given, are a
        ``(lo, hi)`` pair with ``lo <= min(rows.min(), 0)`` and ``hi >=
        max(rows.max(), 0)``, such as a frozen copy's that every call of a
        run reads from; otherwise the rows' own are taken."""
        lo, hi = bounds or (min(rows.min(), 0), max(rows.max(), 0))
        # every prefix v + rows[0] + ... + rows[k] of the K rows lies in
        # [v.min() + K * lo, v.max() + K * hi]: inside the format no add
        # saturates, and one int64 sum is exact
        n_rows = rows.shape[1]
        if v.min() + n_rows * lo >= self.v_min and v.max() + n_rows * hi <= self.v_max:
            v += np.add.reduce(rows, axis=1)
        else:
            self._add_saturating(v, rows)

    def _add_saturating(self, v: np.ndarray, rows: np.ndarray) -> None:
        """``add_rows`` one row at a time, saturating each add."""
        for k in range(rows.shape[1]):
            saturate_raw(v + rows[:, k], self.v_min, self.v_max, out=v)


@dataclass(frozen=True)
class NumericSpec:
    """Active numeric mode of a run plus the formats of the two state
    families (voltages/traces and weights/coefficients)."""

    mode: str = "float"
    v_format: QFormat = VOLTAGE_FORMAT
    w_format: QFormat = WEIGHT_FORMAT

    def __post_init__(self) -> None:
        if self.mode not in ("float", "fixed"):
            raise ValueError(f"mode must be 'float' or 'fixed', got {self.mode!r}")

    @property
    def is_fixed(self) -> bool:
        return self.mode == "fixed"

    @cached_property
    def arithmetic(self) -> FloatArithmetic | FixedArithmetic:
        if self.is_fixed:
            return FixedArithmetic(self.v_format, self.w_format)
        return FloatArithmetic()
