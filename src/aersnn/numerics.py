"""Q-format fixed-point values and the discrete iterative leak kernels.

Every stateful quantity in this package is computed in one of two numeric
modes:

* ``float`` mode: plain IEEE-754 float64. This is the reference mode; the
  dense simulator and all oracle tests run here.
* ``fixed`` mode: two's-complement integer mantissas in a declared Q-format,
  modeling the hardware datapath. Additions saturate at the format bounds
  (never wrap), multiplications truncate toward zero (shift-based divider
  idiom), and real-to-fixed conversion rounds to nearest with ties away
  from zero.

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

__all__ = [
    "QFormat",
    "Fixed",
    "DecayParams",
    "NumericSpec",
    "FloatArithmetic",
    "FixedArithmetic",
    "VOLTAGE_FORMAT",
    "WEIGHT_FORMAT",
    "COEF_FORMAT",
    "to_fixed",
    "to_real",
    "fixed_add",
    "fixed_sub",
    "fixed_mul",
    "fixed_convert",
    "leak_decay",
    "leak_toward",
    "exp_decay_reference",
    "quantize_array",
    "convert_raw_array",
    "trunc_shift_raw",
]


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

    @property
    def value(self) -> float:
        return self.raw * self.fmt.lsb


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


def exp_decay_reference(x0: float, t: float, tau: float) -> float:
    """Continuous-decay ground truth ``x0 * exp(-t / tau)``, used only to
    bound the iterative kernels in tests."""
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    return x0 * math.exp(-t / tau)


# Vectorized raw-mantissa helpers (int64 arrays). These share the scalar
# semantics exactly: trunc-toward-zero products, nearest-ties-away
# conversion, saturating narrowing.


def trunc_shift_raw(product: np.ndarray, shift: int) -> np.ndarray:
    if shift <= 0:
        return product << (-shift)
    # arithmetic shifts floor; adding 2**shift - 1 to negatives (the sign
    # mask selects them) turns the floor into truncation toward zero
    return (product + ((product >> 63) & ((1 << shift) - 1))) >> shift


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
        half = 1 << (diff - 1)
        out = np.where(raw >= 0, (raw + half) >> diff, -((-raw + half) >> diff))
    return np.clip(out, dst.raw_min, dst.raw_max)


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

    def saturate_v(self, v: np.ndarray) -> None:
        pass

    def add_rows(self, v: np.ndarray, rows: np.ndarray) -> None:
        """``v += rows[0]; v += rows[1]; ...`` in place, in that order."""
        stack = np.concatenate((v[None], rows))
        if v.size == 1:
            # a reduction over a lone column would run pairwise; a
            # cumulative sum always adds row after row
            v[:] = np.cumsum(stack, axis=0)[-1]
        else:
            # down the rows of a C-ordered stack numpy adds row after row
            v[:] = np.add.reduce(stack, axis=0)

    def add_repeated(self, acc: np.ndarray, amount: float, fewer: np.ndarray) -> None:
        """Add ``amount`` k = ``fewer.size`` times in sequence to every element
        of ``acc`` but k - 1 times at ``fewer``; exact while ``acc`` is zero."""
        sums = np.cumsum(np.full(fewer.size, amount))  # sums[m - 1]: m adds
        credit = np.full(acc.size, sums[-1])
        credit[fewer] = sums[-2] if fewer.size > 1 else 0.0
        acc += credit


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
        return trunc_shift_raw(x * coef, COEF_FORMAT.frac_bits)

    def mul_w(self, x: np.ndarray, coef: int) -> np.ndarray:
        return trunc_shift_raw(x * coef, self.w_shift)

    def saturate_v(self, v: np.ndarray) -> None:
        np.clip(v, self.v_min, self.v_max, out=v)

    def add_rows(self, v: np.ndarray, rows: np.ndarray) -> None:
        """Saturating ``v += rows[0]; v += rows[1]; ...`` in place; the
        weight rows are converted to the voltage format first."""
        add = convert_raw_array(rows, self.w_format, self.v_format)
        prefix = np.cumsum(np.concatenate((v[None], add)), axis=0)
        # no prefix out of range means no add saturated
        if prefix.min() < self.v_min or prefix.max() > self.v_max:
            for row in add:
                np.clip(v + row, self.v_min, self.v_max, out=v)
        else:
            v[:] = prefix[-1]

    def add_repeated(self, acc: np.ndarray, amount: int, fewer: np.ndarray) -> None:
        # saturating adds of a nonnegative amount sum to min(total, top)
        credit = np.full(acc.size, fewer.size * amount, dtype=np.int64)
        credit[fewer] -= amount
        np.minimum(acc + credit, self.v_max, out=acc)


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
