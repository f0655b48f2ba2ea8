"""Signed two's-complement Qn.q fixed-point arithmetic.

Convention: Qn.q has n integer bits INCLUDING the sign bit and q fraction
bits, total width w = n + q, value = raw * 2**-q with raw a signed
w-bit integer.  Addition and subtraction are plain integer operations on
the raw payloads.  Multiplication forms the full 2w-bit product, drops the
low q fraction bits (arithmetic shift, i.e. truncation toward -inf) and
then the high n bits per the overflow policy.

Overflow handling is WRAP by default (high bits discarded, like the
datapath of a fixed-width hardware adder); SATURATE clamps to the format
range and is opt-in.  Neither applies to a real that becomes a word: that
is `core.encode_register`, which raises out of range.

The raw helpers (`add_raw`, `mul_raw`, ...) are the arithmetic, on ints or
elementwise on numpy integer arrays; a `QWord` is only a stored word.  The
core steps on them: every fit is `fit_raw`, and every product but a rate's
in [0, 1], which no fit would change, is `mul_raw`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "NamedEnum",
    "whole_number",
    "finite_real",
    "OverflowPolicy",
    "QFormat",
    "QWord",
    "wrap_raw",
    "saturate_raw",
    "fit_raw",
    "add_raw",
    "sub_raw",
    "mul_raw",
    "accumulate_raw",
    "encode_raw",
    "raw_dtype",
]


class NamedEnum(enum.Enum):
    """An enum whose config values are its members or their names."""

    @classmethod
    def from_name(cls, name, field: str):
        """A member, or the member that its name selects (after strip and lower-case);
        else a ValueError that names `field`, the config field that holds it."""
        if isinstance(name, cls):
            return name
        members = {m.value: m for m in cls}
        key = name.strip().lower() if isinstance(name, str) else None
        if key in members:
            return members[key]
        raise ValueError(f"unknown {field.replace('_', ' ')} {name!r}: {field} must be one of: "
                         f"{', '.join(members)}")


def whole_number(value, name: str) -> int:
    """An integral value in [0, 2**63), such as a count of cycles, as an int; a bool
    is not one.  The bound is int64's: a whole number sizes or fills an int64 array."""
    try:
        whole = int(value)
        integral = whole == value and not isinstance(value, (bool, np.bool_))
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral or not 0 <= whole < 1 << 63:
        raise ValueError(f"{name} {value!r} is not a whole number in [0, 2**63)")
    return whole


def finite_real(value, name: str):
    """`value` if a finite real (not a bool), else a ValueError naming it; an int stays
    exact, and a numpy integer or float narrower than 64 bits becomes the Python int or
    float it equals, so that it is compared and scaled exactly or in float64, not in its
    own dtype, where scaling by 2**q can overflow or round."""
    try:
        if not isinstance(value, (bool, np.bool_)) and math.isfinite(value):
            narrow = isinstance(value, (np.integer, np.floating)) and value.itemsize < 8
            return value.item() if narrow else value
    except (TypeError, OverflowError):  # None, a string, an int past float range
        pass
    raise ValueError(f"{name} {value!r} is not a finite real")


class OverflowPolicy(NamedEnum):
    WRAP = "wrap"
    SATURATE = "saturate"


WRAP = OverflowPolicy.WRAP
SATURATE = OverflowPolicy.SATURATE


@dataclass(frozen=True)
class QFormat:
    """Qn.q format descriptor: n integer bits (incl. sign), q fraction bits."""

    n: int
    q: int

    def __post_init__(self):
        object.__setattr__(self, "n", whole_number(self.n, "n"))
        object.__setattr__(self, "q", whole_number(self.q, "q"))
        if self.n < 2:
            raise ValueError(f"Q{self.n}.{self.q}: need n >= 2 (sign plus at least one integer bit)")
        if self.n + self.q > 64:
            raise ValueError(f"Q{self.n}.{self.q}: total width {self.n + self.q} exceeds 64")

    # Computed once per format: the raw helpers read them on every call.
    @cached_property
    def width(self) -> int:
        return self.n + self.q

    @cached_property
    def quantum(self) -> float:
        """Value of one LSB, 2**-q."""
        return 2.0 ** -self.q

    @cached_property
    def min_raw(self) -> int:
        return -(1 << (self.width - 1))

    @cached_property
    def max_raw(self) -> int:
        return (1 << (self.width - 1)) - 1

    @cached_property
    def min_value(self) -> float:
        return self.min_raw * self.quantum

    @cached_property
    def max_value(self) -> float:
        return self.max_raw * self.quantum

    def __str__(self) -> str:
        return f"Q{self.n}.{self.q}"


# Formats that come up throughout the tests and demos.
Q3_1 = QFormat(3, 1)
Q5_3 = QFormat(5, 3)
Q9_7 = QFormat(9, 7)
Q17_15 = QFormat(17, 15)


@dataclass(frozen=True)
class QWord:
    """A value in a QFormat: raw signed integer payload, value = raw * 2**-q."""

    fmt: QFormat
    raw: int

    def __post_init__(self):
        raw = self.raw
        if type(raw) is not int:  # a bool, numpy scalar, float or int subclass
            try:
                raw = None if isinstance(raw, (bool, np.bool_)) else int(raw)
            except (TypeError, OverflowError, ValueError):  # None, inf or nan
                raw = None
            if raw is None or raw != self.raw:
                raise ValueError(f"raw {self.raw!r} of {self.fmt} is not an integer")
            object.__setattr__(self, "raw", raw)
        if not (self.fmt.min_raw <= raw <= self.fmt.max_raw):
            raise ValueError(f"raw {raw} does not fit in {self.fmt}")

    @property
    def value(self) -> float:
        return self.raw * self.fmt.quantum

    def __repr__(self) -> str:
        return f"QWord({self.fmt}, {self.value})"


def raw_dtype(fmt: QFormat):
    """numpy dtype able to hold raw payloads AND full 2w-bit products."""
    return np.int64 if fmt.width <= 32 else object


# ---------------------------------------------------------------------------
# Raw-payload helpers; work on ints and numpy arrays alike.

def wrap_raw(x, fmt: QFormat):
    """Keep the low w bits of x, reinterpreted as signed (hardware bit-discard)."""
    half = 1 << (fmt.width - 1)
    mask = (1 << fmt.width) - 1
    return ((x + half) & mask) - half


def saturate_raw(x, fmt: QFormat):
    if isinstance(x, np.ndarray):
        # Same values as np.clip, at a fraction of its per-call cost.
        return np.minimum(np.maximum(x, fmt.min_raw), fmt.max_raw)
    return max(fmt.min_raw, min(fmt.max_raw, x))


def fit_raw(x, fmt: QFormat, policy: OverflowPolicy):
    return wrap_raw(x, fmt) if policy is WRAP else saturate_raw(x, fmt)


def add_raw(a, b, fmt: QFormat, policy: OverflowPolicy = WRAP):
    return fit_raw(a + b, fmt, policy)


def sub_raw(a, b, fmt: QFormat, policy: OverflowPolicy = WRAP):
    return fit_raw(a - b, fmt, policy)


def mul_raw(a, b, fmt: QFormat, policy: OverflowPolicy = WRAP):
    """Full-width product, then drop q fraction bits (floor) and n high bits."""
    return fit_raw((a * b) >> fmt.q, fmt, policy)


def accumulate_raw(rows, fmt: QFormat):
    """Ordered saturating sum of `rows` along axis 0: the fold of `add_raw`.

    `rows` is a raw [R, ...] array (R may be 0); row i is added before
    row i + 1 by x <- clamp(x + row, lo, hi) from x = 0 (SATURATE).  A
    certificate comes first.  With s the plain sum of a column and a the
    sum of its absolute values, (s + a) / 2 is the sum of its positive
    terms and (s - a) / 2 that of its negative terms, and every prefix sum
    lies between the two.  If |s| + a <= 2 * hi in every column, then
    s + a <= 2 * hi and s - a >= -2 * hi > 2 * lo, so no add clamps and the
    fold is s (for R = 0, s is zeros); one pass checks both ends.
    Otherwise the fold is the discrete two-sided Skorokhod map on [lo, hi]
    of the prefix sums c_1..c_R.  Its closed form ("An explicit formula
    for the Skorokhod map on [0, a]", Kruk, Lehoczky, Ramanan & Shreve,
    Ann. Probab. 35(5), 2007) is, with m_s = min(c_s..c_R),
        x_R = c_R - max(min(m_1 - lo, 0), max_s min(c_s - hi, m_s - lo)).
    Every term is an exact integer: |c|, a <= R * 2**31 in int64 for
    widths <= 32, Python ints (object dtype) beyond.  Float64 rows (widths
    <= 32) give exact sums and an exact certificate if R * 2**(w-1) <= 2**53,
    and float32 rows if R * 2**(w-1) <= 2**24 and w <= 24: |s| + a may pass
    2**24, but rounding is monotone and the threshold 2**w - 2 lies below
    2**24.  The result, and the closed form, are int64.
    """
    if rows.ndim == 1:  # as [R, 1]: the sum of a 1-D object array is a Python int
        return accumulate_raw(rows[:, None], fmt)[0]
    ints = raw_dtype(fmt)
    s = np.add.reduce(rows)
    if (np.abs(s) + np.add.reduce(np.abs(rows))).max(initial=0) <= 2 * fmt.max_raw:
        return s.astype(ints, copy=False)
    c = np.cumsum(rows.astype(ints, copy=False), axis=0)
    m = np.minimum.accumulate(c[::-1], axis=0)[::-1]
    upper = np.minimum(c - fmt.max_raw, m - fmt.min_raw).max(axis=0)
    lower = np.minimum(m[0] - fmt.min_raw, 0)
    return c[-1] - np.maximum(lower, upper)


def encode_raw(value: float, fmt: QFormat) -> int:
    """A real's raw payload, truncated toward -inf.  It fits only for a real
    in [min_value, -min_value): the caller checks that (`encode_register`)."""
    return math.floor(value * (1 << fmt.q))

