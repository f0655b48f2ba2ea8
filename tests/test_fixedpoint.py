"""Fixed-point arithmetic against an independent wide-integer oracle."""

from fractions import Fraction

import harness
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikecore.core import Core, CoreConfig, RealRegisters, encode_register
from spikecore.fixedpoint import (
    SATURATE,
    WRAP,
    Q5_3,
    QFormat,
    QWord,
    accumulate_raw,
    add_raw,
    mul_raw,
    raw_dtype,
    sub_raw,
)


# --- independent oracle: plain modular integer arithmetic ------------------

def oracle_wrap(x: int, width: int) -> int:
    r = x % (1 << width)
    if r >= 1 << (width - 1):
        r -= 1 << width
    return r


def oracle_saturate(x: int, width: int) -> int:
    lo, hi = -(1 << (width - 1)), (1 << (width - 1)) - 1
    return min(hi, max(lo, x))


def oracle_add(a: int, b: int, width: int, saturate: bool) -> int:
    s = a + b
    return oracle_saturate(s, width) if saturate else oracle_wrap(s, width)


def oracle_mul(a: int, b: int, width: int, q: int, saturate: bool) -> int:
    # Exact product carries 2q fraction bits; floor-divide away the low q.
    wide = a * b
    kept = wide // (1 << q)
    return oracle_saturate(kept, width) if saturate else oracle_wrap(kept, width)


# --- encode_register: a real to a word ---------------------------------------

def test_encode_exact():
    w = encode_register(1.5, Q5_3)
    assert w.raw == 0b00001100
    assert w.value == 1.5


def test_encode_zero():
    assert encode_register(0.0, Q5_3).raw == 0


def test_encode_truncates_toward_neg_inf():
    assert encode_register(0.2, Q5_3).value == 0.125
    assert encode_register(-0.2, Q5_3).value == -0.25
    assert encode_register(0.015625, Q5_3).value == 0.0


def test_format_validation():
    with pytest.raises(ValueError):
        QFormat(1, 3)
    with pytest.raises(ValueError):
        QFormat(5, -1)
    with pytest.raises(ValueError):
        QFormat(40, 33)
    # A fractional or non-numeric width used to construct and then raise
    # TypeError on the first max_raw.
    for n, q, name in ((5, 3.5, "q"), (5.5, 3, "n"), ("5", 3, "n"), (5, float("nan"), "q"),
                       (True, 3, "n")):
        with pytest.raises(ValueError, match=f"^{name} "):
            QFormat(n, q)
    whole = QFormat(5.0, 3.0)
    assert (type(whole.n), type(whole.q)) == (int, int)
    assert whole == Q5_3 and hash(whole) == hash(Q5_3) and whole.max_raw == 127


# --- add / sub / mul spec cases, on the raw payloads of encoded reals ------------

def raw(value, fmt=Q5_3):
    return encode_register(value, fmt).raw


def test_add_exact():
    assert add_raw(raw(1.5), raw(2.5), Q5_3) * Q5_3.quantum == 4.0


def test_add_wraps():
    # 127 + 1 = 128 -> -128 on 8-bit two's complement
    r = add_raw(raw(15.875), raw(0.125), Q5_3)
    assert r * Q5_3.quantum == -16.0
    assert r == oracle_add(127, 1, 8, saturate=False)


def test_add_saturates():
    assert add_raw(raw(15.875), raw(0.125), Q5_3, SATURATE) * Q5_3.quantum == 15.875


def test_mul_exact():
    assert mul_raw(raw(1.5), raw(2.5), Q5_3) * Q5_3.quantum == 3.75


def test_mul_underflow_truncates_to_zero():
    assert mul_raw(raw(0.125), raw(0.125), Q5_3) == 0


def test_mul_overflow_wraps_to_zero():
    # product raw 2048, >>3 = 256, low 8 bits = 0
    assert mul_raw(raw(8.0), raw(4.0), Q5_3) == 0
    assert oracle_mul(64, 32, 8, 3, saturate=False) == 0


# --- exhaustive 8-bit sweep vs oracle ----------------------------------------

@pytest.mark.parametrize("policy", [WRAP, SATURATE])
def test_exhaustive_q53_add_mul_vs_oracle(policy):
    fmt, saturate = Q5_3, policy is SATURATE
    raws = range(fmt.min_raw, fmt.max_raw + 1)
    for a in raws:
        for b in raws:
            assert add_raw(a, b, fmt, policy) == oracle_add(a, b, 8, saturate)
            assert sub_raw(a, b, fmt, policy) == oracle_add(a, -b, 8, saturate)
            assert mul_raw(a, b, fmt, policy) == oracle_mul(a, b, 8, 3, saturate)


@pytest.mark.parametrize("policy", [WRAP, SATURATE])
def test_exhaustive_q53_array_path_matches_oracle(policy):
    fmt, saturate = Q5_3, policy is SATURATE
    raws = range(fmt.min_raw, fmt.max_raw + 1)
    a, b = np.meshgrid(np.arange(fmt.min_raw, fmt.max_raw + 1, dtype=np.int64), raws,
                       indexing="ij")
    for op, want in ((add_raw, lambda x, y: oracle_add(x, y, 8, saturate)),
                     (sub_raw, lambda x, y: oracle_add(x, -y, 8, saturate)),
                     (mul_raw, lambda x, y: oracle_mul(x, y, 8, 3, saturate))):
        assert np.array_equal(op(a, b, fmt, policy), [[want(x, y) for y in raws] for x in raws])


# --- properties ---------------------------------------------------------------

formats = st.builds(
    QFormat,
    n=st.integers(min_value=2, max_value=20),
    q=st.integers(min_value=0, max_value=20),
)


@given(fmt=formats, data=st.data())
@settings(max_examples=300)
def test_wrap_is_modular(fmt, data):
    a = data.draw(st.integers(fmt.min_raw, fmt.max_raw))
    b = data.draw(st.integers(fmt.min_raw, fmt.max_raw))
    w = fmt.width
    assert add_raw(a, b, fmt) % (1 << w) == (a + b) % (1 << w)
    assert mul_raw(a, b, fmt) % (1 << w) == ((a * b) >> fmt.q) % (1 << w)


@given(fmt=formats, data=st.data())
@settings(max_examples=300)
def test_saturate_stays_in_range(fmt, data):
    a = data.draw(st.integers(fmt.min_raw, fmt.max_raw))
    b = data.draw(st.integers(fmt.min_raw, fmt.max_raw))
    for r in (add_raw(a, b, fmt, SATURATE), mul_raw(a, b, fmt, SATURATE)):
        assert fmt.min_raw <= r <= fmt.max_raw


@given(fmt=formats, data=st.data())
@settings(max_examples=300)
def test_mul_truncation_is_floor_of_exact_product(fmt, data):
    a = data.draw(st.integers(fmt.min_raw, fmt.max_raw))
    b = data.draw(st.integers(fmt.min_raw, fmt.max_raw))
    exact = Fraction(a, 1 << fmt.q) * Fraction(b, 1 << fmt.q)
    floor_units = exact / Fraction(1, 1 << fmt.q)  # exact product in LSB units
    assert (a * b) >> fmt.q == floor_units.numerator // floor_units.denominator


def test_in_range_arithmetic_matches_reals():
    # When operands and exact result are representable, results are exact.
    for av in (-2.0, -0.375, 0.0, 1.5, 3.25):
        for bv in (-1.5, 0.125, 2.0):
            a, b = raw(av), raw(bv)
            assert add_raw(a, b, Q5_3) * Q5_3.quantum == av + bv
            assert sub_raw(a, b, Q5_3) * Q5_3.quantum == av - bv
            prod = av * bv
            if prod == (prod * 8) // 1 / 8 and -16 <= prod < 16:
                assert mul_raw(a, b, Q5_3) * Q5_3.quantum == prod


# --- ordered accumulation of gathered weight rows ---------------------------

def core_row_sum(rows, fmt, policy):
    """A core's activation for one cycle in which `rows`' lines spike, and
    `Core._fit` of it.

    The plane holds one more line, which stays silent.  Under SATURATE the
    core calls `accumulate_raw`; under WRAP it returns the exact sum, which
    the fit wraps.
    """
    regs = RealRegisters(decay_rate=0.0, growth_rate=1.0, v_threshold=1.0)
    core = Core(CoreConfig.uniform(fmt, [len(rows) + 1, rows.shape[1]], regs, policy=policy))
    core.planes[0].raw[:-1] = rows
    core.planes[0].raw[-1] = fmt.max_raw
    act = core._activation(0, np.arange(len(rows) + 1) < len(rows))
    return act, core._fit(act.copy())


@pytest.mark.parametrize("fmt", [Q5_3, QFormat(33, 31)])  # int64 and object payloads
@pytest.mark.parametrize("policy", [WRAP, SATURATE])
@pytest.mark.parametrize("n_rows", [0, 1, 2, 3, 5, 8, 13, 64, 257])
def test_accumulate_raw_equals_sequential_fold(fmt, policy, n_rows):
    rng = np.random.default_rng(n_rows)
    ints = rng.integers(fmt.min_raw, fmt.max_raw, (n_rows, 9), endpoint=True)
    ints = ints.astype(raw_dtype(fmt))
    fold = harness.fold(ints, fmt, policy)
    # Q5.3 rows also as float32, a plane's dtype there: 257 * 2**7 <= 2**24.
    for rows in (ints, ints.astype(np.float32))[:1 + (fmt.width <= 24)]:
        if policy is SATURATE:
            got = accumulate_raw(rows, fmt)
            assert got.dtype == ints.dtype
            assert np.array_equal(got, fold)
    got, fitted = core_row_sum(ints, fmt, policy)
    assert got.dtype == fitted.dtype == ints.dtype
    assert np.array_equal(got, ints.sum(axis=0) if policy is WRAP else fold)
    assert np.array_equal(fitted, fold)


@st.composite
def saturating_walks(draw):
    """Rows whose running sum meets the format's bounds often, once or never.

    Each row is uniform in [-span, span] with span = max_raw >> shift: for a
    small shift the walk bounces between both bounds, for a shift near
    log2(sqrt(R)) it reaches one about once, and for a large one never.
    """
    fmt = draw(st.sampled_from([QFormat(n, q) for n in range(2, 10) for q in range(8)])
               | st.just(QFormat(33, 31)))
    n_rows = draw(st.integers(0, 300))
    span = max(1, fmt.max_raw >> draw(st.integers(0, fmt.width + 2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.integers(-span, span, (n_rows, draw(st.integers(1, 8))), endpoint=True)
    return fmt, rows.astype(raw_dtype(fmt))


@given(walk=saturating_walks())
@settings(max_examples=300, deadline=None)
def test_accumulate_raw_saturate_matches_fold_on_long_walks(walk):
    fmt, rows = walk
    got = accumulate_raw(rows, fmt)
    assert got.dtype == rows.dtype
    assert np.array_equal(got, harness.fold(rows, fmt))


def test_accumulate_raw_saturate_depends_on_order():
    # Q5.3 columns: 15 + 15 saturates at 15.875, then -10 brings it down to
    # 5.875; the same three weights with -10 first end at the maximum.
    rows = np.array([[120, -80], [120, 120], [-80, 120]])
    assert accumulate_raw(rows, Q5_3).tolist() == [47, Q5_3.max_raw]
    assert harness.fold(rows, Q5_3).tolist() == [47, Q5_3.max_raw]


# Q5.3 columns at the edge of the no-clamp certificate |s| + a <= 2 * max_raw
# = 254, with s the plain sum and a the sum of absolute values (the number
# after each column).  |s| + a is twice the larger of the positive part and
# the magnitude of the negative part, so it is even: 256 is the first value
# past 254, and a column at 256 or more takes the closed form, whether a
# prefix sum clamps or not.
@pytest.mark.parametrize("column, expected", [
    ([100, 27, -50], 77),        # 254, positive part 127: certified, the plain sum
    ([100, 28, -50], 77),        # 256: 128 clamps to 127 before -50; the sum is 78
    ([-100, -28, 50], -78),      # 256, negative part -128 = min_raw: no clamp, closed form
    ([-100, -29, 50], -78),      # 258: -129 clamps to -128 before +50; the sum is -79
    ([100, 100, -100], 27),      # 400: the total 100 is in range, the fold is not 100
    ([-100, -100, 100], -28),    # 400
    ([-100, -27, 50], -77),      # 254, negative part -127: certified
    ([127, 0, -127], 0),         # 254, s = 0: certified
    ([-127, 0, 127], 0),         # 254, s = 0: certified
    ([-128, 0, 127], -1),        # 256, s = -1: closed form
])
def test_accumulate_raw_saturate_certificate_boundaries(column, expected):
    rows = np.array(column, dtype=np.int64)[:, None]
    assert harness.fold(rows, Q5_3).tolist() == [expected]
    pair = np.hstack([rows, np.array([[120], [120], [-80]])])
    for dtype in (np.int64, np.float32):  # float32: the rows of a Q5.3 plane
        assert accumulate_raw(rows.astype(dtype), Q5_3).tolist() == [expected]
        # Beside a column that can clamp, the call takes the closed form.
        assert accumulate_raw(pair.astype(dtype), Q5_3).tolist() == [expected, 47]


@pytest.mark.parametrize("fmt", [Q5_3, QFormat(33, 31)])
def test_accumulate_raw_saturate_of_no_rows_is_zero(fmt):
    rows = np.zeros((0, 3), dtype=raw_dtype(fmt))
    got = accumulate_raw(rows, fmt)
    assert got.dtype == rows.dtype and got.shape == (3,)
    assert got.tolist() == [0, 0, 0]


@pytest.mark.parametrize("fmt, column", [
    (Q5_3, [100, 27, -50]),                   # int64, certified
    (Q5_3, [100, 28, -50]),                   # int64, 128 clamps to 127
    (QFormat(34, 30), [2**60, -2**60, 5]),    # object, certified
    (QFormat(34, 30), [2**62, 2**62, -5]),    # object, 2**63 clamps to 2**63 - 1
])
def test_accumulate_raw_saturate_of_one_column(fmt, column):
    # A 1-D object column used to raise AttributeError: its sum is a Python int.
    rows = np.array(column, dtype=raw_dtype(fmt))
    got = accumulate_raw(rows, fmt)
    assert got == harness.fold(rows, fmt) == harness.fold(rows[:, None], fmt)[0]


def test_accumulate_raw_wraps_like_the_adder():
    rows = np.array([[120], [120], [-80]])   # 160 wraps to 160 - 256 in the fit
    assert [a.tolist() for a in core_row_sum(rows, Q5_3, WRAP)] == [[160], [-96]]
    assert [a.tolist() for a in core_row_sum(rows[:0], Q5_3, WRAP)] == [[0], [0]]


def test_qformat_derived_values_leave_equality_and_hash_alone():
    fmt = QFormat(5, 3)
    before = hash(fmt)
    assert (fmt.width, fmt.min_raw, fmt.max_raw, fmt.quantum) == (8, -128, 127, 0.125)
    assert (fmt.min_value, fmt.max_value) == (-16.0, 15.875)
    assert fmt == Q5_3 and hash(fmt) == before == hash(QFormat(5, 3))
    assert fmt != QFormat(4, 4)


def test_qword_rejects_a_fractional_raw():
    # A bool used to be stored as raw 1, and None raised TypeError from int().
    for raw in (1.5, np.float64(-0.25), float("inf"), float("nan"), True, np.True_, None):
        with pytest.raises(ValueError, match=rf"raw .*{raw}.* of Q5\.3 is not an integer"):
            QWord(Q5_3, raw)
    class Raw(int):  # not a plain int: it is coerced, as a numpy scalar is
        pass

    for raw in (3, np.int64(3), 3.0, np.float64(3.0), Raw(3)):
        word = QWord(Q5_3, raw)
        assert word.raw == 3 and type(word.raw) is int
    for raw in (128, -129, 1 << 70, Raw(128)):
        with pytest.raises(ValueError, match=rf"raw {raw} does not fit in Q5\.3"):
            QWord(Q5_3, raw)


# --- wide formats beyond the int64 fast path ---------------------------------

def test_wide_format_scalars():
    fmt = QFormat(33, 31)
    big, one = fmt.max_raw, raw(2.0 ** -31, fmt)
    assert add_raw(big, one, fmt) == fmt.min_raw
    assert add_raw(big, one, fmt, SATURATE) == fmt.max_raw
    assert mul_raw(big, big, fmt) == oracle_mul(fmt.max_raw, fmt.max_raw, 64, 31, False)
