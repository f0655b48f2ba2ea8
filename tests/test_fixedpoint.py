"""Fixed-point arithmetic against an independent wide-integer oracle."""

from fractions import Fraction

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
    add,
    add_raw,
    mul,
    mul_raw,
    raw_dtype,
    sub,
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
    for n, q, name in ((5, 3.5, "q"), (5.5, 3, "n"), ("5", 3, "n"), (5, float("nan"), "q")):
        with pytest.raises(ValueError, match=f"^{name} "):
            QFormat(n, q)
    whole = QFormat(5.0, 3.0)
    assert (type(whole.n), type(whole.q)) == (int, int)
    assert whole == Q5_3 and hash(whole) == hash(Q5_3) and whole.max_raw == 127


# --- add / sub / mul spec cases ----------------------------------------------

def test_add_exact():
    assert add(encode_register(1.5, Q5_3), encode_register(2.5, Q5_3)).value == 4.0


def test_add_wraps():
    # 127 + 1 = 128 -> -128 on 8-bit two's complement
    r = add(encode_register(15.875, Q5_3), encode_register(0.125, Q5_3))
    assert r.value == -16.0
    assert r.raw == oracle_add(127, 1, 8, saturate=False)


def test_add_saturates():
    r = add(encode_register(15.875, Q5_3), encode_register(0.125, Q5_3), SATURATE)
    assert r.value == 15.875


def test_add_format_mismatch():
    with pytest.raises(ValueError):
        add(encode_register(1.0, Q5_3), encode_register(1.0, QFormat(9, 7)))


def test_mul_exact():
    assert mul(encode_register(1.5, Q5_3), encode_register(2.5, Q5_3)).value == 3.75


def test_mul_underflow_truncates_to_zero():
    assert mul(encode_register(0.125, Q5_3), encode_register(0.125, Q5_3)).value == 0.0


def test_mul_overflow_wraps_to_zero():
    # product raw 2048, >>3 = 256, low 8 bits = 0
    assert mul(encode_register(8.0, Q5_3), encode_register(4.0, Q5_3)).value == 0.0
    assert oracle_mul(64, 32, 8, 3, saturate=False) == 0


# --- exhaustive 8-bit sweep vs oracle ----------------------------------------

def test_exhaustive_q53_add_mul_vs_oracle():
    fmt = Q5_3
    raws = range(fmt.min_raw, fmt.max_raw + 1)
    for a in raws:
        wa = QWord(fmt, a)
        for b in raws:
            wb = QWord(fmt, b)
            assert add(wa, wb).raw == oracle_add(a, b, 8, False)
            assert add(wa, wb, SATURATE).raw == oracle_add(a, b, 8, True)
            assert mul(wa, wb).raw == oracle_mul(a, b, 8, 3, False)
            assert mul(wa, wb, SATURATE).raw == oracle_mul(a, b, 8, 3, True)


def test_exhaustive_q53_array_path_matches_oracle():
    fmt = Q5_3
    raws = np.arange(fmt.min_raw, fmt.max_raw + 1, dtype=np.int64)
    a, b = np.meshgrid(raws, raws)
    want_add = np.array([[oracle_add(int(x), int(y), 8, False) for y in raws] for x in raws])
    want_mul = np.array([[oracle_mul(int(x), int(y), 8, 3, False) for y in raws] for x in raws])
    assert np.array_equal(add_raw(a.T, b.T, fmt), want_add)
    assert np.array_equal(mul_raw(a.T, b.T, fmt), want_mul)


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
            wa, wb = encode_register(av, Q5_3), encode_register(bv, Q5_3)
            assert add(wa, wb).value == av + bv
            assert sub(wa, wb).value == av - bv
            prod = av * bv
            if prod == (prod * 8) // 1 / 8 and -16 <= prod < 16:
                assert mul(wa, wb).value == prod


# --- ordered accumulation of gathered weight rows ---------------------------

def fold_add_raw(rows, fmt, policy=SATURATE):
    """The reference order: add_raw row by row, starting from 0."""
    acc = np.zeros(rows.shape[1:], dtype=rows.dtype)
    for row in rows:
        acc = add_raw(acc, row, fmt, policy)
    return acc


def core_row_sum(rows, fmt, policy):
    """A core's activation for one cycle in which `rows`' lines spike.

    The plane holds one more line, which stays silent.  Under SATURATE the
    core calls `accumulate_raw`; under WRAP it sums and `Core._fit` wraps.
    """
    regs = RealRegisters(decay_rate=0.0, growth_rate=1.0, v_threshold=1.0)
    core = Core(CoreConfig.uniform(fmt, [len(rows) + 1, rows.shape[1]], regs, policy=policy))
    core.planes[0].raw[:-1] = rows
    core.planes[0].raw[-1] = fmt.max_raw
    return core._activation(0, np.arange(len(rows) + 1) < len(rows))


@pytest.mark.parametrize("fmt", [Q5_3, QFormat(33, 31)])  # int64 and object payloads
@pytest.mark.parametrize("policy", [WRAP, SATURATE])
@pytest.mark.parametrize("n_rows", [0, 1, 2, 3, 5, 8, 13, 64, 257])
def test_accumulate_raw_equals_sequential_fold(fmt, policy, n_rows):
    rng = np.random.default_rng(n_rows)
    rows = rng.integers(fmt.min_raw, fmt.max_raw, (n_rows, 9), endpoint=True)
    rows = rows.astype(raw_dtype(fmt))
    fold = fold_add_raw(rows, fmt, policy)
    if policy is SATURATE:
        got = accumulate_raw(rows, fmt)
        assert got.dtype == rows.dtype
        assert np.array_equal(got, fold)
    got = core_row_sum(rows, fmt, policy)
    assert got.dtype == rows.dtype
    assert np.array_equal(got, fold)


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
    assert np.array_equal(got, fold_add_raw(rows, fmt))


def test_accumulate_raw_saturate_depends_on_order():
    # Q5.3 columns: 15 + 15 saturates at 15.875, then -10 brings it down to
    # 5.875; the same three weights with -10 first end at the maximum.
    rows = np.array([[120, -80], [120, 120], [-80, 120]])
    assert accumulate_raw(rows, Q5_3).tolist() == [47, Q5_3.max_raw]
    assert fold_add_raw(rows, Q5_3).tolist() == [47, Q5_3.max_raw]


# Q5.3 columns at the edge of the no-clamp certificate: the positive terms
# sum to exactly max_raw (certified) or max_raw + 1 (clamps mid-sum), the
# same mirrored, and columns whose total is in range although a prefix sum
# is not.
@pytest.mark.parametrize("column, expected", [
    ([100, 27, -50], 77),        # positive part 127: certified, the plain sum
    ([100, 28, -50], 77),        # 128 clamps to 127 before -50; the sum is 78
    ([-100, -28, 50], -78),      # negative part -128: certified
    ([-100, -29, 50], -78),      # -129 clamps to -128 before +50; the sum is -79
    ([100, 100, -100], 27),      # the total 100 is in range, the fold is not 100
    ([-100, -100, 100], -28),
])
def test_accumulate_raw_saturate_certificate_boundaries(column, expected):
    rows = np.array(column, dtype=np.int64)[:, None]
    assert fold_add_raw(rows, Q5_3).tolist() == [expected]
    assert accumulate_raw(rows, Q5_3).tolist() == [expected]
    # Beside a column that can clamp, the call takes the closed form.
    pair = np.hstack([rows, np.array([[120], [120], [-80]])])
    assert accumulate_raw(pair, Q5_3).tolist() == [expected, 47]


@pytest.mark.parametrize("fmt", [Q5_3, QFormat(33, 31)])
def test_accumulate_raw_saturate_of_no_rows_is_zero(fmt):
    rows = np.zeros((0, 3), dtype=raw_dtype(fmt))
    got = accumulate_raw(rows, fmt)
    assert got.dtype == rows.dtype and got.shape == (3,)
    assert got.tolist() == [0, 0, 0]


def test_accumulate_raw_wraps_like_the_adder():
    rows = np.array([[120], [120], [-80]])   # 160 wraps to 160 - 256
    assert core_row_sum(rows, Q5_3, WRAP).tolist() == [-96]
    assert core_row_sum(rows[:0], Q5_3, WRAP).tolist() == [0]


def test_qformat_derived_values_leave_equality_and_hash_alone():
    fmt = QFormat(5, 3)
    before = hash(fmt)
    assert (fmt.width, fmt.min_raw, fmt.max_raw, fmt.quantum) == (8, -128, 127, 0.125)
    assert fmt == Q5_3 and hash(fmt) == before == hash(QFormat(5, 3))
    assert fmt != QFormat(4, 4)


def test_qword_rejects_a_fractional_raw():
    for raw in (1.5, np.float64(-0.25), float("inf"), float("nan")):
        with pytest.raises(ValueError, match=rf"raw .*{raw}.* of Q5\.3 is not an integer"):
            QWord(Q5_3, raw)
    for raw in (3, np.int64(3), 3.0, np.float64(3.0)):
        word = QWord(Q5_3, raw)
        assert word.raw == 3 and type(word.raw) is int
    for raw in (128, -129, 1 << 70):
        with pytest.raises(ValueError, match=rf"raw {raw} does not fit in Q5\.3"):
            QWord(Q5_3, raw)


# --- wide formats beyond the int64 fast path ---------------------------------

def test_wide_format_scalars():
    fmt = QFormat(33, 31)
    big = QWord(fmt, fmt.max_raw)
    one = encode_register(2.0 ** -31, fmt)
    assert add(big, one).raw == fmt.min_raw
    assert add(big, one, SATURATE).raw == fmt.max_raw
    assert mul(big, big).raw == oracle_mul(fmt.max_raw, fmt.max_raw, 64, 31, False)


# --- literals -----------------------------------------------------------------

def test_literal_example():
    w = QWord.from_literal("Q5.3:0x0C")
    assert w.value == 1.5
    assert w.to_literal() == "Q5.3:0x0C"


def test_literal_round_trip_negative():
    w = encode_register(-0.125, Q5_3)
    assert w.to_literal() == "Q5.3:0xFF"
    assert QWord.from_literal(w.to_literal()) == w


def test_literal_rejects_garbage():
    for bad in ("Q5.3", "Q5.3:12", "Q5.3:0x1FF", "5.3:0x0C"):
        with pytest.raises(ValueError):
            QWord.from_literal(bad)
