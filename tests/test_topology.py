import numpy as np
import pytest

from spikecore.core import encode_register
from spikecore.fixedpoint import Q5_3, Q9_7, QWord
from spikecore.topology import (
    Connectivity,
    ConnectivityKind,
    MaskedSynapseError,
    WeightMemory,
    build_mask,
)

ALL = Connectivity(ConnectivityKind.ALL_TO_ALL)
ONE = Connectivity(ConnectivityKind.ONE_TO_ONE)


def gauss(r):
    return Connectivity(ConnectivityKind.GAUSSIAN, r)


def test_all_to_all_3x2():
    assert build_mask(ALL, 3, 2).all()


def test_one_to_one_is_identity():
    assert np.array_equal(build_mask(ONE, 3, 3), np.eye(3, dtype=bool))


def test_connectivity_takes_a_kind_or_its_name():
    assert np.array_equal(build_mask(Connectivity("one"), 3, 3), np.eye(3, dtype=bool))
    assert Connectivity(" All ") == ALL
    assert Connectivity("gaussian", 2) == gauss(2)
    for bad in ("ring", 3, None):
        with pytest.raises(ValueError, match="all, one, gaussian"):
            Connectivity(bad)


def test_one_to_one_rejects_rectangular():
    with pytest.raises(ValueError):
        build_mask(ONE, 3, 4)


def test_gaussian_radius1_is_tridiagonal():
    mask = build_mask(gauss(1), 4, 4)
    want = np.eye(4, dtype=bool) | np.eye(4, k=1, dtype=bool) | np.eye(4, k=-1, dtype=bool)
    assert np.array_equal(mask, want)


def test_gaussian_radius_must_be_a_whole_number():
    # 1.5 used to build the radius-1 band, nan an all-zero mask, and "2"
    # raised TypeError from the distance compare.
    for bad in (1.5, float("nan"), "2", -1, True, np.True_):
        with pytest.raises(ValueError, match="radius"):
            gauss(bad)
    # The other kinds ignore the radius, but used to store any value as given.
    for kind, bad in (("all", "x"), ("one", 1.5)):
        with pytest.raises(ValueError, match="^radius .* is not a whole number"):
            Connectivity(kind, bad)
    assert gauss(2.0) == gauss(2) and type(gauss(2.0).radius) is int
    assert gauss(np.int64(3)) == gauss(3)


def brute_force_ones(kind, m, n, r):
    """Count mask entries straight from the index-distance definitions."""
    count = 0
    for i in range(m):
        for j in range(n):
            if kind == "all":
                count += 1
            elif kind == "one":
                count += i == j
            else:
                count += abs(i - j) <= r
    return count


def test_ones_count_formulas_exhaustive():
    for m, n in ((0, 3), (3, 0)):
        with pytest.raises(ValueError, match=f"^mask dimensions must be >= 1, got {m}x{n}$"):
            build_mask(ALL, m, n)
    for m in range(1, 9):
        for n in range(1, 9):
            assert build_mask(ALL, m, n).sum() == m * n == brute_force_ones("all", m, n, 0)
            if m == n:
                assert build_mask(ONE, m, n).sum() == n
            for r in range(0, 4):
                mask = build_mask(gauss(r), m, n)
                # Per-column count, clamped at 0 for columns past the last row.
                formula = sum(max(0, min(j + r, m - 1) - max(j - r, 0) + 1) for j in range(n))
                assert mask.sum() == formula == brute_force_ones("gauss", m, n, r)


def test_masks_concatenate_row_wise():
    # Two source layers feeding the same targets stack without interaction.
    a = build_mask(ALL, 3, 4)
    b = build_mask(gauss(1), 4, 4)
    stacked = np.vstack([a, b])
    assert stacked.shape == (7, 4)
    assert np.array_equal(stacked[:3], a)
    assert np.array_equal(stacked[3:], b)


# --- weight memory ------------------------------------------------------------

def make_mem(conn=ALL, m=3, n=3):
    return WeightMemory(Q5_3, build_mask(conn, m, n))


def test_write_excitatory():
    mem = make_mem()
    mem.write(0, 1, encode_register(1.5, Q5_3))
    assert mem.presynaptic_weights(1)[0].value == 1.5


def test_write_inhibitory_reads_back_negative():
    mem = make_mem()
    mem.write(0, 1, encode_register(-1.5, Q5_3))
    assert mem.presynaptic_weights(1)[0].value == -1.5


def test_write_to_masked_synapse_rejected():
    mem = WeightMemory(Q5_3, build_mask(gauss(1), 4, 4))
    with pytest.raises(MaskedSynapseError):
        mem.write(0, 2, encode_register(1.0, Q5_3))
    assert mem.raw[0, 2] == 0


def test_write_out_of_range_address():
    mem = make_mem()
    with pytest.raises(IndexError):
        mem.write(3, 0, encode_register(1.0, Q5_3))
    with pytest.raises(IndexError):
        mem.presynaptic_weights(5)
    # A non-integer index names the synapse, as an out-of-range one does.
    with pytest.raises(IndexError, match=r"^synapse \(layer=0, pre=1.0, post=0\) outside 3x3$"):
        mem.write(1.0, 0, encode_register(1.0, Q5_3))
    with pytest.raises(IndexError, match=r"post=0.5\) outside"):
        mem.presynaptic_weights(0.5)
    assert not mem.raw.any()


def test_column_readback_in_pre_order():
    mem = make_mem()
    for pre, v in enumerate([1.0, -2.0, 0.5]):
        mem.write(pre, 2, encode_register(v, Q5_3))
    assert [w.value for w in mem.presynaptic_weights(2)] == [1.0, -2.0, 0.5]


def test_untouched_memory_is_zero():
    mem = make_mem()
    assert all(w.value == 0.0 for w in mem.presynaptic_weights(0))


def test_random_writes_last_write_wins():
    rng = np.random.default_rng(7)
    mem = make_mem(m=4, n=4)
    log = []
    for _ in range(200):
        pre, post = int(rng.integers(4)), int(rng.integers(4))
        v = float(rng.integers(-16, 16)) / 8.0
        mem.write(pre, post, encode_register(v, Q5_3))
        log.append((pre, post, v))
    # Replay oracle: a plain dict keyed by address.
    want = {}
    for pre, post, v in log:
        want[(pre, post)] = v
    for (pre, post), v in want.items():
        assert mem.presynaptic_weights(post)[pre].value == v


def test_sign_matches_polarity_and_magnitude_survives():
    # The word is stored as is, the range ends included: min_raw has no
    # positive counterpart in the format, so nothing may negate it.
    mem = make_mem()
    mem.write(1, 1, encode_register(-2.5, Q5_3))
    mem.write(0, 1, QWord(Q5_3, Q5_3.min_raw))
    mem.write(2, 1, QWord(Q5_3, Q5_3.max_raw))
    w = mem.presynaptic_weights(1)
    assert w[1].value == -2.5 and abs(w[1].value) == 2.5
    assert [w[0].raw, w[2].raw] == [Q5_3.min_raw, Q5_3.max_raw]


def test_write_rejects_a_word_of_another_format():
    mem = make_mem()
    with pytest.raises(ValueError, match="memory format"):
        mem.write(0, 0, encode_register(1.0, Q9_7))
    assert mem.raw[0, 0] == 0
