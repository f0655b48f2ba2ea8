import re

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
    valid_index,
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
    """Count mask entries straight from the definitions; "gauss" is the
    distance of i and j on the smaller side's index grid, in integers."""
    count = 0
    for i in range(m):
        for j in range(n):
            if kind == "all":
                count += 1
            elif kind == "one":
                count += i == j
            else:
                count += abs(i * (n - 1) - j * (m - 1)) <= r * (max(m, n) - 1)
    return count


def gauss_column_count(m, n, r, j):
    """Rows i of column j with |i*(n-1) - j*(m-1)| <= r*(max(m, n) - 1):
    the integer bounds on i, clipped to the rows.  One post sees every line."""
    if n == 1:
        return m
    c, d = j * (m - 1), r * (max(m, n) - 1)
    return max(0, min((c + d) // (n - 1), m - 1) - max(-((d - c) // (n - 1)), 0) + 1)


def test_ones_count_formulas_exhaustive():
    for m, n in ((0, 3), (3, 0)):
        with pytest.raises(ValueError, match=f"^mask dimensions must be >= 1, got {m}x{n}$"):
            build_mask(ALL, m, n)
    for m in range(1, 9):
        for n in range(1, 9):
            assert build_mask(ALL, m, n).sum() == m * n == brute_force_ones("all", m, n, 0)
            if m == n:
                assert build_mask(ONE, m, n).sum() == n
            for r in range(0 if m == n else 1, 4):  # radius 0 needs a square plane
                mask = build_mask(gauss(r), m, n)
                if m == n:  # the band |i - j| <= r, per column
                    formula = sum(max(0, min(j + r, m - 1) - max(j - r, 0) + 1)
                                  for j in range(n))
                else:
                    formula = sum(gauss_column_count(m, n, r, j) for j in range(n))
                assert mask.sum() == formula == brute_force_ones("gauss", m, n, r)


def test_gaussian_band_leaves_no_line_or_neuron_unconnected():
    # The band |i - j| <= r used to leave 126 of 256 pre lines without a
    # synapse on 256 -> 128 with r = 2, and 46 of 64 posts without input on 16 -> 64.
    for r in (1, 2, 3):
        for m in range(1, 40):
            for n in range(1, 40):
                mask = build_mask(gauss(r), m, n)
                assert mask.any(axis=1).all() and mask.any(axis=0).all(), (r, m, n)
    assert build_mask(gauss(2), 256, 128).any(axis=1).all()
    assert build_mask(gauss(2), 16, 64).any(axis=0).all()


def test_gaussian_radius0_needs_a_square_plane():
    # Radius 0 used to keep 2 synapses on 256 -> 128, leaving 126 posts bare.
    for m, n in ((256, 128), (16, 64)):
        with pytest.raises(ValueError, match=f"^gaussian radius 0 needs square dimensions, "
                                             f"got {m}x{n}$"):
            build_mask(gauss(0), m, n)
    assert np.array_equal(build_mask(gauss(0), 8, 8), np.eye(8, dtype=bool))


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


class Lane(int):
    """An int subclass: an index by operator.index, yet no raw payload."""


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
    # A non-integer index names the synapse, as an out-of-range one does, and a
    # bool, Python's or numpy's, is no index.
    for pre in (1.0, True, np.True_):
        message = rf"^synapse \(layer=0, pre={pre}, post=0\) outside 3x3$"
        with pytest.raises(IndexError, match=message):
            mem.write(pre, 0, encode_register(1.0, Q5_3))
    with pytest.raises(IndexError, match=r"^synapse \(layer=0, pre=0, post=True\) outside 3x3$"):
        mem.write(0, True, 0)
    with pytest.raises(IndexError, match=r"post=0.5\) outside"):
        mem.presynaptic_weights(0.5)
    # A column read names only the column: it used to report a pre=0 that no one passed.
    with pytest.raises(IndexError, match=r"^column \(layer=0, post=5\) outside 3x2$") as err:
        make_mem(m=3, n=2).presynaptic_weights(5)
    assert "pre=" not in str(err.value)
    # A plain int is range-checked at once; an int subclass or a numpy
    # integer goes by operator.index.
    with pytest.raises(IndexError, match=rf"^synapse \(layer=0, pre={1 << 70}, post=0\) outside"):
        mem.write(1 << 70, 0, encode_register(1.0, Q5_3))
    assert not mem.raw.any()
    assert valid_index(1 << 70, 1 << 71) and not valid_index(-(1 << 70), 3)
    for lane in (Lane, np.int64):
        mem = make_mem()
        with pytest.raises(IndexError, match=r"^synapse \(layer=0, pre=0, post=3\) outside 3x3$"):
            mem.write(lane(0), lane(3), encode_register(1.0, Q5_3))
        assert valid_index(lane(2), 3) and not valid_index(lane(3), 3)
        mem.write(lane(1), lane(2), encode_register(1.0, Q5_3))
        assert mem.raw[1, 2] == 8 and np.count_nonzero(mem.raw) == 1


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


def test_write_takes_a_raw_payload_in_range():
    mem = make_mem(gauss(1))
    for pre, post, raw in ((0, 0, Q5_3.min_raw), (1, 2, Q5_3.max_raw), (2, 1, -1)):
        mem.write(pre, post, raw)
    assert mem.raw.tolist() == [[Q5_3.min_raw, 0, 0], [0, 0, Q5_3.max_raw], [0, -1, 0]]


@pytest.mark.parametrize("payload", [0.5, np.int64(5), None, True, "1", 1.0,
                                     pytest.param(Lane(5), id="Lane(5)"),
                                     Q5_3.max_raw + 1, Q5_3.min_raw - 1, 1 << 70])
def test_write_rejects_a_payload_that_is_no_word_of_its_format(payload):
    # A float, numpy scalar or None used to raise AttributeError on `.fmt`,
    # and an int was not taken.  The payload is checked after the address
    # and before the mask.
    mem = WeightMemory(Q5_3, build_mask(gauss(1), 4, 4), layer=2)
    with pytest.raises(IndexError, match=r"^synapse \(layer=2, pre=4, post=0\) outside 4x4$"):
        mem.write(4, 0, payload)
    for pre, post in ((1, 2), (0, 2)):  # a synapse, then a masked-out one
        message = re.escape(f"synapse (layer=2, pre={pre}, post={post}): weight {payload!r} "
                            "is neither a QWord nor a raw payload of Q5.3")
        with pytest.raises(ValueError, match=f"^{message}$") as info:
            mem.write(pre, post, payload)
        assert type(info.value) is ValueError
    assert not mem.raw.any()
