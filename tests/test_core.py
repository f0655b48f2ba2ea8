import functools
import re
import sys
import threading
from dataclasses import replace
from pathlib import Path

import harness
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikecore import core as core_module
from spikecore.core import Core, CoreConfig, RealRegisters, SpikeRaster, encode_register
from spikecore.fixedpoint import (
    Q3_1, Q5_3, Q9_7, Q17_15, SATURATE, WRAP, OverflowPolicy, QFormat, QWord, fit_raw, wrap_raw,
)
from spikecore.neuron import ResetMode
from spikecore.reference import ReferenceCore, TracePair
from spikecore.topology import Connectivity, ConnectivityKind, MaskedSynapseError, WeightMemory

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import workloads  # noqa: E402

GAUSS1 = Connectivity(ConnectivityKind.GAUSSIAN, 1)
ONE = Connectivity(ConnectivityKind.ONE_TO_ONE)


def toy_core(sizes=(4, 3, 2), fmt=Q9_7, seed=3, weight_scale=2.0, regs=None, **cfg_kw):
    cfg = CoreConfig.uniform(fmt, sizes, harness.regs() if regs is None else regs, **cfg_kw)
    core = Core(cfg)
    rng = np.random.default_rng(seed)
    for k, plane in enumerate(core.planes):
        vals = rng.uniform(-weight_scale, weight_scale, size=plane.raw.shape)
        for i in range(plane.mask.shape[0]):
            for j in range(plane.mask.shape[1]):
                core.write_weight(k, i, j, float(vals[i, j]))
    return core


# --- configuration ---------------------------------------------------------

def synapse_total(core):
    return sum(int(plane.mask.sum()) for plane in core.planes)


def test_mnist_baseline_counts():
    cfg = CoreConfig.uniform(Q5_3, [256, 128, 10], harness.regs())
    assert sum(cfg.sizes) == 394
    assert synapse_total(Core(cfg)) == 34048


def test_wide_hidden_counts():
    cfg = CoreConfig.uniform(Q5_3, [256, 256, 10], harness.regs())
    assert sum(cfg.sizes) == 522
    assert synapse_total(Core(cfg)) == 68096


def test_minimal_core():
    cfg = CoreConfig.uniform(Q5_3, [1, 1], harness.regs())
    core = Core(cfg)
    assert core.cfg.n_layers == 1
    assert core.step_cycle([0]) == [np.zeros(1, dtype=bool)]


def test_policy_takes_a_member_or_its_name():
    def vmem(policy):
        core = Core(CoreConfig.uniform(Q5_3, [2, 1], harness.regs(), policy=policy))
        core.write_weight(0, 0, 0, 12.0)
        core.write_weight(0, 1, 0, 12.0)
        return core.run_sample(np.ones((1, 2), dtype=bool), 1, watch="all")[1][(0, 0)][0]

    # 12 + 12 wraps to -8 in Q5.3; saturated to 15.875, it fires and drops by 10.
    assert vmem(" Wrap") == vmem(OverflowPolicy.WRAP) == -8.0
    assert vmem("saturate") == vmem(SATURATE) == 5.875
    for bad in (3, "wrapp", None):
        with pytest.raises(ValueError, match="policy"):
            CoreConfig.uniform(Q5_3, [2, 1], harness.regs(), policy=bad)


@pytest.mark.parametrize("build, message", [
    (lambda: CoreConfig.uniform(Q5_3, [2, 1], harness.regs(), policy="clip"),
     "unknown policy 'clip': policy must be one of: wrap, saturate"),
    (lambda: Connectivity("ring"),
     "unknown kind 'ring': kind must be one of: all, one, gaussian"),
    (lambda: harness.regs(reset_mode="sideways"),
     "unknown reset mode 'sideways': reset_mode must be one of: constant, zero, subtract, default"),
], ids=["policy", "kind", "reset_mode"])
def test_an_unknown_name_is_reported_under_its_config_field(build, message):
    # The field was once derived from the enum's class name: overflow_policy, connectivity_kind.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_invalid_dimensions():
    with pytest.raises(ValueError):
        CoreConfig.uniform(Q5_3, [4], harness.regs())
    with pytest.raises(ValueError):
        CoreConfig.uniform(Q5_3, [4, 0], harness.regs())
    with pytest.raises(ValueError, match="^layer_latency must be 0 or 1$"):
        CoreConfig.uniform(Q5_3, [4, 4], harness.regs(), layer_latency=2)
    # A bool was stored as given; now a bool raises and an integral value is an int.
    for bad in (True, np.True_, 0.5, None):
        with pytest.raises(ValueError, match="^layer_latency .* is not a whole number"):
            CoreConfig.uniform(Q5_3, [4, 4], harness.regs(), layer_latency=bad)
    for latency in (1.0, np.int64(1)):
        cfg = CoreConfig.uniform(Q5_3, [4, 4], harness.regs(), layer_latency=latency)
        assert cfg.layer_latency == 1 and type(cfg.layer_latency) is int
    # An int in place of the sizes tuple used to raise TypeError from len().
    with pytest.raises(ValueError, match="^sizes 4 is not a sequence$"):
        CoreConfig(Q5_3, 4, (GAUSS1,), (harness.regs(),))
    with pytest.raises(ValueError, match="^sizes 4 is not a sequence$"):
        CoreConfig.uniform(Q9_7, 4, harness.regs())
    # A generator of sizes used to give zero layer entries, and a count mismatch.
    cfg = CoreConfig.uniform(Q9_7, (n for n in (2, 2)), harness.regs())
    assert cfg == CoreConfig.uniform(Q9_7, (2, 2), harness.regs()) and cfg.n_layers == 1
    with pytest.raises(ValueError, match="1 LIF layers need 1 connectivity and register"):
        CoreConfig(Q5_3, (4, 4), (GAUSS1, GAUSS1), (harness.regs(),))
    # A fractional or string size used to pass, and Core then raised TypeError.
    for sizes, index in (((2, 2.5), 1), (("2", 2), 0), ((2, float("nan")), 1), ((2, -1), 1),
                         ((True, 2), 0), ((2, np.True_), 1)):
        with pytest.raises(ValueError, match=rf"sizes\[{index}\] .* is not a whole number"):
            CoreConfig.uniform(Q5_3, sizes, harness.regs())
    cfg = CoreConfig.uniform(Q5_3, (2.0, np.int64(2)), harness.regs())
    assert cfg.sizes == (2, 2) and all(type(n) is int for n in cfg.sizes)
    assert Core(cfg).planes[0].raw.shape == (2, 2)


def test_config_entries_of_the_wrong_type_name_the_field_and_layer():
    # Each used to be accepted: "all" and a dict failed with AttributeError
    # once a core was built, and NeuronRegisters built a ReferenceCore that
    # raised TypeError on its first cycle.
    good = harness.regs()
    with pytest.raises(ValueError, match="^fmt 'Q5.3' is not a QFormat$"):
        CoreConfig.uniform("Q5.3", (2, 2), good)
    for conn in ("all", {"kind": "all_to_all"}):
        with pytest.raises(ValueError, match=r"^layer 1: connectivity\[1\] .* not a Connectivity"):
            CoreConfig(Q5_3, (2, 2, 2), (ONE, conn), (good, good))
    for regs in (good.quantize(Q5_3), good.__dict__):
        with pytest.raises(ValueError, match=r"^layer 0: registers\[0\] .* not a RealRegisters$"):
            CoreConfig.uniform(Q5_3, (2, 2), regs)
    # A bare entry in place of its tuple used to raise TypeError from len().
    with pytest.raises(ValueError, match=r"^connectivity Connectivity\(.* is not a sequence$"):
        CoreConfig(Q9_7, (2, 2), ONE, (good,))
    with pytest.raises(ValueError, match=r"^registers RealRegisters\(.* is not a sequence$"):
        CoreConfig(Q9_7, (2, 2), (ONE,), good)


def test_a_core_is_built_only_from_a_core_config():
    # Each used to fail with AttributeError on its first field.
    cfg = CoreConfig.uniform(Q5_3, (2, 2), harness.regs())
    for arg in ("x", cfg.__dict__, Core(cfg)):
        with pytest.raises(ValueError, match=f"^config {re.escape(repr(arg))} is not a CoreConfig$"):
            Core(arg)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), None, "abc", "1.0",
                                   1000.0, True, np.True_])
def test_non_finite_register_or_weight_names_the_value(value):
    # 1000.0 is out of range in Q5.3 and in the toy core's Q9.7.  A bool is
    # not a real: True used to be stored as 1.0.
    with pytest.raises(ValueError, match=str(value)):
        encode_register(value, Q5_3)
    # The weight's message names the synapse, as the float twin's does.
    address = re.escape("weight of synapse (layer=1, pre=2, post=1) ")
    with pytest.raises(ValueError, match=f"^{address}.*{re.escape(str(value))}"):
        toy_core().write_weight(1, 2, 1, value)


@pytest.mark.parametrize("name", ["decay_rate", "growth_rate", "v_threshold", "v_reset"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), None, "0.5", True,
                                   np.True_])
def test_real_registers_reject_a_non_finite_value(name, value):
    # The float twin runs RealRegisters as they are: a NaN, or a bool, used to pass.
    with pytest.raises(ValueError, match=name):
        harness.regs(**{name: value})


def test_register_quantize_out_of_range():
    with pytest.raises(ValueError):
        harness.regs(v_threshold=20.0).quantize(Q5_3)


@pytest.mark.parametrize("fmt", [Q3_1, Q5_3, Q9_7, Q17_15, QFormat(2, 0), QFormat(20, 20)])
def test_encode_register_range_boundaries(fmt):
    half = fmt.quantum / 2
    assert encode_register(fmt.min_value, fmt).raw == fmt.min_raw
    assert encode_register(fmt.max_value + half, fmt).raw == fmt.max_raw  # truncates into range
    for value in (fmt.min_value - half, -fmt.min_value):
        with pytest.raises(ValueError, match="not representable"):
            encode_register(value, fmt)


def test_encode_register_takes_a_word_of_its_format_as_it_is():
    word = QWord(Q5_3, -3)
    assert encode_register(word, Q5_3) is word
    with pytest.raises(ValueError, match="^v_reset format Q5.3 != core format Q9.7$"):
        encode_register(word, Q9_7, "v_reset")


def test_write_weight_stores_the_signed_payload():
    core = Core(CoreConfig.uniform(Q5_3, [2, 2], harness.regs()))
    for pre, post, value in ((0, 0, Q5_3.min_value), (0, 1, -0.125), (1, 0, Q5_3.max_value)):
        core.write_weight(0, pre, post, value)
    core.write_weight(0, 1, 1, encode_register(-3.5, Q5_3))
    assert core.planes[0].raw.tolist() == [[Q5_3.min_raw, -1], [Q5_3.max_raw, -28]]
    with pytest.raises(ValueError, match=r"^weight of synapse \(layer=0, pre=0, post=0\) "
                                         r"format Q9\.7 != core format Q5\.3$"):
        core.write_weight(0, 0, 0, encode_register(1.0, Q9_7))


@pytest.mark.parametrize("fmt, dtype", [(Q5_3, np.float32), (QFormat(33, 31), object)])
def test_write_weight_checks_address_then_value_then_format_then_mask(fmt, dtype):
    # Each write fails two checks, and the earlier one names the error.
    core = Core(CoreConfig.uniform(fmt, [4, 4, 4], harness.regs(), GAUSS1))
    core.write_weight(1, 0, 0, -1.5)
    core.write_weight(1, 3, 2, 2.25)
    raw = core.planes[1].raw
    before = raw.copy()
    assert raw.dtype == dtype and not core.planes[1].mask[0, 2]
    nan, masked = float("nan"), re.escape("synapse (layer=1, pre=0, post=2)")
    cases = [
        ((1, 4, 0, nan), IndexError,
         re.escape("synapse (layer=1, pre=4, post=0) outside the planes of sizes (4, 4, 4)")),
        ((1, 0, 2, nan), ValueError, f"weight of {masked} nan is not a finite real"),
        ((1, 0, 2, QWord(Q9_7, 1)), ValueError,
         f"weight of {masked} format Q9\\.7 != core format {re.escape(str(fmt))}"),
        ((1, 0, 2, 1.5), MaskedSynapseError, f"{masked} is masked out"),
    ]
    for args, error, message in cases:
        with pytest.raises(error, match=f"^{message}$") as info:
            core.write_weight(*args)
        assert type(info.value) is error
        assert core.planes[1].raw is raw and raw.dtype == dtype and np.array_equal(raw, before)
    assert raw[0, 0] == -1.5 * 2**fmt.q and raw[3, 2] == 2.25 * 2**fmt.q


# One single-column core per plane kind, in formats that the conformance
# tests draw.
PLANE_KINDS = [(Q5_3, 4, np.float32), (QFormat(13, 11), 4, np.float32), (Q17_15, 4, np.float64),
               (QFormat(20, 20), 4, object)]


@functools.cache
def column_core(fmt, lines):
    return Core(CoreConfig.uniform(fmt, [lines, 1], harness.regs()))


def weight_inputs(fmt):
    """Reals on and off the grid, both range ends and one quantum past each,
    and the inputs that are no real in range or that take the checked path."""
    q, other = fmt.quantum, Q9_7 if fmt != Q9_7 else Q5_3
    cases = [fmt.min_value, fmt.max_value, fmt.min_value - q, fmt.max_value + q,
             fmt.max_value + q / 2, -0.0, 5e-324, float("nan"), float("inf"), float("-inf"),
             True, np.True_, None, "1.0", np.float32(-0.7), np.float64(1.3), np.int64(-2), 1,
             np.float16(2.0), np.float16(-1.5), np.float16(300.0), np.float16("nan"), np.int8(1),
             np.uint8(3), 2**70, QWord(fmt, fmt.min_raw), QWord(fmt, 5), QWord(other, 5)]
    return (st.sampled_from(cases) | st.integers(fmt.min_raw, fmt.max_raw).map(lambda r: r * q)
            | st.floats(2 * fmt.min_value, -2 * fmt.min_value) | st.integers(-20, 20))


@given(data=st.data())
@settings(max_examples=400, deadline=None)
def test_write_weight_stores_what_encode_register_gives_or_raises_as_it_does(data):
    # A Python float in range reaches the plane as a raw payload, any other
    # value through `encode_register`; either way the plane holds exactly
    # the word's payload, or the write raises encode_register's error under
    # the synapse's name and stores nothing.
    fmt, lines, dtype = data.draw(st.sampled_from(PLANE_KINDS))
    core, pre = column_core(fmt, lines), data.draw(st.integers(0, 3))
    value = data.draw(weight_inputs(fmt))
    plane = core.planes[0]
    plane.raw[:4] = [[3], [-3], [fmt.max_raw], [fmt.min_raw]]
    before = plane.raw[:4].copy()
    try:
        want = encode_register(value, fmt, f"weight of synapse (layer=0, pre={pre}, post=0)")
    except ValueError as err:
        with pytest.raises(ValueError) as info:
            core.write_weight(0, pre, 0, value)
        assert type(info.value) is type(err) and str(info.value) == str(err)
        assert plane.raw.dtype == dtype and np.array_equal(plane.raw[:4], before)
        return
    core.write_weight(0, pre, 0, value)
    assert core.planes[0] is plane and plane.raw.dtype == dtype
    assert plane.raw[pre, 0] == want.raw and type(plane.raw[pre, 0]) is type(before[pre, 0])
    before[pre] = want.raw
    assert np.array_equal(plane.raw[:4], before)


def test_a_real_weight_reaches_its_plane_without_a_qword(monkeypatch):
    core = Core(CoreConfig.uniform(Q5_3, [2, 2], harness.regs()))
    monkeypatch.setattr(QWord, "__post_init__", lambda self: pytest.fail("QWord built"))
    core.write_weight(0, 1, 0, -2.3)
    core.write_weight(0, 0, 1, Q5_3.max_value)
    assert core.planes[0].raw.tolist() == [[0, Q5_3.max_raw], [-19, 0]]


def test_write_register_rejects_a_word_of_another_format():
    core = Core(CoreConfig.uniform(Q5_3, [1, 1], harness.regs()))
    with pytest.raises(ValueError, match="v_threshold format Q17.15 != core format Q5.3"):
        core.write_register(0, "v_threshold", encode_register(1.0, Q17_15))
    assert core.registers(0).v_threshold.value == 10.0
    core.write_register(0, "v_threshold", encode_register(1.0, Q5_3))
    assert core.registers(0).v_threshold.value == 1.0


def test_write_register_rejects_a_layer_out_of_range():
    core = toy_core()
    for layer in (-1, 2):
        with pytest.raises(IndexError, match=f"layer {layer}"):
            core.write_register(layer, "v_threshold", 1.0)
    assert [r.v_threshold for r in core.decoded_registers()] == [10.0, 10.0]


def test_registers_rejects_a_layer_out_of_range():
    # A negative layer used to alias: registers(-1) read the last layer.
    core = Core(CoreConfig.uniform(Q9_7, [3, 2, 2], harness.regs()))
    core.write_register(1, "v_threshold", 2.0)
    for layer in (-1, -2, 2):
        with pytest.raises(IndexError, match=f"registers of layer {layer}: no such layer"):
            core.registers(layer)
    assert core.registers(1).v_threshold.value == 2.0


def test_registers_returns_the_stored_file(monkeypatch):
    # It used to build a new NeuronRegisters, and four QWords, per call.
    core = toy_core()
    first = core.registers(0)
    monkeypatch.setattr(QWord, "__post_init__", lambda self: pytest.fail("QWord built"))
    assert core.registers(0) is first and core.registers(1) is core.registers(1)
    monkeypatch.undo()
    core.write_register(0, "v_threshold", 2.0)
    assert core.registers(0) is core.registers(0) is not first
    assert core.registers(0) == replace(first, v_threshold=encode_register(2.0, Q9_7))
    assert core.decoded_registers()[0].v_threshold == 2.0


@pytest.mark.parametrize("value", [None, "abc", "0.5"])
def test_a_register_value_that_is_not_a_real_names_the_register(value):
    # None and "abc" used to raise TypeError or "could not convert string
    # to float" from float(), and "0.5" was accepted.
    core = Core(CoreConfig.uniform(Q5_3, [2, 2], harness.regs()))
    before = core.registers(0)
    for name in ("decay_rate", "growth_rate", "v_threshold", "v_reset"):
        with pytest.raises(ValueError, match=f"^{name} .* is not a finite real$"):
            core.write_register(0, name, value)
    assert core.registers(0) is before


def test_an_out_of_range_register_or_weight_names_it():
    core = Core(CoreConfig.uniform(Q5_3, [2, 2], harness.regs()))
    with pytest.raises(ValueError, match=r"^v_threshold 20.0 not representable in Q5\.3"):
        core.write_register(0, "v_threshold", 20.0)
    with pytest.raises(ValueError, match=r"^weight of synapse \(layer=0, pre=1, post=1\) "
                                         r"-17.0 not representable in Q5\.3"):
        core.write_weight(0, 1, 1, -17.0)
    with pytest.raises(ValueError, match=r"^growth_rate 20.0 not representable in Q5\.3"):
        harness.regs(growth_rate=20.0).quantize(Q5_3)


def test_a_config_register_out_of_range_names_its_layer():
    # The message used to leave out which layer's register file was at fault.
    ok = harness.regs()
    for name in ("v_threshold", "v_reset"):
        bad = harness.regs(**{name: 1000.0})
        with pytest.raises(ValueError, match=rf"^layer 1: {name} 1000\.0 not representable "
                                             r"in Q9\.7"):
            Core(CoreConfig(Q9_7, (2, 2, 2), (core_module.ALL_TO_ALL,) * 2, (ok, bad)))


def test_an_int_register_or_weight_stays_exact():
    # float() used to round 2**55 + 1 to 2**55 before quantizing.
    fmt, big = QFormat(60, 4), 2**55 + 1
    core = Core(CoreConfig.uniform(fmt, [1, 1], harness.regs()))
    core.write_register(0, "v_threshold", big)
    core.write_weight(0, 0, 0, big)
    assert core.registers(0).v_threshold.raw == core.planes[0].raw[0, 0] == big << fmt.q


def exact_everywhere(fmt, value, raw):
    """`value` gives `raw` through `encode_register`, a `RealRegisters`-built
    core, `write_register` and `write_weight`."""
    assert encode_register(value, fmt).raw == raw
    core = Core(CoreConfig.uniform(fmt, [1, 1], harness.regs(growth_rate=value, v_threshold=value)))
    assert core.registers(0).growth_rate.raw == core.registers(0).v_threshold.raw == raw
    core.write_register(0, "v_reset", value)
    core.write_weight(0, 0, 0, value)
    assert core.registers(0).v_reset.raw == core.planes[0].raw[0, 0] == raw


@pytest.mark.parametrize("value, raw", [(np.float16(2.0), 65536), (np.float16(-1.5), -49152)])
def test_a_narrow_numpy_float_register_or_weight_is_exact(value, raw):
    # The range test and the scaling by 2**15 used to run in float16, whose
    # largest finite value is 65504: 2.0 * 2**15 overflowed to inf.
    exact_everywhere(Q17_15, value, raw)


@pytest.mark.parametrize("fmt, value", [(Q9_7, np.uint8(3)), (Q9_7, np.int8(1)),
                                        (QFormat(2, 62), np.int32(-2))], ids=str)
def test_a_narrow_numpy_integer_register_or_weight_is_exact(fmt, value):
    # The scaling by 2**q used to run in the integer's own dtype: uint8 3
    # wrapped to raw 128 in Q9.7, and the other two overflowed.
    exact_everywhere(fmt, value, int(value) << fmt.q)


def test_a_narrow_numpy_float_out_of_range_or_not_finite_names_it():
    with pytest.raises(ValueError, match=r"^value 300\.0 not representable in Q9\.7"):
        encode_register(np.float16(300.0), Q9_7)
    with pytest.raises(ValueError, match=r"^value np\.float16\(nan\) is not a finite real$"):
        encode_register(np.float16("nan"), Q9_7)


@pytest.mark.parametrize("fmt, dtype", [
    (Q5_3, np.float32), (Q9_7, np.float32), (Q17_15, np.float64),
    (QFormat(20, 20), object), (QFormat(33, 31), object),
])
def test_weight_planes_store_integer_payloads_by_width(fmt, dtype):
    # Four lines of widths <= 24 in float32, up to 32 in float64, wider
    # ones as Python ints; either way every written word reads back
    # bit-exact, and a fractional real is truncated.
    core = Core(CoreConfig.uniform(fmt, [4, 1], harness.regs()))
    assert core.planes[0].raw.dtype == dtype
    words = [QWord(fmt, fmt.min_raw), QWord(fmt, fmt.max_raw),
             encode_register(-2.5, fmt), encode_register(1.3, fmt)]
    for pre, word in enumerate(words):
        core.write_weight(0, pre, 0, word.value if pre >= 2 else word)
    raws = [w.raw for w in words]
    assert raws[3] == int(1.3 * 2**fmt.q)
    assert [w.raw for w in core.planes[0].presynaptic_weights(0)] == raws
    values = [float(r) * fmt.quantum for r in raws]
    assert core.decoded_weights()[0][:, 0].tolist() == values
    assert ReferenceCore(core).planes[0].raw[:, 0].tolist() == [float(r) for r in raws]


@pytest.mark.parametrize("fmt", [Q5_3, QFormat(20, 20)])
def test_a_fractional_payload_in_a_plane_is_read_as_an_error(fmt):
    # A value written into `raw` directly is not truncated on the way out:
    # the int64 plane used to read 1.5 back as raw 1.
    core = Core(CoreConfig.uniform(fmt, [2, 2], harness.regs()))
    core.planes[0].raw[0, 0] = 1.5
    with pytest.raises(ValueError, match=r"raw .*1\.5.* of .* is not an integer"):
        core.planes[0].presynaptic_weights(0)
    assert [w.raw for w in core.planes[0].presynaptic_weights(1)] == [0, 0]


# --- stepping ----------------------------------------------------------------

def test_zero_input_zero_state_stays_silent():
    spikes, vmem = harness.stepped(toy_core(), np.zeros((10, 4), dtype=bool))
    assert not any(a.any() for a in spikes + vmem)


def test_single_synapse_spikes_same_cycle():
    cfg = CoreConfig.uniform(
        Q5_3, [1, 1],
        RealRegisters(0.0, 1.0, 4.0, ResetMode.TO_ZERO),
        connectivity=ONE,
    )
    core = Core(cfg)
    core.write_weight(0, 0, 0, 4.0)  # weight equals the threshold
    assert core.step_cycle([1])[0][0]
    assert not core.step_cycle([0])[0][0]
    assert core.step_cycle([1])[0][0]


def test_register_write_takes_effect_next_cycle():
    cfg = CoreConfig.uniform(Q5_3, [1, 1], RealRegisters(0.0, 1.0, 4.0, ResetMode.TO_ZERO),
                             connectivity=ONE)
    core = Core(cfg)
    core.write_weight(0, 0, 0, 4.0)
    assert core.step_cycle([1])[0][0]          # spikes under the old threshold
    core.write_register(0, "v_threshold", 8.0)
    assert not core.step_cycle([1])[0][0]      # the new threshold gates cycle t+1


def test_unknown_register_and_bad_values():
    core = toy_core()
    with pytest.raises(ValueError):
        core.write_register(0, "leak", 0.5)
    with pytest.raises(ValueError):
        core.write_register(0, "v_threshold", 1000.0)  # not representable in Q9.7
    with pytest.raises(ValueError):
        core.write_register(0, "decay_rate", 1.5)
    with pytest.raises(ValueError, match=r"^decay_rate 1.5 outside \[0, 1\]$"):
        harness.regs(decay_rate=1.5)
    with pytest.raises(ValueError):
        core.write_register(0, "refractory_period", -1)


def test_refractory_period_must_be_a_whole_number_of_cycles():
    # 2.7 used to be stored as 2, 1.5 turned the counters into float64,
    # True was stored as 1, 2**63 fired on every cycle and 2**70 raised
    # OverflowError mid-run: a period must fit the int64 counters.
    core = toy_core()
    for value in (2.7, 1.5, -1, float("nan"), "3", True, np.True_, 2**63, 2**70):
        with pytest.raises(ValueError, match="refractory_period"):
            core.write_register(0, "refractory_period", value)
        with pytest.raises(ValueError, match="refractory_period"):
            harness.regs(refractory_period=value)
    assert core.registers(0).refractory_period == 0
    core.write_register(0, "refractory_period", 3.0)
    assert type(core.registers(0).refractory_period) is int
    assert type(harness.regs(refractory_period=np.int64(2)).refractory_period) is int
    regs = RealRegisters(0.0, 1.0, 1.0, refractory_period=2**63 - 1)
    held = Core(CoreConfig.uniform(Q5_3, [1, 1], regs))
    held.write_weight(0, 0, 0, 2.0)
    assert [fired for fired, _ in oracle_lockstep(held, np.ones((3, 1), dtype=bool))] == [
        True, False, False]


def test_reset_mode_write_takes_a_mode_or_its_name():
    # An int used to raise AttributeError from ResetMode.from_name.
    core = toy_core()
    for value in (3, None, 1.0):
        with pytest.raises(ValueError, match="reset_mode"):
            core.write_register(0, "reset_mode", value)
        with pytest.raises(ValueError, match="reset_mode"):
            harness.regs(reset_mode=value)
    with pytest.raises(ValueError, match="unknown reset mode"):
        core.write_register(0, "reset_mode", "sideways")
    assert core.registers(0).reset_mode is ResetMode.BY_SUBTRACTION
    core.write_register(0, "reset_mode", "zero")
    assert core.registers(0).reset_mode is ResetMode.TO_ZERO
    assert harness.regs(reset_mode="default").reset_mode is ResetMode.DEFAULT


@pytest.mark.parametrize("name, value", [
    ("refractory_period", 2.7),
    ("refractory_period", -1),
    ("refractory_period", float("nan")),
    ("refractory_period", "3"),
    ("refractory_period", 2**63),
    ("reset_mode", 3),
    ("reset_mode", None),
    ("decay_rate", QWord(Q5_3, -1)),
    ("decay_rate", QWord(Q5_3, (1 << Q5_3.q) + 1)),
    ("decay_rate", QWord(QFormat(2, 62), (1 << 62) + 1)),
])
def test_core_and_oracle_reject_a_bad_register_alike(name, value):
    # One set of rules: a register write is checked by NeuronRegisters.
    fmt = value.fmt if isinstance(value, QWord) else Q5_3
    core = Core(CoreConfig.uniform(fmt, [1, 1], harness.regs(v_threshold=1.0)))
    before = core.registers(0)
    with pytest.raises(ValueError, match=name) as from_core:
        core.write_register(0, name, value)
    with pytest.raises(ValueError) as from_oracle:
        replace(before, **{name: value})
    assert str(from_core.value) == str(from_oracle.value)
    assert core.registers(0) == before


@pytest.mark.parametrize("fmt", [Q5_3, QFormat(2, 62)])
def test_decay_rate_write_stays_in_zero_to_one(fmt):
    # The leak step is exact without clamps only for a raw decay in [0, 2**q].
    # In Q2.62 the raw 2**62 + 1 decodes to the float 1.0 and used to pass.
    core = Core(CoreConfig.uniform(fmt, [1, 1], harness.regs(v_threshold=1.0), policy=SATURATE))
    one = 1 << fmt.q
    rejected = [QWord(fmt, -1), QWord(fmt, one + 1)]
    if 1.0 + fmt.quantum > 1.0:  # a float64 real only for q <= 52
        rejected += [-fmt.quantum, 1.0 + fmt.quantum]
    for value in rejected:
        with pytest.raises(ValueError, match="decay_rate"):
            core.write_register(0, "decay_rate", value)
    for value in (0.0, fmt.quantum, 1.0, QWord(fmt, one)):
        core.write_register(0, "decay_rate", value)
    assert core.registers(0).decay_rate.raw == one


@pytest.mark.parametrize("growth", [0.0, 1.0, 1.0 + Q5_3.quantum, -1.0, -Q5_3.quantum])
@pytest.mark.parametrize("decay", [0.0, Q5_3.quantum, 1.0])
@pytest.mark.parametrize("mode", [ResetMode.DEFAULT, ResetMode.BY_SUBTRACTION])
def test_saturating_leak_at_the_range_ends_matches_the_oracle(growth, decay, mode):
    # One Q5.3 neuron whose two input lines weigh max_value and min_value,
    # so that the membrane sits at max_raw (where it fires and, in DEFAULT,
    # leaks once more) and at min_raw, and leaks from both ends.  The growth
    # sits at both ends of [0, 1], where the drive needs no clamp, and one
    # quantum outside each, where it clamps.
    regs = RealRegisters(decay, growth, Q5_3.max_value, mode)
    core = Core(CoreConfig.uniform(Q5_3, [2, 1], regs, policy=SATURATE))
    core.write_weight(0, 0, 0, Q5_3.max_value)
    core.write_weight(0, 1, 0, Q5_3.min_value)
    pattern = [[1, 0]] * 3 + [[0, 0]] * 2 + [[0, 1]] * 4 + [[0, 0]] * 3 + [[1, 1]] * 2
    steps = oracle_lockstep(core, np.array(pattern * 2, dtype=bool))
    vmem = [v for _, v in steps]
    spikes = sum(fired for fired, _ in steps)
    # With the threshold at max_value, a spike means the membrane got there.
    if growth >= 1.0:  # each line alone drives the membrane to its end
        assert spikes >= 2 and vmem.count(Q5_3.min_raw) >= 4
    elif growth == -1.0:  # line 1's drive 16.0 clamps to max_value
        assert spikes >= 2 and min(vmem) <= -Q5_3.max_raw
    elif growth == 0.0:
        assert not any(vmem)
    else:  # a drive of +-2.0 stays far from both ends
        assert spikes == 0 and min(vmem) > Q5_3.min_raw


@pytest.mark.parametrize("policy", list(OverflowPolicy))
@pytest.mark.parametrize("fmt, v_threshold", [(Q5_3, 0.0), (Q5_3, -1.0), (Q3_1, Q3_1.min_value),
                                              (Q3_1, -0.5)])
def test_subtractive_reset_at_the_range_ends_matches_the_oracle(policy, fmt, v_threshold):
    # One neuron, no leak, whose one input line weighs max_value: the first
    # cycle drives it from 0 to max_raw, where it fires.  At v_threshold 0
    # the reset value is max_raw itself, with no fit; below 0 it leaves the
    # range, so it wraps or clamps.  Later cycles reset other values.
    regs = RealRegisters(0.0, 1.0, v_threshold, ResetMode.BY_SUBTRACTION)
    core = Core(CoreConfig.uniform(fmt, [1, 1], regs, policy=policy))
    core.write_weight(0, 0, 0, fmt.max_value)
    steps = oracle_lockstep(core, np.array([[1], [0], [1], [1], [0], [1], [0], [0]], dtype=bool))
    reset = fmt.max_raw - core.registers(0).v_threshold.raw
    if reset > fmt.max_raw:
        reset = fmt.max_raw if policy is SATURATE else reset - (1 << fmt.width)
    assert steps[0] == (True, reset)


def oracle_lockstep(core, stimulus):
    """(spike, raw membrane) of neuron 0 of a one-layer core for each row of
    `stimulus`, every neuron checked on every cycle against the scalar oracle."""
    (spikes,), (vmem,) = harness.stepped(core, stimulus)
    assert harness.mismatches(core.cfg, [core.registers(0)], [core.planes[0].raw], stimulus,
                              [spikes], [vmem]) == []
    return [(bool(s), int(v)) for s, v in zip(spikes[:, 0], vmem[:, 0])]


def drive_counts(core, cycles=40):
    stim = np.ones((cycles, core.cfg.sizes[0]), dtype=bool)
    raster, _ = core.run_sample(stim, cycles)
    return sum(int(layer.sum()) for layer in raster.layers)


def test_midrun_refractory_write_drops_spike_rate():
    cfg = CoreConfig.uniform(Q9_7, [1, 1], harness.regs(), connectivity=ONE)
    core = Core(cfg)
    core.write_weight(0, 0, 0, 4.0)
    first = sum(core.step_cycle([1])[0][0] for _ in range(40))
    core.write_register(0, "refractory_period", 5)
    second = sum(core.step_cycle([1])[0][0] for _ in range(40))
    assert second < first
    assert second <= 40 // 6 + 1  # rate cap: one spike per period+1 cycles


def test_unreachable_threshold_silences():
    cfg = CoreConfig.uniform(Q9_7, [1, 1], harness.regs(growth_rate=0.5), connectivity=ONE)
    core = Core(cfg)
    core.write_weight(0, 0, 0, 4.0)   # steady state 2/0.2 = 10 >= vth
    assert drive_counts(core) > 0
    core.write_register(0, "v_threshold", Q9_7.max_value)
    assert drive_counts(core) == 0


def test_smaller_growth_register_fewer_spikes():
    # decay fixed by the shared time constant; growth scales with 1/C
    counts = []
    for growth in (1.0, 0.2):
        cfg = CoreConfig.uniform(Q9_7, [1, 1], harness.regs(growth_rate=growth),
                                 connectivity=ONE)
        core = Core(cfg)
        core.write_weight(0, 0, 0, 4.0)
        counts.append(drive_counts(core))
    assert counts[1] < counts[0]


def test_low_gain_mapping_never_spikes():
    # smallest R / largest C of the sweep: growth register 0.02
    cfg = CoreConfig.uniform(Q9_7, [1, 1], harness.regs(growth_rate=0.02), connectivity=ONE)
    core = Core(cfg)
    core.write_weight(0, 0, 0, 4.0)
    assert drive_counts(core) == 0


# --- structural invariants ------------------------------------------------------

@pytest.mark.parametrize("make", [
    lambda: WeightMemory(Q5_3, np.ones((2, 2), dtype=bool)),
    lambda: SpikeRaster(np.zeros((2, 2), dtype=bool), [np.zeros((2, 1), dtype=bool)]),
    lambda: TracePair(np.zeros((2, 1)), np.zeros((2, 1))),
], ids=["WeightMemory", "SpikeRaster", "TracePair"])
def test_an_array_holder_compares_by_identity(make):
    # A generated __eq__ compared the numpy fields, so `==` and `in` raised
    # on the truth value of an array.
    a, b = make(), make()
    assert a == a and a in [a]
    assert not a == b and a not in [b]


def test_whole_core_step_equals_isolated_layers():
    # Isolated single-layer cores fed the recorded upstream spikes, one
    # cycle late under layer_latency=1, give the same spikes and membranes.
    rng = np.random.default_rng(1)
    stim = rng.random((15, 5)) < 0.5
    for latency in (0, 1):
        core = toy_core(sizes=(5, 4, 3), seed=9, layer_latency=latency)
        raster, traces = core.run_sample(stim, 15, watch="all")
        for k in range(core.cfg.n_layers):
            iso = harness.loaded(CoreConfig.uniform(core.cfg.fmt, core.cfg.sizes[k:k + 2],
                                                    core.cfg.registers[k]), [core.planes[k].raw])
            feed = harness.upstream(stim, raster.layers, k, latency)
            iso_raster, iso_traces = iso.run_sample(feed, 15, watch="all")
            assert np.array_equal(iso_raster.layers[0], raster.layers[k]), (latency, k)
            for j in range(core.cfg.sizes[k + 1]):
                assert np.array_equal(iso_traces[(0, j)], traces[(k, j)]), (latency, k, j)


def test_state_isolation_between_samples():
    core = toy_core(sizes=(4, 3), seed=5)
    rng = np.random.default_rng(2)
    a = rng.random((20, 4)) < 0.6
    b = rng.random((20, 4)) < 0.6
    core.run_sample(a, 20)
    after_a, _ = core.run_sample(b, 20)  # run_sample resets first

    fresh = toy_core(sizes=(4, 3), seed=5)
    fresh_b, _ = fresh.run_sample(b, 20)
    assert np.array_equal(np.hstack(after_a.layers), np.hstack(fresh_b.layers))


def test_deterministic_replay():
    rng = np.random.default_rng(4)
    stim = rng.random((30, 4)) < 0.4
    r1, t1 = toy_core().run_sample(stim, 30, watch="all")
    r2, t2 = toy_core().run_sample(stim, 30, watch="all")
    assert np.array_equal(np.hstack(r1.layers), np.hstack(r2.layers))
    assert np.array_equal(t1[(0, 0)], t2[(0, 0)])


def test_layer_latency_shifts_downstream_output():
    def chain(latency):
        cfg = CoreConfig.uniform(
            Q5_3, [1, 1, 1],
            RealRegisters(0.0, 1.0, 4.0, ResetMode.TO_ZERO),
            connectivity=ONE,
            layer_latency=latency,
        )
        core = Core(cfg)
        core.write_weight(0, 0, 0, 4.0)
        core.write_weight(1, 0, 0, 4.0)
        stim = np.zeros((5, 1), dtype=bool)
        stim[0, 0] = True
        raster, _ = core.run_sample(stim, 5)
        return [np.flatnonzero(l[:, 0]).tolist() for l in raster.layers]

    assert chain(0) == [[0], [0]]       # same-cycle cascade
    assert chain(1) == [[0], [1]]       # one cycle per layer boundary


def test_thread_count_does_not_change_results():
    # `threads` and `close()` are kept, inert, for the bench's calls.
    rng = np.random.default_rng(8)
    stim = rng.random((25, 16)) < 0.4
    src = toy_core(sizes=(16, 12, 5), seed=13)
    before = threading.active_count()
    core = Core(src.cfg, threads=4)
    for k in range(core.cfg.n_layers):
        core.planes[k].raw[:] = src.planes[k].raw
    raster, _ = core.run_sample(stim, 25)
    assert threading.active_count() == before
    assert np.array_equal(np.hstack(raster.layers), np.hstack(src.run_sample(stim, 25)[0].layers))
    core.close()
    core.close()
    assert core.step_cycle(stim[0])[0].shape == (12,)


def test_next_sample_leaves_the_callers_stimulus_alone():
    core = toy_core(layer_latency=1)
    stim = np.ones((5, 4), dtype=bool)
    raster, _ = core.run_sample(stim, 5)
    core.run_sample(np.zeros((5, 4), dtype=bool), 5)
    assert stim.all() and raster.input_spikes.all()


def test_saturate_policy_core_runs():
    cfg = CoreConfig.uniform(Q5_3, [4, 3], harness.regs(), policy=OverflowPolicy.SATURATE)
    core = Core(cfg)
    for i in range(4):
        for j in range(3):
            core.write_weight(0, i, j, 15.875)
    outs = core.step_cycle([1, 1, 1, 1])
    # saturating accumulation pins act at the maximum instead of wrapping
    act = core._activation(0, np.ones(4, dtype=bool))
    assert all(int(a) == Q5_3.max_raw for a in act)
    assert outs[0].all()


@pytest.mark.parametrize("policy, fits", [(SATURATE, 0), (WRAP, 1)])
def test_drive_fits_before_a_growth_product_only_under_wrap(monkeypatch, policy, fits):
    # A SATURATE activation is in range already (`accumulate_raw`, or a
    # plain sum that passes its certificate): here four lines of 15.875
    # clamp at max_raw, one line does not, and growth 0.5 halves either.
    regs = harness.regs(growth_rate=0.5, v_threshold=Q5_3.max_value)
    cfg = CoreConfig.uniform(Q5_3, [4, 3], regs, policy=policy)
    core = harness.loaded(cfg, [np.full((4, 3), Q5_3.max_raw)])
    stimulus = np.array([[1, 1, 1, 1], [1, 0, 0, 0], [0, 0, 0, 0]] * 2, dtype=bool)
    calls, fit = [], Core._fit
    monkeypatch.setattr(Core, "_fit", lambda self, x: calls.append(x) or fit(self, x))
    for spikes in (stimulus[0], stimulus[1], stimulus):
        calls.clear()
        core._drive(0, spikes)
        assert len(calls) == fits
    assert harness.checked(core, stimulus) == []
    assert harness.sampled(core, stimulus) == []


@pytest.mark.parametrize("fmt", [Q5_3, Q17_15, QFormat(20, 20)])
@pytest.mark.parametrize("policy", list(OverflowPolicy))
def test_raster_activation_equals_the_row_path_row_by_row(monkeypatch, fmt, policy):
    # A 4096 x 40 plane, read in place by one product per raster or by the
    # row path per cycle, each forced.  The rows: all zero, one line (a
    # certified SATURATE sum), every line (one that clamps) and random
    # halves; Q20.20 planes take the row path.  SATURATE's sums are the
    # hardware's fold of each column's active lines; WRAP's are their exact
    # sums, which `_fit` brings to that fold.
    m, n = 4096, 40
    core = Core(CoreConfig.uniform(fmt, [m, n], harness.regs(), policy=policy))
    rng = np.random.default_rng(21)
    w = rng.integers(fmt.min_raw, fmt.max_raw, (m, n), endpoint=True)
    core.planes[0].raw[...] = w.astype(core.planes[0].raw.dtype)
    raster = np.zeros((5, m), dtype=bool)
    raster[1, 7] = raster[2] = True
    raster[3:] = rng.random((2, m)) < 0.5
    assert (np.maximum(w, 0).sum(axis=0) > fmt.max_raw).any()  # row 2 clamps
    rows = np.array([core._activation(0, row) for row in raster])
    for got in by_each_kernel(monkeypatch, core, raster):
        assert got.dtype == rows.dtype and np.array_equal(got, rows)
    assert core._activation(0, raster[:0]).shape == (0, n)
    for row, sums in zip(raster, rows):
        columns = w[row].T.tolist()
        if policy is WRAP:  # unreduced until the membrane's fit
            assert sums.tolist() == [sum(col) for col in columns]
            sums = core._fit(sums.copy())
        assert sums.tolist() == [python_fold(col, fmt, policy) for col in columns]


def by_each_kernel(monkeypatch, core, raster):
    """Layer 0's activation of `raster` by the product, then by the row path
    per cycle, each forced through the rule."""
    rule, out = core_module._gathers, []
    for gathers in (False, True):
        monkeypatch.setattr(core_module, "_gathers", lambda *_: gathers)
        out.append(core._activation(0, raster))
    monkeypatch.setattr(core_module, "_gathers", rule)
    return out


@pytest.mark.parametrize("policy", list(OverflowPolicy))
def test_a_sparse_raster_of_a_wide_plane_takes_the_gathers_with_the_products_bits(
        monkeypatch, policy):
    # 20 cycles at 10% density on a 1024 x 1024 Q9.7 float32 plane, as on
    # deep1024_wrap: the rule prices the gathers below the product.  Words
    # drawn over the whole range make SATURATE rows clamp.  The core and its
    # twin sum each raster by either kernel with the bits of the row path.
    fmt, m = Q9_7, 1024
    core = Core(CoreConfig.uniform(fmt, [m, m], harness.regs(), policy=policy))
    rng = np.random.default_rng(8)
    core.planes[0].raw[...] = rng.integers(fmt.min_raw, fmt.max_raw, (m, m), endpoint=True)
    raster = rng.random((20, m)) < 0.1
    plain = raster @ core.planes[0].raw.astype(np.int64)
    for cycle in (core, ReferenceCore(core)):
        rows = np.array([cycle._activation(0, row) for row in raster])
        assert np.array_equal(rows, plain) is (cycle.policy is not SATURATE)  # SATURATE clamps
        picks = harness.rule_picks(monkeypatch)
        got = cycle._activation(0, raster)
        assert picks == [True] and got.dtype == rows.dtype and np.array_equal(got, rows)
        for got in by_each_kernel(monkeypatch, cycle, raster):
            assert np.array_equal(got, rows)


@pytest.mark.parametrize("name, want", [
    ("mlp256_wrap", [False, False]),
    ("deep1024_wrap", [True, True, False]),
    ("qerr256_saturate", [False, False]),
])
def test_which_kernel_sums_each_layer_of_the_bench_networks(monkeypatch, name, want):
    # Per layer, the pick of the rule for the input raster of seed 0's
    # first pool sample: only the wide planes of deep1024_wrap take the
    # gathers, since a plane of 10 neurons costs little to multiply.
    wl = workloads.WORKLOADS[name]
    core, _ = workloads.build(wl, workloads.network_weights(wl))
    picks = harness.rule_picks(monkeypatch)
    core.run_batch([workloads.sample_stream(wl, 0, 0)], wl.cycles)  # one raster per layer
    assert picks == want


def python_fold(column, fmt, policy):
    """The hardware's adds in pre-synaptic order, on Python ints."""
    acc, lo, hi, mask = 0, fmt.min_raw, fmt.max_raw, (1 << fmt.width) - 1
    for r in column:
        acc += r
        acc = min(max(acc, lo), hi) if policy is SATURATE else ((acc - lo) & mask) + lo
    return acc


@pytest.mark.parametrize("fmt, lines, dtype, bound", [
    (Q9_7, 1024, np.float32, 512), (Q9_7, 1025, np.float64, 1025),
    (QFormat(13, 11), 4, np.float32, 2), (QFormat(13, 11), 5, np.float64, 5),
    (QFormat(14, 11), 1, np.float64, 1),
])
def test_a_plane_is_float32_while_a_half_active_row_sums_exactly(fmt, lines, dtype, bound):
    # float32 needs w <= 24 and ceil(M/2) * 2**(w-1) <= 2**24; its rows are
    # exact up to 2**(25-w) active lines, a float64 plane's up to all M.
    plane = WeightMemory(fmt, np.ones((lines, 1), dtype=bool))
    assert plane.raw.dtype == dtype and plane.active_bound == bound


@pytest.mark.parametrize("policy", list(OverflowPolicy))
def test_a_float32_plane_stays_exact_past_its_active_line_bound(monkeypatch, policy):
    # 1024 Q9.7 lines are float32 with a bound of 512 active lines.  513
    # lines at max_raw sum to 513 * 32767 = 16 809 471, odd and above 2**24:
    # no float32 equals it, so a row past the bound must sum in int64, in
    # one cycle's row and in a raster by either kernel alike.  WRAP's sums
    # are exact, and `_fit` brings them to the hardware's fold, which
    # SATURATE's are.
    fmt, m = Q9_7, 1024
    core = Core(CoreConfig.uniform(fmt, [m, 2], harness.regs(), policy=policy))
    plane = core.planes[0]
    plane.raw[:, 0], plane.raw[:, 1] = fmt.max_raw, fmt.min_raw
    assert plane.raw.dtype == np.float32 and plane.active_bound == 512
    assert 513 * fmt.max_raw == 16_809_471 > 1 << 24
    raster = np.arange(m) < np.array([[0], [512], [513], [1024]])
    columns = [[[int(x) for x in plane.raw[row, j]] for j in range(2)] for row in raster]
    folds = [[python_fold(col, fmt, policy) for col in row] for row in columns]
    want = [list(map(sum, row)) for row in columns] if policy is WRAP else folds
    for row, expected in zip(raster, want):
        assert core._activation(0, row).tolist() == expected
    for got in by_each_kernel(monkeypatch, core, raster):
        assert got.tolist() == want
        assert core._fit(got).tolist() == folds


@pytest.mark.parametrize("policy", list(OverflowPolicy))
def test_a_plane_past_the_float_bound_sums_in_int64(monkeypatch, policy):
    # 2**22 + 1 Q17.15 lines at max_raw: fan_in * 2**31 > 2**53, and the sum
    # of every line needs 54 bits, so a float64 sum would round it: the
    # plane is float64 with an active-line bound of 2**22, one line fewer,
    # and a row past it sums in int64.  The row path and both raster
    # kernels of `_activation` must give the fold's bits under SATURATE, and the exact sum under WRAP,
    # which `_fit` wraps to the fold's.  The plane is 32 MB.
    fmt, m = Q17_15, (1 << 22) + 1
    below = WeightMemory(fmt, np.broadcast_to(True, (m - 1, 1)))  # its zeros touch no page
    assert below.raw.dtype == np.float64 and below.active_bound == m - 1
    core = Core(CoreConfig.uniform(fmt, [m, 1], harness.regs(), policy=policy))
    core.planes[0].raw[...] = fmt.max_raw
    assert m * fmt.max_raw > 1 << 53 and core.planes[0].raw.dtype == np.float64
    assert core.planes[0].active_bound == 1 << 22
    fold = python_fold([fmt.max_raw] * m, fmt, policy)
    want = m * fmt.max_raw if policy is WRAP else fold
    assert core._activation(0, np.ones(m, dtype=bool)).tolist() == [want]
    raster = np.zeros((2, m), dtype=bool)
    raster[1] = True
    for got in by_each_kernel(monkeypatch, core, raster):
        assert got.tolist() == [[0], [want]]
        assert core._fit(got).tolist() == [[0], [fold]]


def test_traces_record_post_reset_value():
    cfg = CoreConfig.uniform(Q5_3, [1, 1], RealRegisters(0.0, 1.0, 4.0, ResetMode.TO_ZERO),
                             connectivity=ONE)
    core = Core(cfg)
    core.write_weight(0, 0, 0, 4.0)
    stim = np.ones((3, 1), dtype=bool)
    raster, traces = core.run_sample(stim, 3, watch="all")
    assert raster.layers[0].all()
    assert np.array_equal(traces[(0, 0)], [0.0, 0.0, 0.0])


@pytest.mark.parametrize("policy", list(OverflowPolicy))
@pytest.mark.parametrize("mode", list(ResetMode))
@pytest.mark.parametrize("decay", [0.2, 1.0])
def test_nothing_the_core_hands_out_changes_later(policy, mode, decay):
    # The LIF kernel works in place on arrays of its own: every spike
    # vector, latch, membrane, raster and trace it has handed out keeps its
    # values through later cycles, register writes and samples.  Decay and
    # growth 1.0 guard the leak, whose product `_lif` overwrites: a `_mul`
    # that returned x for a rate of 1.0 would overwrite the stored membrane.
    regs = harness.regs(decay_rate=decay, v_threshold=3.0, reset_mode=mode, v_reset=0.5,
                         refractory_period=2)
    core = toy_core((6, 5, 4, 3), Q5_3, weight_scale=4.0, regs=regs, policy=policy,
                    layer_latency=1)
    stream = np.random.default_rng(7).random((12, 6)) < 0.6
    handed_out = []

    def keep(*arrays):
        handed_out.extend((a, a.copy()) for a in arrays)

    raster, traces = core.run_sample(stream, 12, watch="all")
    keep(raster.input_spikes, *raster.layers, *traces.values())
    for t, row in enumerate(stream):
        keep(*core.step_cycle(row), *core._out, *core._vmem)
        if t == 5:
            core.write_register(0, "v_threshold", 1.0)
    core.run_sample(stream[::-1], 12, watch="all")
    assert sum(int(layer.sum()) for layer in raster.layers) > 0
    for array, copy in handed_out:
        assert np.array_equal(array, copy)


@pytest.mark.parametrize("width", range(2, 33))
def test_the_wrap_fit_equals_wrap_raw_across_int64(width):
    # WRAP's unreduced Q17.15 products reach 2**62, so the shift pair must
    # wrap any int64, not only sums near the word's range.
    fmt = QFormat(2, width - 2)
    core = Core(CoreConfig.uniform(fmt, [1, 1], RealRegisters(0.0, 0.0, 0.0)))
    info = np.iinfo(np.int64)
    x = np.random.default_rng(width).integers(info.min, info.max, 2000, endpoint=True)
    x = np.concatenate([x, [info.min, info.max, fmt.min_raw - 1, fmt.max_raw + 1, -1, 0]])
    assert core._fit(x.copy()).tolist() == wrap_raw(x.astype(object), fmt).tolist()


def test_a_wide_wrap_core_fits_through_fit_raw(monkeypatch):
    fmt = QFormat(20, 20)
    core = Core(CoreConfig.uniform(fmt, [1, 1], RealRegisters(0.0, 0.0, 0.0)))
    calls = []
    monkeypatch.setattr(core_module, "fit_raw", lambda *args: calls.append(args) or fit_raw(*args))
    x = np.array([1 << 45, -(1 << 45) - 3, fmt.max_raw + 1, 7], dtype=object)
    assert core._fit(x.copy()).tolist() == wrap_raw(x, fmt).tolist()
    assert len(calls) == 1
