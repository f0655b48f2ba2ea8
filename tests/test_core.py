import re
import threading
from dataclasses import replace

import numpy as np
import pytest

from spikecore import core as core_module
from spikecore.core import Core, CoreConfig, RealRegisters, encode_register
from spikecore.fixedpoint import (
    Q3_1, Q5_3, Q9_7, Q17_15, SATURATE, OverflowPolicy, QFormat, QWord, fit_raw, wrap_raw,
)
from spikecore.neuron import NeuronState, ResetMode, step_neuron
from spikecore.reference import matched_reference
from spikecore.topology import Connectivity, ConnectivityKind, WeightMemory

GAUSS1 = Connectivity(ConnectivityKind.GAUSSIAN, 1)
ONE = Connectivity(ConnectivityKind.ONE_TO_ONE)


def baseline_regs(**kw):
    args = dict(decay_rate=0.2, growth_rate=1.0, v_threshold=10.0,
                reset_mode=ResetMode.BY_SUBTRACTION, v_reset=0.0, refractory_period=0)
    args.update(kw)
    return RealRegisters(**args)


def toy_core(sizes=(4, 3, 2), fmt=Q9_7, seed=3, weight_scale=2.0, regs=None, **cfg_kw):
    cfg = CoreConfig.uniform(fmt, sizes, baseline_regs() if regs is None else regs, **cfg_kw)
    core = Core(cfg)
    rng = np.random.default_rng(seed)
    for k, plane in enumerate(core.planes):
        vals = rng.uniform(-weight_scale, weight_scale, size=plane.raw.shape)
        for i in range(plane.m):
            for j in range(plane.n):
                core.write_weight(k, i, j, float(vals[i, j]))
    return core


# --- configuration ---------------------------------------------------------

def synapse_total(core):
    return sum(int(plane.mask.sum()) for plane in core.planes)


def test_mnist_baseline_counts():
    cfg = CoreConfig.uniform(Q5_3, [256, 128, 10], baseline_regs())
    assert sum(cfg.sizes) == 394
    assert synapse_total(Core(cfg)) == 34048


def test_wide_hidden_counts():
    cfg = CoreConfig.uniform(Q5_3, [256, 256, 10], baseline_regs())
    assert sum(cfg.sizes) == 522
    assert synapse_total(Core(cfg)) == 68096


def test_minimal_core():
    cfg = CoreConfig.uniform(Q5_3, [1, 1], baseline_regs())
    core = Core(cfg)
    assert core.cfg.n_layers == 1
    assert core.step_cycle([0]) == [np.zeros(1, dtype=bool)]


def test_policy_takes_a_member_or_its_name():
    def vmem(policy):
        core = Core(CoreConfig.uniform(Q5_3, [2, 1], baseline_regs(), policy=policy))
        core.write_weight(0, 0, 0, 12.0)
        core.write_weight(0, 1, 0, 12.0)
        return core.run_sample(np.ones((1, 2), dtype=bool), 1, watch="all")[1][(0, 0)][0]

    # 12 + 12 wraps to -8 in Q5.3; saturated to 15.875, it fires and drops by 10.
    assert vmem(" Wrap") == vmem(OverflowPolicy.WRAP) == -8.0
    assert vmem("saturate") == vmem(SATURATE) == 5.875
    for bad in (3, "wrapp", None):
        with pytest.raises(ValueError, match="policy"):
            CoreConfig.uniform(Q5_3, [2, 1], baseline_regs(), policy=bad)


def test_invalid_dimensions():
    with pytest.raises(ValueError):
        CoreConfig.uniform(Q5_3, [4], baseline_regs())
    with pytest.raises(ValueError):
        CoreConfig.uniform(Q5_3, [4, 0], baseline_regs())
    with pytest.raises(ValueError, match="^layer_latency must be 0 or 1$"):
        CoreConfig.uniform(Q5_3, [4, 4], baseline_regs(), layer_latency=2)
    # A bool was stored as given; now a bool raises and an integral value is an int.
    for bad in (True, np.True_, 0.5, None):
        with pytest.raises(ValueError, match="^layer_latency .* is not a whole number"):
            CoreConfig.uniform(Q5_3, [4, 4], baseline_regs(), layer_latency=bad)
    for latency in (1.0, np.int64(1)):
        cfg = CoreConfig.uniform(Q5_3, [4, 4], baseline_regs(), layer_latency=latency)
        assert cfg.layer_latency == 1 and type(cfg.layer_latency) is int
    # An int in place of the sizes tuple used to raise TypeError from len().
    with pytest.raises(ValueError, match="^sizes 4 is not a sequence$"):
        CoreConfig(Q5_3, 4, (GAUSS1,), (baseline_regs(),))
    with pytest.raises(ValueError, match="^sizes 4 is not a sequence$"):
        CoreConfig.uniform(Q9_7, 4, baseline_regs())
    with pytest.raises(ValueError, match="1 LIF layers need 1 connectivity and register"):
        CoreConfig(Q5_3, (4, 4), (GAUSS1, GAUSS1), (baseline_regs(),))
    # A fractional or string size used to pass, and Core then raised TypeError.
    for sizes, index in (((2, 2.5), 1), (("2", 2), 0), ((2, float("nan")), 1), ((2, -1), 1),
                         ((True, 2), 0), ((2, np.True_), 1)):
        with pytest.raises(ValueError, match=rf"sizes\[{index}\] .* is not a whole number"):
            CoreConfig.uniform(Q5_3, sizes, baseline_regs())
    cfg = CoreConfig.uniform(Q5_3, (2.0, np.int64(2)), baseline_regs())
    assert cfg.sizes == (2, 2) and all(type(n) is int for n in cfg.sizes)
    assert Core(cfg).planes[0].raw.shape == (2, 2)


def test_config_entries_of_the_wrong_type_name_the_field_and_layer():
    # Each used to be accepted: "all" and a dict failed with AttributeError
    # once a core was built, and NeuronRegisters built a ReferenceCore that
    # raised TypeError on its first cycle.
    good = baseline_regs()
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
        baseline_regs(**{name: value})


def test_register_quantize_out_of_range():
    with pytest.raises(ValueError):
        baseline_regs(v_threshold=20.0).quantize(Q5_3)


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
    core = Core(CoreConfig.uniform(Q5_3, [2, 2], baseline_regs()))
    for pre, post, value in ((0, 0, Q5_3.min_value), (0, 1, -0.125), (1, 0, Q5_3.max_value)):
        core.write_weight(0, pre, post, value)
    core.write_weight(0, 1, 1, encode_register(-3.5, Q5_3))
    assert core.planes[0].raw.tolist() == [[Q5_3.min_raw, -1], [Q5_3.max_raw, -28]]
    with pytest.raises(ValueError, match=r"^weight of synapse \(layer=0, pre=0, post=0\) "
                                         r"format Q9\.7 != core format Q5\.3$"):
        core.write_weight(0, 0, 0, encode_register(1.0, Q9_7))


def test_write_register_rejects_a_word_of_another_format():
    core = Core(CoreConfig.uniform(Q5_3, [1, 1], baseline_regs()))
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
    core = Core(CoreConfig.uniform(Q9_7, [3, 2, 2], baseline_regs()))
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
    core = Core(CoreConfig.uniform(Q5_3, [2, 2], baseline_regs()))
    before = core.registers(0)
    for name in ("decay_rate", "growth_rate", "v_threshold", "v_reset"):
        with pytest.raises(ValueError, match=f"^{name} .* is not a finite real$"):
            core.write_register(0, name, value)
    assert core.registers(0) is before


def test_an_out_of_range_register_or_weight_names_it():
    core = Core(CoreConfig.uniform(Q5_3, [2, 2], baseline_regs()))
    with pytest.raises(ValueError, match=r"^v_threshold 20.0 not representable in Q5\.3"):
        core.write_register(0, "v_threshold", 20.0)
    with pytest.raises(ValueError, match=r"^weight of synapse \(layer=0, pre=1, post=1\) "
                                         r"-17.0 not representable in Q5\.3"):
        core.write_weight(0, 1, 1, -17.0)
    with pytest.raises(ValueError, match=r"^growth_rate 20.0 not representable in Q5\.3"):
        baseline_regs(growth_rate=20.0).quantize(Q5_3)


def test_an_int_register_or_weight_stays_exact():
    # float() used to round 2**55 + 1 to 2**55 before quantizing.
    fmt, big = QFormat(60, 4), 2**55 + 1
    core = Core(CoreConfig.uniform(fmt, [1, 1], baseline_regs()))
    core.write_register(0, "v_threshold", big)
    core.write_weight(0, 0, 0, big)
    assert core.registers(0).v_threshold.raw == core.planes[0].raw[0, 0] == big << fmt.q


@pytest.mark.parametrize("fmt, dtype", [
    (Q5_3, np.float64), (Q9_7, np.float64), (Q17_15, np.float64),
    (QFormat(20, 20), object), (QFormat(33, 31), object),
])
def test_weight_planes_store_integer_payloads_by_width(fmt, dtype):
    # Widths <= 32 in float64, wider ones as Python ints; either way every
    # written word reads back bit-exact, and a fractional real is truncated.
    core = Core(CoreConfig.uniform(fmt, [4, 1], baseline_regs()))
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
    assert matched_reference(core).weights[0][:, 0].tolist() == values


@pytest.mark.parametrize("fmt", [Q5_3, QFormat(20, 20)])
def test_a_fractional_payload_in_a_plane_is_read_as_an_error(fmt):
    # A value written into `raw` directly is not truncated on the way out:
    # the int64 plane used to read 1.5 back as raw 1.
    core = Core(CoreConfig.uniform(fmt, [2, 2], baseline_regs()))
    core.planes[0].raw[0, 0] = 1.5
    with pytest.raises(ValueError, match=r"raw .*1\.5.* of .* is not an integer"):
        core.planes[0].presynaptic_weights(0)
    assert [w.raw for w in core.planes[0].presynaptic_weights(1)] == [0, 0]


# --- stepping ----------------------------------------------------------------

def test_zero_input_zero_state_stays_silent():
    core = toy_core()
    vmem_before = [a.copy() for a in core._vmem]
    for _ in range(10):
        outs = core.step_cycle(np.zeros(4, dtype=bool))
        assert not any(o.any() for o in outs)
    for a, b in zip(core._vmem, vmem_before):
        assert np.array_equal(a, b)


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
        baseline_regs(decay_rate=1.5)
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
            baseline_regs(refractory_period=value)
    assert core.registers(0).refractory_period == 0
    core.write_register(0, "refractory_period", 3.0)
    assert type(core.registers(0).refractory_period) is int
    assert type(baseline_regs(refractory_period=np.int64(2)).refractory_period) is int
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
            baseline_regs(reset_mode=value)
    with pytest.raises(ValueError, match="unknown reset mode"):
        core.write_register(0, "reset_mode", "sideways")
    assert core.registers(0).reset_mode is ResetMode.BY_SUBTRACTION
    core.write_register(0, "reset_mode", "zero")
    assert core.registers(0).reset_mode is ResetMode.TO_ZERO
    assert baseline_regs(reset_mode="default").reset_mode is ResetMode.DEFAULT


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
    core = Core(CoreConfig.uniform(fmt, [1, 1], baseline_regs(v_threshold=1.0)))
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
    core = Core(CoreConfig.uniform(fmt, [1, 1], baseline_regs(v_threshold=1.0), policy=SATURATE))
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
    `stimulus`, checked cycle by cycle against `neuron.step_neuron`."""
    state, regs = NeuronState.zero(core.fmt), core.registers(0)
    column = core.planes[0].presynaptic_weights(0)
    steps = []
    for spikes in stimulus:
        fired = bool(core.step_cycle(spikes)[0][0])
        assert step_neuron(state, regs, spikes.tolist(), column, core.policy) == fired
        assert state.vmem.raw == core._vmem[0][0]
        steps.append((fired, state.vmem.raw))
    return steps


def drive_counts(core, cycles=40):
    stim = np.ones((cycles, core.cfg.sizes[0]), dtype=bool)
    raster, _ = core.run_sample(stim, cycles)
    return sum(int(layer.sum()) for layer in raster.layers)


def test_midrun_refractory_write_drops_spike_rate():
    cfg = CoreConfig.uniform(Q9_7, [1, 1], baseline_regs(), connectivity=ONE)
    core = Core(cfg)
    core.write_weight(0, 0, 0, 4.0)
    first = sum(core.step_cycle([1])[0][0] for _ in range(40))
    core.write_register(0, "refractory_period", 5)
    second = sum(core.step_cycle([1])[0][0] for _ in range(40))
    assert second < first
    assert second <= 40 // 6 + 1  # rate cap: one spike per period+1 cycles


def test_unreachable_threshold_silences():
    cfg = CoreConfig.uniform(Q9_7, [1, 1], baseline_regs(growth_rate=0.5), connectivity=ONE)
    core = Core(cfg)
    core.write_weight(0, 0, 0, 4.0)   # steady state 2/0.2 = 10 >= vth
    assert drive_counts(core) > 0
    core.write_register(0, "v_threshold", Q9_7.max_value)
    assert drive_counts(core) == 0


def test_smaller_growth_register_fewer_spikes():
    # decay fixed by the shared time constant; growth scales with 1/C
    counts = []
    for growth in (1.0, 0.2):
        cfg = CoreConfig.uniform(Q9_7, [1, 1], baseline_regs(growth_rate=growth),
                                 connectivity=ONE)
        core = Core(cfg)
        core.write_weight(0, 0, 0, 4.0)
        counts.append(drive_counts(core))
    assert counts[1] < counts[0]


def test_low_gain_mapping_never_spikes():
    # smallest R / largest C of the sweep: growth register 0.02
    cfg = CoreConfig.uniform(Q9_7, [1, 1], baseline_regs(growth_rate=0.02), connectivity=ONE)
    core = Core(cfg)
    core.write_weight(0, 0, 0, 4.0)
    assert drive_counts(core) == 0


# --- structural invariants ------------------------------------------------------

def test_whole_core_step_equals_isolated_layers():
    core = toy_core(sizes=(5, 4, 3), seed=9)
    rng = np.random.default_rng(1)
    stim = rng.random((15, 5)) < 0.5
    raster, _ = core.run_sample(stim, 15)

    # isolated single-layer cores fed the recorded upstream spikes
    for k in range(core.cfg.n_layers):
        sub = CoreConfig.uniform(core.cfg.fmt,
                                 [core.cfg.sizes[k], core.cfg.sizes[k + 1]],
                                 core.cfg.registers[k])
        iso = Core(sub)
        iso.planes[0].raw[:] = core.planes[k].raw
        feed = stim if k == 0 else raster.layers[k - 1]
        iso_raster, _ = iso.run_sample(feed, 15)
        assert np.array_equal(iso_raster.layers[0], raster.layers[k])


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
    cfg = CoreConfig.uniform(Q5_3, [4, 3], baseline_regs(), policy=OverflowPolicy.SATURATE)
    core = Core(cfg)
    for i in range(4):
        for j in range(3):
            core.write_weight(0, i, j, 15.875)
    outs = core.step_cycle([1, 1, 1, 1])
    # saturating accumulation pins act at the maximum instead of wrapping
    act = core._activation(0, np.ones(4, dtype=bool))
    assert all(int(a) == Q5_3.max_raw for a in act)
    assert outs[0].all()


@pytest.mark.parametrize("fmt", [Q5_3, Q17_15, QFormat(20, 20)])
@pytest.mark.parametrize("policy", list(OverflowPolicy))
def test_raster_activation_equals_the_row_path_row_by_row(fmt, policy):
    # A 4096 x 40 plane, read in place by one product per raster.  The
    # rows: all zero, one line (a certified SATURATE sum), every line (one
    # that clamps) and random halves; Q20.20 planes take the row path.
    # Every sum is also the hardware's fold of its column's active lines.
    m, n = 4096, 40
    core = Core(CoreConfig.uniform(fmt, [m, n], baseline_regs(), policy=policy))
    rng = np.random.default_rng(21)
    w = rng.integers(fmt.min_raw, fmt.max_raw, (m, n), endpoint=True)
    core.planes[0].raw[...] = w.astype(core.planes[0].raw.dtype)
    raster = np.zeros((5, m), dtype=bool)
    raster[1, 7] = raster[2] = True
    raster[3:] = rng.random((2, m)) < 0.5
    assert (np.maximum(w, 0).sum(axis=0) > fmt.max_raw).any()  # row 2 clamps
    rows = np.array([core._activation(0, row) for row in raster])
    got = core._activation(0, raster)
    assert got.dtype == rows.dtype and np.array_equal(got, rows)
    assert core._activation(0, raster[:0]).shape == (0, n)
    for row, sums in zip(raster, got):
        assert sums.tolist() == [python_fold(col, fmt, policy) for col in w[row].T.tolist()]


def python_fold(column, fmt, policy):
    """The hardware's adds in pre-synaptic order, on Python ints."""
    acc, lo, hi, mask = 0, fmt.min_raw, fmt.max_raw, (1 << fmt.width) - 1
    for r in column:
        acc += r
        acc = min(max(acc, lo), hi) if policy is SATURATE else ((acc - lo) & mask) + lo
    return acc


@pytest.mark.parametrize("policy", list(OverflowPolicy))
def test_a_plane_past_the_float_bound_sums_in_int64(policy):
    # 2**22 + 1 Q17.15 lines at max_raw: fan_in * 2**31 > 2**53, and the sum
    # of every line needs 54 bits, so a float64 sum would round it: the
    # plane is int64, one line fewer float64.  Both paths of `_activation`
    # must give the fold's bits.  The plane is 32 MB.
    fmt, m = Q17_15, (1 << 22) + 1
    below = WeightMemory(fmt, np.broadcast_to(True, (m - 1, 1)))  # its zeros touch no page
    assert below.raw.dtype == np.float64
    core = Core(CoreConfig.uniform(fmt, [m, 1], baseline_regs(), policy=policy))
    core.planes[0].raw[...] = fmt.max_raw
    assert m * fmt.max_raw > 1 << 53 and core.planes[0].raw.dtype == np.int64
    want = python_fold([fmt.max_raw] * m, fmt, policy)
    assert core._activation(0, np.ones(m, dtype=bool)).tolist() == [want]
    raster = np.zeros((2, m), dtype=bool)
    raster[1] = True
    assert core._activation(0, raster).tolist() == [[0], [want]]


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
def test_nothing_the_core_hands_out_changes_later(policy, mode):
    # The LIF kernel works in place on arrays of its own: every spike
    # vector, latch, membrane, raster and trace it has handed out keeps its
    # values through later cycles, register writes and samples.
    regs = baseline_regs(v_threshold=3.0, reset_mode=mode, v_reset=0.5, refractory_period=2)
    core = toy_core((6, 5, 4, 3), Q5_3, weight_scale=4.0, regs=regs, policy=policy,
                    layer_latency=1)
    stream = np.random.default_rng(7).random((12, 6)) < 0.6
    handed_out = []

    def keep(*arrays):
        handed_out.extend((a, a.copy()) for a in arrays)

    raster, traces = core.run_sample(stream, 12, watch="all")
    keep(raster.input_spikes, *raster.layers, *traces.values())
    for t, row in enumerate(stream):
        keep(*core.step_cycle(row), *core._prev_out, *core._vmem)
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
