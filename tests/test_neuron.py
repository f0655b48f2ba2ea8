import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikecore.core import encode_register
from spikecore.fixedpoint import Q5_3, Q9_7, QFormat, QWord
from spikecore.neuron import NeuronRegisters, NeuronState, ResetMode, step_neuron


def regs(fmt=Q5_3, decay=0.25, growth=1.0, vth=10.0, mode=ResetMode.BY_SUBTRACTION,
         vreset=0.0, refractory=0):
    return NeuronRegisters(
        decay_rate=encode_register(decay, fmt),
        growth_rate=encode_register(growth, fmt),
        v_threshold=encode_register(vth, fmt),
        reset_mode=mode,
        v_reset=encode_register(vreset, fmt),
        refractory_period=refractory,
    )


def state(fmt=Q5_3, vmem=0.0, refr=0):
    return NeuronState(encode_register(vmem, fmt), refr)


def weights(*values, fmt=Q5_3):
    return [encode_register(v, fmt) for v in values]


def quiet_step(s, r):
    """One cycle with no input lines: only the membrane update and the reset act."""
    return step_neuron(s, r, [], [])


def activation(spikes, w):
    """The activation, read as the membrane of a neuron that only integrates:
    from 0, with decay 0, growth 1 and the threshold out of reach."""
    s = state()
    assert step_neuron(s, regs(decay=0.0, growth=1.0, vth=Q5_3.max_value), spikes, w) is False
    return s.vmem


# --- register rules ------------------------------------------------------------

def test_registers_reject_a_fractional_refractory_period():
    # 1.5 used to be accepted, and the counter stepped 1.5 -> 0.5 -> -0.5.
    with pytest.raises(ValueError, match="refractory_period"):
        regs(refractory=1.5)
    assert type(regs(refractory=np.int64(2)).refractory_period) is int


def test_registers_check_the_decay_raw_in_integers():
    # In Q2.62 the raw 2**62 + 1 decodes to the float 1.0 and used to pass.
    fmt = QFormat(2, 62)
    zero = QWord(fmt, 0)
    with pytest.raises(ValueError, match="decay_rate"):
        NeuronRegisters(QWord(fmt, (1 << 62) + 1), zero, zero)
    assert NeuronRegisters(QWord(fmt, 1 << 62), zero, zero).decay_rate.raw == 1 << 62


def test_registers_need_one_format_and_a_v_reset_to_reset_to():
    zero = QWord(Q5_3, 0)
    with pytest.raises(ValueError, match="register format mismatch: Q9.7 vs Q5.3"):
        NeuronRegisters(zero, zero, zero, v_reset=QWord(Q9_7, 0))
    with pytest.raises(ValueError, match="register format mismatch: Q9.7 vs Q5.3"):
        NeuronRegisters(zero, QWord(Q9_7, 0), zero)
    with pytest.raises(ValueError, match="reset mode 'constant' needs v_reset"):
        NeuronRegisters(zero, zero, zero, ResetMode.TO_CONSTANT)
    assert NeuronRegisters(zero, zero, zero, ResetMode.TO_ZERO).v_reset is None


def test_reset_mode_from_name_takes_a_mode_or_its_name():
    # An int used to raise AttributeError.
    with pytest.raises(ValueError, match="reset_mode"):
        ResetMode.from_name(3)
    assert ResetMode.from_name(ResetMode.TO_ZERO) is ResetMode.TO_ZERO
    assert ResetMode.from_name(" Zero") is ResetMode.TO_ZERO
    assert regs(mode="default").reset_mode is ResetMode.DEFAULT


# --- activation accumulation ---------------------------------------------------

def test_no_spikes_no_activation():
    assert activation([0, 0, 0, 0], weights(3.0, -1.0, 0.5, 2.0)).value == 0.0


def test_activation_sums_spiking_weights():
    assert activation([1, 0, 1, 0], weights(1.5, 9.0, -0.5, 9.0)).value == 1.0


def test_activation_wraps_sequentially():
    # sequential wrap-add oracle on raw 8-bit ints: 0+127=127, +127=254->-2
    acc = 0
    for raw in (127, 127, 0, 0):
        acc = ((acc + raw + 128) % 256) - 128
    got = activation([1, 1, 1, 1], weights(15.875, 15.875, 0.0, 0.0))
    assert got.raw == acc == -2
    assert got.value == -0.25


def test_activation_length_mismatch():
    with pytest.raises(ValueError):
        step_neuron(state(), regs(), [1, 0], weights(1.0))


def test_step_neuron_rejects_a_word_of_another_format():
    # A weight of another format meets the Q5.3 sum, a Q9.7 membrane the Q5.3 decay.
    with pytest.raises(ValueError, match=r"^format mismatch: Q5\.3 vs Q9\.7$"):
        step_neuron(state(), regs(), [1], weights(1.0, fmt=Q9_7))
    with pytest.raises(ValueError, match=r"^format mismatch: Q5\.3 vs Q9\.7$"):
        step_neuron(state(Q9_7), regs(), [1], weights(1.0, fmt=Q9_7))


def test_register_format_is_checked_after_the_refractory_hold():
    # A held cycle reads no register, so a register file of another format
    # raises only on the first cycle that updates the membrane.
    s = state(Q9_7, vmem=2.0, refr=1)
    assert step_neuron(s, regs(), [1], weights(1.0, fmt=Q9_7)) is False
    assert s.refractory_counter == 0 and s.vmem.value == 2.0
    with pytest.raises(ValueError, match=r"^format mismatch: Q5\.3 vs Q9\.7$"):
        step_neuron(s, regs(), [1], weights(1.0, fmt=Q9_7))


# --- membrane update (one spike whose weight is the activation) ------------------

def test_update_balanced_leak_and_drive():
    s = state(vmem=8.0)
    assert step_neuron(s, regs(decay=0.25, growth=1.0), [1], weights(2.0)) is False
    assert s.vmem.value == 8.0


def test_update_mixed():
    s = state(vmem=4.0)
    assert step_neuron(s, regs(decay=0.125, growth=0.5), [1], weights(4.0)) is False
    assert s.vmem.value == 5.5


def test_q97_trajectory_tracks_float_oracle():
    fmt = Q9_7
    r = regs(fmt, decay=0.2, growth=2.5, vth=fmt.max_value)  # threshold out of reach
    s = state(fmt, vmem=0.0)
    w = weights(1.0, fmt=fmt)
    # Float oracle runs the same recurrence on the decoded register values,
    # so the comparison isolates per-step datapath truncation.
    d = r.decay_rate.value
    g = r.growth_rate.value
    ref, v = [], 0.0
    got = []
    for _ in range(40):
        v = v - d * v + g * 1.0
        ref.append(v)
        step_neuron(s, r, [1], w)
        got.append(s.vmem.value)
    rmse = math.sqrt(np.mean((np.array(got) - np.array(ref)) ** 2))
    assert rmse < 4 * fmt.quantum


# --- fire and reset (decay 0, so the update keeps the membrane) -----------------

def test_reset_by_subtraction():
    s = state(vmem=12.0)
    assert quiet_step(s, regs(decay=0.0, vth=10.0)) is True
    assert s.vmem.value == 2.0


def test_reset_to_zero():
    s = state(vmem=12.0)
    assert quiet_step(s, regs(decay=0.0, vth=10.0, mode=ResetMode.TO_ZERO)) is True
    assert s.vmem.value == 0.0


def test_reset_to_constant():
    s = state(vmem=12.0)
    r = regs(decay=0.0, vth=10.0, mode=ResetMode.TO_CONSTANT, vreset=1.5)
    assert quiet_step(s, r) is True
    assert s.vmem.value == 1.5


def test_default_reset_is_one_extra_leak_step():
    s = state(vmem=8.0)
    r = regs(decay=0.25, growth=1.0, vth=10.0, mode=ResetMode.DEFAULT)
    assert step_neuron(s, r, [1], weights(6.0)) is True  # updated to 8 - 0.25*8 + 6 = 12
    assert s.vmem.value == 9.0  # 12 - 0.25*12


def test_no_spike_below_threshold():
    s = state(vmem=9.875)
    assert quiet_step(s, regs(decay=0.0, vth=10.0)) is False
    assert s.vmem.value == 9.875


def test_threshold_compare_is_geq():
    s = state(vmem=10.0)
    assert quiet_step(s, regs(decay=0.0, vth=10.0)) is True


def test_spike_arms_refractory():
    s = state(vmem=12.0)
    quiet_step(s, regs(decay=0.0, vth=10.0, refractory=3))
    assert s.refractory_counter == 3


def test_subthreshold_update_leaves_refractory_disarmed():
    # Only a spike arms the counter: an update below threshold leaves it at 0,
    # so the next cycle updates the membrane again.
    r = regs(decay=0.0, growth=1.0, vth=10.0, refractory=3)
    s = state(vmem=4.0)
    assert step_neuron(s, r, [1], weights(2.0)) is False
    assert s.refractory_counter == 0 and s.vmem.value == 6.0
    assert step_neuron(s, r, [1], weights(2.0)) is False
    assert s.vmem.value == 8.0


# --- refractory -----------------------------------------------------------------

def test_tick_counts_down():
    s = state(refr=5)
    assert step_neuron(s, regs(), [1], weights(12.0)) is False
    assert s.refractory_counter == 4


def test_zero_period_allows_consecutive_spikes():
    r = regs(decay=0.0, growth=1.0, vth=1.0, mode=ResetMode.TO_ZERO, refractory=0)
    s = state()
    w = [encode_register(1.0, Q5_3)]
    fired = [step_neuron(s, r, [1], w) for _ in range(5)]
    assert fired == [True] * 5


def test_min_interspike_interval_is_period_plus_one():
    r = regs(decay=0.0, growth=1.0, vth=1.0, mode=ResetMode.TO_ZERO, refractory=5)
    s = state()
    w = [encode_register(2.0, Q5_3)]
    times = [t for t in range(100) if step_neuron(s, r, [1], w)]
    gaps = np.diff(times)
    assert len(times) > 2
    assert gaps.min() == 6


def test_membrane_held_during_refractory():
    r = regs(decay=0.25, growth=1.0, vth=15.0, refractory=4)
    s = state(vmem=8.0, refr=3)
    step_neuron(s, r, [1], [encode_register(2.0, Q5_3)])
    assert s.vmem.value == 8.0
    assert s.refractory_counter == 2


# --- reset-mode step-input experiment (40 cycles, decay 0.2, drive 4.0) ---------

def count_spikes(mode, fmt=Q9_7, cycles=40, drive=4.0):
    r = regs(fmt, decay=0.2, growth=1.0, vth=10.0, mode=mode, refractory=0)
    s = state(fmt)
    w = [encode_register(drive, fmt)]
    return sum(step_neuron(s, r, [1], w) for _ in range(cycles))


def test_reset_mode_spike_count_ordering():
    default = count_spikes(ResetMode.DEFAULT)
    subtract = count_spikes(ResetMode.BY_SUBTRACTION)
    zero = count_spikes(ResetMode.TO_ZERO)
    assert default > subtract > zero
    # Continuous excitation keeps the DEFAULT-mode neuron firing every cycle
    # once it first crosses, giving 37 of 40 possible spikes at this drive.
    assert default == 37


# --- invariants -------------------------------------------------------------------

def test_zero_input_fixed_point():
    r = regs(decay=0.25, growth=1.0, vth=10.0)
    s = state()
    for _ in range(50):
        assert step_neuron(s, r, [0], [encode_register(1.0, Q5_3)]) is False
        assert s.vmem.value == 0.0


def test_leak_is_monotone_to_floor():
    for decay in (0.125, 0.25, 0.5, 1.0):
        r = regs(decay=decay, growth=0.0, vth=15.875)
        s = state(vmem=12.5)
        prev = s.vmem.value
        for _ in range(200):
            quiet_step(s, r)
            assert s.vmem.value <= prev
            prev = s.vmem.value
        assert prev >= 0.0
        # settled: either zero or a sub-LSB truncation floor
        before = s.vmem.value
        quiet_step(s, r)
        assert s.vmem.value == before or s.vmem.value == 0.0


def test_larger_growth_never_fewer_spikes():
    rng = np.random.default_rng(11)
    spikes = (rng.random(60) < 0.5).astype(int)
    counts = []
    for growth in (0.25, 0.5, 1.0, 2.0):
        r = regs(Q9_7, decay=0.2, growth=growth, vth=10.0)
        s = state(Q9_7)
        w = [encode_register(3.0, Q9_7)]
        counts.append(sum(step_neuron(s, r, [int(x)], w) for x in spikes))
    assert all(a <= b for a, b in zip(counts, counts[1:]))


@given(
    period=st.integers(0, 8),
    decay=st.sampled_from([0.0, 0.125, 0.25, 0.5]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_refractory_invariant_random_streams(period, decay, seed):
    rng = np.random.default_rng(seed)
    r = regs(Q9_7, decay=decay, growth=1.0, vth=4.0, refractory=period)
    s = state(Q9_7)
    w = [encode_register(6.0, Q9_7)]
    times = [
        t for t in range(80)
        if step_neuron(s, r, [int(rng.random() < 0.7)], w)
    ]
    assert all(b - a >= period + 1 for a, b in zip(times, times[1:]))
