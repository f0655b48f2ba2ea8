import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikecore.fixedpoint import Q5_3, Q9_7, WRAP, QFormat, QWord, encode
from spikecore.neuron import (
    NeuronRegisters,
    NeuronState,
    ResetMode,
    accumulate_activation,
    fire_and_reset,
    membrane_update,
    refractory_tick,
    step_neuron,
)


def regs(fmt=Q5_3, decay=0.25, growth=1.0, vth=10.0, mode=ResetMode.BY_SUBTRACTION,
         vreset=0.0, refractory=0):
    return NeuronRegisters(
        decay_rate=encode(decay, fmt),
        growth_rate=encode(growth, fmt),
        v_threshold=encode(vth, fmt),
        reset_mode=mode,
        v_reset=encode(vreset, fmt),
        refractory_period=refractory,
    )


def state(fmt=Q5_3, vmem=0.0, act=0.0, refr=0):
    return NeuronState(encode(vmem, fmt), encode(act, fmt), refr)


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


def test_reset_mode_from_name_takes_a_mode_or_its_name():
    # An int used to raise AttributeError.
    with pytest.raises(ValueError, match="reset_mode"):
        ResetMode.from_name(3)
    assert ResetMode.from_name(ResetMode.TO_ZERO) is ResetMode.TO_ZERO
    assert ResetMode.from_name(" Zero") is ResetMode.TO_ZERO
    assert regs(mode="default").reset_mode is ResetMode.DEFAULT


# --- activation accumulation ---------------------------------------------------

def test_no_spikes_no_activation():
    s = state()
    w = [encode(v, Q5_3) for v in (3.0, -1.0, 0.5, 2.0)]
    assert accumulate_activation(s, [0, 0, 0, 0], w).value == 0.0


def test_activation_sums_spiking_weights():
    s = state()
    w = [encode(v, Q5_3) for v in (1.5, 9.0, -0.5, 9.0)]
    assert accumulate_activation(s, [1, 0, 1, 0], w).value == 1.0


def test_activation_wraps_sequentially():
    s = state()
    w = [encode(v, Q5_3) for v in (15.875, 15.875, 0.0, 0.0)]
    # sequential wrap-add oracle on raw 8-bit ints: 0+127=127, +127=254->-2
    acc = 0
    for raw in (127, 127, 0, 0):
        acc = ((acc + raw + 128) % 256) - 128
    got = accumulate_activation(s, [1, 1, 1, 1], w)
    assert got.raw == acc == -2
    assert got.value == -0.25


def test_activation_length_mismatch():
    with pytest.raises(ValueError):
        accumulate_activation(state(), [1, 0], [encode(1.0, Q5_3)])


# --- membrane update -----------------------------------------------------------

def test_update_balanced_leak_and_drive():
    s = state(vmem=8.0, act=2.0)
    assert membrane_update(s, regs(decay=0.25, growth=1.0)).value == 8.0


def test_update_mixed():
    s = state(vmem=4.0, act=4.0)
    assert membrane_update(s, regs(decay=0.125, growth=0.5)).value == 5.5


def test_q97_trajectory_tracks_float_oracle():
    fmt = Q9_7
    r = regs(fmt, decay=0.2, growth=2.5, vth=fmt.max_value)  # threshold out of reach
    s = state(fmt, vmem=0.0, act=1.0)
    # Float oracle runs the same recurrence on the decoded register values,
    # so the comparison isolates per-step datapath truncation.
    d = r.decay_rate.value
    g = r.growth_rate.value
    ref, v = [], 0.0
    got = []
    for _ in range(40):
        v = v - d * v + g * 1.0
        ref.append(v)
        membrane_update(s, r)
        got.append(s.vmem.value)
    rmse = math.sqrt(np.mean((np.array(got) - np.array(ref)) ** 2))
    assert rmse < 4 * fmt.quantum


# --- fire and reset -------------------------------------------------------------

def test_reset_by_subtraction():
    s = state(vmem=12.0)
    assert fire_and_reset(s, regs(vth=10.0)) is True
    assert s.vmem.value == 2.0


def test_reset_to_zero():
    s = state(vmem=12.0)
    assert fire_and_reset(s, regs(vth=10.0, mode=ResetMode.TO_ZERO)) is True
    assert s.vmem.value == 0.0


def test_reset_to_constant():
    s = state(vmem=12.0)
    assert fire_and_reset(s, regs(vth=10.0, mode=ResetMode.TO_CONSTANT, vreset=1.5)) is True
    assert s.vmem.value == 1.5


def test_default_reset_is_one_extra_leak_step():
    s = state(vmem=12.0)
    assert fire_and_reset(s, regs(decay=0.25, vth=10.0, mode=ResetMode.DEFAULT)) is True
    assert s.vmem.value == 9.0  # 12 - 0.25*12


def test_no_spike_below_threshold():
    s = state(vmem=9.875)
    assert fire_and_reset(s, regs(vth=10.0)) is False
    assert s.vmem.value == 9.875


def test_threshold_compare_is_geq():
    s = state(vmem=10.0)
    assert fire_and_reset(s, regs(vth=10.0)) is True


def test_spike_arms_refractory():
    s = state(vmem=12.0)
    fire_and_reset(s, regs(vth=10.0, refractory=3))
    assert s.refractory_counter == 3


# --- refractory -----------------------------------------------------------------

def test_tick_counts_down():
    s = state(refr=5)
    refractory_tick(s)
    assert s.refractory_counter == 4


def test_zero_period_allows_consecutive_spikes():
    r = regs(decay=0.0, growth=1.0, vth=1.0, mode=ResetMode.TO_ZERO, refractory=0)
    s = state()
    w = [encode(1.0, Q5_3)]
    fired = [step_neuron(s, r, [1], w) for _ in range(5)]
    assert fired == [True] * 5


def test_min_interspike_interval_is_period_plus_one():
    r = regs(decay=0.0, growth=1.0, vth=1.0, mode=ResetMode.TO_ZERO, refractory=5)
    s = state()
    w = [encode(2.0, Q5_3)]
    times = [t for t in range(100) if step_neuron(s, r, [1], w)]
    gaps = np.diff(times)
    assert len(times) > 2
    assert gaps.min() == 6


def test_membrane_held_during_refractory():
    r = regs(decay=0.25, growth=1.0, vth=15.0, refractory=4)
    s = state(vmem=8.0, refr=3)
    step_neuron(s, r, [1], [encode(2.0, Q5_3)])
    assert s.vmem.value == 8.0
    assert s.refractory_counter == 2


# --- reset-mode step-input experiment (40 cycles, decay 0.2, drive 4.0) ---------

def count_spikes(mode, fmt=Q9_7, cycles=40, drive=4.0):
    r = regs(fmt, decay=0.2, growth=1.0, vth=10.0, mode=mode, refractory=0)
    s = state(fmt)
    w = [encode(drive, fmt)]
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
        assert step_neuron(s, r, [0], [encode(1.0, Q5_3)]) is False
        assert s.vmem.value == 0.0


def test_leak_is_monotone_to_floor():
    for decay in (0.125, 0.25, 0.5, 1.0):
        r = regs(decay=decay, growth=0.0, vth=15.875)
        s = state(vmem=12.5)
        prev = s.vmem.value
        for _ in range(200):
            membrane_update(s, r)
            assert s.vmem.value <= prev
            prev = s.vmem.value
        assert prev >= 0.0
        # settled: either zero or a sub-LSB truncation floor
        before = s.vmem.value
        membrane_update(s, r)
        assert s.vmem.value == before or s.vmem.value == 0.0


def test_larger_growth_never_fewer_spikes():
    rng = np.random.default_rng(11)
    spikes = (rng.random(60) < 0.5).astype(int)
    counts = []
    for growth in (0.25, 0.5, 1.0, 2.0):
        r = regs(Q9_7, decay=0.2, growth=growth, vth=10.0)
        s = state(Q9_7)
        w = [encode(3.0, Q9_7)]
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
    w = [encode(6.0, Q9_7)]
    times = [
        t for t in range(80)
        if step_neuron(s, r, [int(rng.random() < 0.7)], w)
    ]
    assert all(b - a >= period + 1 for a, b in zip(times, times[1:]))
