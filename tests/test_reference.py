import re

import harness
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikecore.core import Core, CoreConfig, RealRegisters, _masks
from spikecore.fixedpoint import Q3_1, Q5_3, Q9_7, Q17_15, QFormat
from spikecore.neuron import ResetMode
from spikecore.reference import (
    FormatComparison,
    ReferenceCore,
    TracePair,
    format_sweep,
    matched_reference,
    rmse,
    stack_traces,
)
from spikecore.topology import Connectivity, ConnectivityKind, MaskedSynapseError

ONE = Connectivity(ConnectivityKind.ONE_TO_ONE)
ALL = Connectivity(ConnectivityKind.ALL_TO_ALL)


def one_neuron_ref(r):
    cfg = CoreConfig.uniform(Q9_7, [1, 1], r, connectivity=ONE)
    ref = ReferenceCore(cfg)
    return ref


def test_frozen_dynamics():
    ref = one_neuron_ref(harness.regs(decay_rate=0.0, growth_rate=0.0, v_threshold=100.0))
    ref.write_weight(0, 0, 0, 3.0)
    _, traces = ref.run_sample(np.ones((10, 1), dtype=bool), 10, watch="all")
    assert np.array_equal(traces[(0, 0)], np.zeros(10))


def test_constant_drive_matches_closed_form():
    d, g, drive = 0.2, 1.0, 4.0
    ref = one_neuron_ref(harness.regs(decay_rate=d, growth_rate=g, v_threshold=1e9))
    ref.write_weight(0, 0, 0, drive)
    _, traces = ref.run_sample(np.ones((40, 1), dtype=bool), 40, watch="all")
    t = np.arange(1, 41)
    closed = (g * drive / d) * (1.0 - (1.0 - d) ** t)
    assert np.allclose(traces[(0, 0)], closed, atol=1e-9)


@pytest.mark.parametrize("model", [Core, ReferenceCore])
def test_run_sample_rejects_bad_width_and_watch(model):
    sim = model(CoreConfig.uniform(Q9_7, [3, 2], harness.regs()))
    with pytest.raises(ValueError, match=r"\[T, 3\]"):
        sim.run_sample(np.ones((4, 2), dtype=bool), 4)
    # A malformed entry used to escape as a TypeError or an unpack error;
    # a list of pairs is no watch at all now.
    for entry in ((0, 1.5), (0, "a"), 5, (0,), (0, 1, 0)):
        with pytest.raises(ValueError, match="^watch must be None or 'all', got "):
            sim.run_sample(np.ones((4, 3), dtype=bool), 4, watch=[(0, 0), entry])
    with pytest.raises(ValueError, match=r"input width \(2,\)"):
        sim.step_cycle(np.ones(2, dtype=bool))
    # -1 used to raise numpy's "negative dimensions", 2.5 and "3" a TypeError.
    for duration in (-1, 2.5, "3", True):
        with pytest.raises(ValueError, match=f"^duration {duration!r} is not a whole number"):
            sim.run_sample(np.ones((4, 3), dtype=bool), duration)
    # A stimulus value is a spike only if it is 0 or 1: it used to be cast to bool.
    sim.run_sample(np.array([[0, 1, 1.0]] * 4), 4)
    for value in (2, -1, 0.5, float("nan"), None):
        stream = [[0, 1, 0] for _ in range(4)]
        stream[2][1] = value
        with pytest.raises(ValueError, match=re.escape(f"stimulus cycle 2, line 1: {value} is")):
            sim.run_sample(stream, 3)
    with pytest.raises(ValueError, match=r"^stimulus line 2: -1 is not a spike \(0 or 1\)$"):
        sim.step_cycle([1, 0, -1])


@pytest.mark.parametrize("model", [Core, ReferenceCore])
def test_write_weight_rejects_an_address_outside_the_planes(model):
    sim = model(CoreConfig.uniform(Q9_7, [3, 2], harness.regs()))
    for layer, pre, post in ((0, -1, -2), (0, 3, 0), (0, 0, 2), (-1, 0, 0), (1, 0, 0)):
        with pytest.raises(IndexError, match=rf"layer={layer}, pre={pre}, post={post}\b"):
            sim.write_weight(layer, pre, post, 1.5)
    weights = sim.decoded_weights() if model is Core else sim.weights
    assert not np.any(weights[0])


@pytest.mark.parametrize("model", [Core, ReferenceCore])
def test_a_non_integer_address_names_itself(model):
    # A float index used to raise numpy's or a list's error, naming no address.
    sim = model(CoreConfig.uniform(Q9_7, [3, 2, 2], harness.regs()))
    for layer, pre, post in ((0, 0.5, 0), (0.5, 0, 0), (1, 0, 1.0), (0, "1", 0), (None, 0, 0),
                             (0, True, 0), (0, 0, np.True_)):
        with pytest.raises(IndexError, match=re.escape(f"(layer={layer}, pre={pre}, post={post})")):
            sim.write_weight(layer, pre, post, 1.0)
    sim.write_weight(np.int64(1), np.int64(1), np.int32(1), 1.0)  # integers by operator.index
    weights = sim.decoded_weights() if model is Core else sim.weights
    assert weights[1][1, 1] == 1.0 and np.count_nonzero(weights[0]) == 0
    if model is Core:
        with pytest.raises(IndexError, match=r"^registers of layer 0.5: no such layer$"):
            sim.registers(0.5)
        with pytest.raises(IndexError, match=r"^register 'v_threshold' of layer 1.0: no such"):
            sim.write_register(1.0, "v_threshold", 2.0)
        assert sim.registers(np.int64(1)).v_threshold.value == 10.0


@pytest.mark.parametrize("model", [Core, ReferenceCore])
def test_write_weight_to_a_masked_synapse_raises_masked_synapse_error(model):
    sim = model(CoreConfig.uniform(Q9_7, [2, 2], harness.regs(), connectivity=ONE))
    with pytest.raises(MaskedSynapseError, match=r"layer=0, pre=0, post=1\b") as err:
        sim.write_weight(0, 0, 1, 1.0)
    assert err.value.addr == (0, 0, 1)
    assert isinstance(err.value, ValueError)
    sim.write_weight(0, 1, 1, 1.0)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), None, "1.0"])
def test_reference_write_weight_rejects_a_non_finite_value(value):
    ref = ReferenceCore(CoreConfig.uniform(Q9_7, [2, 2], harness.regs()))
    with pytest.raises(ValueError, match=r"layer=0, pre=1, post=0\b"):
        ref.write_weight(0, 1, 0, value)
    assert not np.any(ref.weights[0])


@pytest.mark.parametrize("build", [Core, ReferenceCore,
                                   lambda cfg: sum(int(m.sum()) for m in _masks(cfg))])
def test_a_mask_error_names_the_layer(build):
    for conn, what in ((ONE, "one-to-one"), (Connectivity("gaussian", 0), "gaussian radius 0")):
        cfg = CoreConfig(Q9_7, (4, 4, 3), (ALL, conn), (harness.regs(),) * 2)
        with pytest.raises(ValueError, match=f"^layer 1: {what} needs square dimensions, got 4x3$"):
            build(cfg)


@pytest.mark.parametrize("model", [Core, ReferenceCore])
def test_run_sample_cuts_or_zero_pads_the_stream(model):
    sim = model(CoreConfig.uniform(Q9_7, [3, 2], harness.regs(v_threshold=1.0)))
    sim.write_weight(0, 0, 1, 1.0)
    stim = np.ones((4, 3), dtype=bool)
    padded = np.vstack([stim, np.zeros((3, 3), dtype=bool)])
    for duration, want in ((7, padded), (2, stim[:2])):
        raster, traces = sim.run_sample(stim, duration, watch="all")
        assert np.array_equal(raster.input_spikes, want)
        full, full_traces = sim.run_sample(want, duration, watch="all")
        assert np.array_equal(np.hstack(raster.layers), np.hstack(full.layers))
        assert all(np.array_equal(traces[key], full_traces[key]) for key in full_traces)


@pytest.mark.parametrize("model", [Core, ReferenceCore])
def test_the_raster_holds_a_copy_of_the_stimulus(model):
    # A bool stimulus of at least `duration` rows used to come back as a
    # view, so that writing to the raster wrote to the caller's array.
    sim = model(CoreConfig.uniform(Q9_7, [3, 2], harness.regs()))
    stim = np.ones((5, 3), dtype=bool)
    for duration in (3, 5, 7):
        raster, _ = sim.run_sample(stim, duration)
        assert not np.shares_memory(raster.input_spikes, stim)
        raster.input_spikes[0, 0] = False
        assert stim.all()


@pytest.mark.parametrize("model", [Core, ReferenceCore])
def test_watch_is_none_or_all(model):
    # Traces are all or nothing.  (True, False) used to trace neuron (1, 0),
    # and pairs, arrays and generators were read as (layer, neuron) pairs.
    sim = model(CoreConfig.uniform(Q9_7, [3, 2, 3], harness.regs()))
    sim.write_weight(0, 0, 1, 1.0)
    sim.write_weight(1, 1, 2, 0.5)
    stim = np.ones((4, 3), dtype=bool)
    for watch in ([(True, False)], [(0, 0), (1, 2)], np.array([[0, 0], [0, 1]]),
                  ((0, j) for j in range(2)), "al"):
        message = f"^watch must be None or 'all', got {re.escape(repr(watch))}$"
        with pytest.raises(ValueError, match=message):
            sim.run_sample(stim, 4, watch=watch)
    assert sim.run_sample(stim, 4)[1] == {} == sim.run_sample(stim, 4, watch=None)[1]
    _, traces = sim.run_sample(stim, 4, watch="all")
    assert list(traces) == [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2)]
    for k, vmem in enumerate(sim._vmem):  # each trace ends at its own neuron's membrane
        assert [traces[(k, j)][-1] for j in range(len(vmem))] == (vmem * (1 / sim._one)).tolist()


def test_rmse_identical_traces_is_zero():
    a = np.random.default_rng(0).random((20, 3))
    assert rmse(TracePair(a, a.copy())) == 0.0


def test_rmse_constant_offset():
    a = np.zeros((10, 4))
    assert rmse(TracePair(a + 0.5, a)) == pytest.approx(0.5)


def test_rmse_empty_rejected():
    with pytest.raises(ValueError):
        rmse(TracePair(np.zeros((0, 1)), np.zeros((0, 1))))
    with pytest.raises(ValueError):
        TracePair(np.zeros((3, 1)), np.zeros((4, 1)))


def test_matched_reference_uses_decoded_values():
    cfg = CoreConfig.uniform(Q5_3, [2, 2], harness.regs(decay_rate=0.2), connectivity=ONE)
    core = Core(cfg)
    core.write_weight(0, 0, 0, 1.3)
    ref = matched_reference(core)
    assert ref.cfg.registers[0].decay_rate == 0.125  # 0.2 truncated to the Q5.3 grid
    assert ref.weights[0][0, 0] == 1.25


def sweep_once(trial, p=0.06):
    base = CoreConfig.uniform(Q9_7, [16, 8, 4], harness.regs())
    rng = np.random.default_rng(1000 + trial)
    writes = []
    for k, (m, n) in enumerate([(16, 8), (8, 4)]):
        w = rng.uniform(0.5, 1.0, size=(m, n))
        writes += [(k, i, j, float(w[i, j])) for i in range(m) for j in range(n)]
    stream = rng.random((150, 16)) < p
    return format_sweep(base, writes, stream, 150, [Q9_7, Q5_3, Q3_1])


def test_format_sweep_orders_rmse():
    for trial in range(3):
        r97, r53, r31 = sweep_once(trial)
        assert r97.fmt == Q9_7
        assert r97.rmse < r53.rmse < r31.rmse


# Recorded when each out-of-range register and weight was truncated and
# then saturated on load; clamping the reals first must give the same
# words.  Q9.7 holds every value; v_threshold (20 and -5),
# v_reset (-20 and -18.5), growth_rate 1.5 and 43 of the 112 weights in
# [-24, 24] leave Q5.3, Q3.1 or Q2.0 on one side or the other.
SWEEP_PIN = [(Q9_7, "2.93772835176133", 5), (Q5_3, "48.207640044234516", 131),
             (Q3_1, "107.11067217485846", 161), (QFormat(2, 0), "57.1326064714557", 184)]


def test_format_sweep_clamps_out_of_range_values_as_it_did():
    layers = (
        harness.regs(decay_rate=0.25, growth_rate=1.5, v_threshold=20.0,
             reset_mode=ResetMode.TO_CONSTANT, v_reset=-20.0),
        harness.regs(decay_rate=0.125, v_threshold=-5.0, reset_mode=ResetMode.TO_CONSTANT,
             v_reset=-18.5, refractory_period=1),
    )
    cfg = CoreConfig(Q9_7, (12, 8, 4), (ALL, ALL), layers)
    rng = np.random.default_rng(7)
    writes = []
    for k, (m, n) in enumerate([(12, 8), (8, 4)]):
        w = rng.uniform(-24.0, 24.0, size=(m, n))
        writes += [(k, i, j, float(w[i, j])) for i in range(m) for j in range(n)]
    stream = rng.random((60, 12)) < 0.3
    res = format_sweep(cfg, writes, stream, 60, [fmt for fmt, _, _ in SWEEP_PIN])
    assert [(c.fmt, repr(c.rmse), c.spike_mismatches) for c in res] == SWEEP_PIN
    for bad in (None, float("nan")):
        with pytest.raises(ValueError, match=f"^weight {bad} is not a finite real$"):
            format_sweep(cfg, [(0, 0, 0, bad)], stream, 60, [Q5_3])
    # A tuple used to raise AttributeError from reading its range.
    with pytest.raises(ValueError, match=r"^fmt \(5, 3\) is not a QFormat$"):
        format_sweep(cfg, [], stream, 60, [(5, 3)])


def test_wide_format_tracks_reference_tightly():
    # Per-step datapath deviation stays within a few LSB of the format.
    cfg = CoreConfig.uniform(Q17_15, [4, 3], harness.regs(v_threshold=200.0))
    core = Core(cfg)
    rng = np.random.default_rng(21)
    for i in range(4):
        for j in range(3):
            core.write_weight(0, i, j, float(rng.uniform(0.0, 2.0)))
    stream = rng.random((100, 4)) < 0.4
    _, tq = core.run_sample(stream, 100, watch="all")
    ref = matched_reference(core)
    _, tr = ref.run_sample(stream, 100, watch="all")
    err = rmse(TracePair(stack_traces(tq), stack_traces(tr)))
    assert err < 8 * Q17_15.quantum


def test_reference_mirrors_quantized_control_flow():
    # With resets and refractory active, a high-precision core and the
    # matched reference must produce the same spike raster.
    cfg = CoreConfig.uniform(
        Q17_15, [6, 5, 3],
        harness.regs(v_threshold=6.0, reset_mode=ResetMode.TO_CONSTANT, v_reset=1.0,
             refractory_period=2),
    )
    core = Core(cfg)
    rng = np.random.default_rng(31)
    for k, plane in enumerate(core.planes):
        for i in range(plane.mask.shape[0]):
            for j in range(plane.mask.shape[1]):
                core.write_weight(k, i, j, float(rng.uniform(0.0, 3.0)))
    stream = rng.random((80, 6)) < 0.5
    raster_q, _ = core.run_sample(stream, 80)
    raster_r, _ = matched_reference(core).run_sample(stream, 80)
    assert np.array_equal(np.hstack(raster_q.layers), np.hstack(raster_r.layers))


def test_spike_disagreements_sit_in_the_noise_band():
    # Sanity bound, logged not asserted: where the two models disagree on a
    # spike, the membranes at that cycle were close to the threshold.
    res = sweep_once(0, p=0.2)
    info = ", ".join(f"{c.fmt}: {c.spike_mismatches} mismatched cells" for c in res)
    print(f"spike disagreement summary: {info}")
    assert all(isinstance(c, FormatComparison) for c in res)


def eighths(lo, hi):
    return st.integers(lo, hi).map(lambda i: i / 8)


# Q17.15 and Q13.11 networks whose every datapath value lies on the 1/8
# grid and far inside the format: decay 0 or 1, growth 1, weights,
# thresholds and v_reset in eighths.  There the quantized datapath rounds
# nothing.  Q13.11 planes of up to 4 lines are float32 with a bound of 2
# active lines, so a row with more takes the float64 gather.
EXACT_REGISTERS = st.builds(
    RealRegisters,
    decay_rate=st.sampled_from((0.0, 1.0)),
    growth_rate=st.just(1.0),
    v_threshold=eighths(-16, 48),
    reset_mode=st.sampled_from(ResetMode),
    v_reset=eighths(-32, 32),
    refractory_period=st.integers(0, 3),
)
EXACT_NETWORKS = harness.networks(
    st.sampled_from((Q17_15, QFormat(13, 11))), lambda fmt: EXACT_REGISTERS,
    lambda rng, fmt, shape: rng.integers(-64, 64, shape, endpoint=True) / 8, max_cycles=20)


@given(net=EXACT_NETWORKS)
@settings(max_examples=200, deadline=None)
def test_reference_equals_core_where_the_core_is_exact(net):
    cfg, weights, stream = net
    core = Core(cfg)
    for k, w in enumerate(weights):
        for (i, j), value in np.ndenumerate(w):
            core.write_weight(k, i, j, value)
    raster_q, traces_q = core.run_sample(stream, len(stream), watch="all")
    raster_r, traces_r = matched_reference(core).run_sample(stream, len(stream), watch="all")
    assert np.array_equal(np.hstack(raster_q.layers), np.hstack(raster_r.layers))
    assert all(np.array_equal(traces_q[key], traces_r[key]) for key in traces_q)
