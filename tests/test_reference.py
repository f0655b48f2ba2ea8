import re
from dataclasses import replace

import harness
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikecore.core import Core, CoreConfig, RealRegisters, _masks
from spikecore.fixedpoint import Q3_1, Q5_3, Q9_7, Q17_15, QFormat
from spikecore.neuron import ResetMode
from spikecore.reference import ReferenceCore, TracePair, matched_reference, rmse, stack_traces
from spikecore.topology import Connectivity, ConnectivityKind, MaskedSynapseError

ONE = Connectivity(ConnectivityKind.ONE_TO_ONE)
ALL = Connectivity(ConnectivityKind.ALL_TO_ALL)


def programmed(model, cfg, writes=()):
    """A core of `cfg` given each (layer, pre, post, value) write, or its twin."""
    core = Core(cfg)
    for write in writes:
        core.write_weight(*write)
    return core if model is Core else model(core)


def weights_seen(model, core):
    """The weights of `core` as it decodes them, or as a twin built from it holds them."""
    return core.decoded_weights() if model is Core else ReferenceCore(core).weights


def one_neuron_twin(weight, **regs):
    """The twin of a Q9.7 one-neuron core of `harness.regs(**regs)`."""
    cfg = CoreConfig.uniform(Q9_7, [1, 1], harness.regs(**regs), connectivity=ONE)
    return programmed(ReferenceCore, cfg, [(0, 0, 0, weight)])


def test_frozen_dynamics():
    ref = one_neuron_twin(3.0, decay_rate=0.0, growth_rate=0.0, v_threshold=100.0)
    _, traces = ref.run_sample(np.ones((10, 1), dtype=bool), 10, watch="all")
    assert np.array_equal(traces[(0, 0)], np.zeros(10))


def test_constant_drive_matches_closed_form():
    # Q9.7 holds 1 and 4 exactly and the threshold lies above the limit
    # g * drive / d, about 20.5; 0.2 decodes to 25/128, the decay the twin runs.
    g, drive = 1.0, 4.0
    ref = one_neuron_twin(drive, decay_rate=0.2, growth_rate=g, v_threshold=250.0)
    d = ref.cfg.registers[0].decay_rate
    assert d == 25 / 128
    _, traces = ref.run_sample(np.ones((40, 1), dtype=bool), 40, watch="all")
    t = np.arange(1, 41)
    closed = (g * drive / d) * (1.0 - (1.0 - d) ** t)
    assert np.allclose(traces[(0, 0)], closed, atol=1e-9)


@pytest.mark.parametrize("model", [Core, ReferenceCore])
def test_run_sample_rejects_bad_width_and_watch(model):
    sim = programmed(model, CoreConfig.uniform(Q9_7, [3, 2], harness.regs()))
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
    # `run_batch` runs the same checks, and names the stream; an empty batch
    # used to reach numpy's "need at least one array to stack".
    with pytest.raises(ValueError, match="^empty batch: run_batch needs at least one stream$"):
        sim.run_batch([], 4)
    good = np.ones((4, 3), dtype=bool)
    with pytest.raises(ValueError, match=r"^stream 2: dense stream must be \[T, 3\], got \(3,\)$"):
        sim.run_batch([good, good, np.ones(3)], 4)
    with pytest.raises(ValueError, match=r"^stream 1: stimulus cycle 0, line 2: 2 is not a spike"):
        sim.run_batch([good, [[0, 1, 2]]], 4)
    with pytest.raises(ValueError, match="^watch must be None or 'all', got 'al'$"):
        sim.run_batch([good], 4, watch="al")
    with pytest.raises(ValueError, match="^duration -1 is not a whole number"):
        sim.run_batch([good], -1)


@pytest.mark.parametrize("model", [Core, ReferenceCore])
def test_write_weight_rejects_an_address_outside_the_planes(model):
    sim = Core(CoreConfig.uniform(Q9_7, [3, 2], harness.regs()))
    for layer, pre, post in ((0, -1, -2), (0, 3, 0), (0, 0, 2), (-1, 0, 0), (1, 0, 0)):
        with pytest.raises(IndexError, match=rf"layer={layer}, pre={pre}, post={post}\b"):
            sim.write_weight(layer, pre, post, 1.5)
    assert not np.any(weights_seen(model, sim)[0])


@pytest.mark.parametrize("model", [Core, ReferenceCore])
def test_a_non_integer_address_names_itself(model):
    # A float index used to raise numpy's or a list's error, naming no address.
    sim = Core(CoreConfig.uniform(Q9_7, [3, 2, 2], harness.regs()))
    for layer, pre, post in ((0, 0.5, 0), (0.5, 0, 0), (1, 0, 1.0), (0, "1", 0), (None, 0, 0),
                             (0, True, 0), (0, 0, np.True_)):
        with pytest.raises(IndexError, match=re.escape(f"(layer={layer}, pre={pre}, post={post})")):
            sim.write_weight(layer, pre, post, 1.0)
    sim.write_weight(np.int64(1), np.int64(1), np.int32(1), 1.0)  # integers by operator.index
    weights = weights_seen(model, sim)
    assert weights[1][1, 1] == 1.0 and np.count_nonzero(weights[0]) == 0
    with pytest.raises(IndexError, match=r"^registers of layer 0.5: no such layer$"):
        sim.registers(0.5)
    with pytest.raises(IndexError, match=r"^register 'v_threshold' of layer 1.0: no such"):
        sim.write_register(1.0, "v_threshold", 2.0)
    assert sim.registers(np.int64(1)).v_threshold.value == 10.0


@pytest.mark.parametrize("model", [Core, ReferenceCore])
def test_write_weight_to_a_masked_synapse_raises_masked_synapse_error(model):
    sim = Core(CoreConfig.uniform(Q9_7, [2, 2], harness.regs(), connectivity=ONE))
    with pytest.raises(MaskedSynapseError, match=r"layer=0, pre=0, post=1\b") as err:
        sim.write_weight(0, 0, 1, 1.0)
    assert err.value.addr == (0, 0, 1)
    assert isinstance(err.value, ValueError)
    sim.write_weight(0, 1, 1, 1.0)
    assert weights_seen(model, sim)[0].tolist() == [[0.0, 0.0], [0.0, 1.0]]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), None, "1.0"])
def test_reference_write_weight_rejects_a_non_finite_value(value):
    # A twin has no write path of its own: its weights pass Core.write_weight's checks.
    core = Core(CoreConfig.uniform(Q9_7, [2, 2], harness.regs()))
    with pytest.raises(ValueError, match=r"layer=0, pre=1, post=0\b"):
        core.write_weight(0, 1, 0, value)
    assert not np.any(ReferenceCore(core).weights[0])


def test_a_twin_is_built_only_from_a_core():
    cfg = CoreConfig.uniform(Q9_7, [2, 2], harness.regs())
    for arg in (cfg, "core", None):
        with pytest.raises(ValueError, match=f"^core {re.escape(repr(arg))} is not a Core$"):
            ReferenceCore(arg)
    assert matched_reference is ReferenceCore


def test_a_twin_is_a_snapshot_of_its_core():
    # Writes to the core after the twin is built do not reach the twin.
    cfg = CoreConfig.uniform(Q9_7, [3, 2], harness.regs(v_threshold=1.0))
    core = programmed(Core, cfg, [(0, 0, 1, 1.0), (0, 2, 0, -0.5)])
    ref, built_before = ReferenceCore(core), ReferenceCore(core)
    weights = [w.copy() for w in ref.weights]
    stim = np.random.default_rng(0).random((8, 3)) < 0.5
    raster, traces = ref.run_sample(stim, 8, watch="all")
    core.write_weight(0, 1, 1, 2.0)
    core.write_weight(0, 0, 1, -1.0)
    core.write_register(0, "v_threshold", 0.5)
    core.write_register(0, "decay_rate", 0.5)
    assert all(np.array_equal(a, b) for a, b in zip(ref.weights, weights))
    after, after_traces = ref.run_sample(stim, 8, watch="all")
    assert np.array_equal(np.hstack(after.layers), np.hstack(raster.layers))
    assert all(np.array_equal(traces[key], after_traces[key]) for key in traces)
    assert ref.cfg == built_before.cfg
    assert all(np.array_equal(a, b) for a, b in zip(ref.weights, built_before.weights))
    fresh = ReferenceCore(core)  # the writes did reach the core
    assert fresh.cfg != ref.cfg and not np.array_equal(fresh.weights[0], weights[0])


@pytest.mark.parametrize("build", [Core, lambda cfg: sum(int(m.sum()) for m in _masks(cfg))])
def test_a_mask_error_names_the_layer(build):
    for conn, what in ((ONE, "one-to-one"), (Connectivity("gaussian", 0), "gaussian radius 0")):
        cfg = CoreConfig(Q9_7, (4, 4, 3), (ALL, conn), (harness.regs(),) * 2)
        with pytest.raises(ValueError, match=f"^layer 1: {what} needs square dimensions, got 4x3$"):
            build(cfg)


@pytest.mark.parametrize("model", [Core, ReferenceCore])
def test_run_sample_cuts_or_zero_pads_the_stream(model):
    cfg = CoreConfig.uniform(Q9_7, [3, 2], harness.regs(v_threshold=1.0))
    sim = programmed(model, cfg, [(0, 0, 1, 1.0)])
    stim = np.ones((4, 3), dtype=bool)
    padded = np.vstack([stim, np.zeros((3, 3), dtype=bool)])
    for duration, want in ((7, padded), (2, stim[:2])):
        raster, traces = sim.run_sample(stim, duration, watch="all")
        assert np.array_equal(raster.input_spikes, want)
        full, full_traces = sim.run_sample(want, duration, watch="all")
        assert np.array_equal(np.hstack(raster.layers), np.hstack(full.layers))
        assert all(np.array_equal(traces[key], full_traces[key]) for key in full_traces)
    # A batch cuts or pads each of its streams as `run_sample` does.
    spikes, vmems = sim.run_batch([stim, stim[:1]], 3, watch="all")
    for i, want in enumerate((stim[:3], np.vstack([stim[:1], np.zeros((2, 3), dtype=bool)]))):
        raster, traces = sim.run_sample(want, 3, watch="all")
        assert all(np.array_equal(a[i], b) for a, b in zip(spikes, raster.layers))
        assert np.array_equal(np.hstack([v[i] for v in vmems]), stack_traces(traces))


@pytest.mark.parametrize("model", [Core, ReferenceCore])
def test_the_raster_holds_a_copy_of_the_stimulus(model):
    # A bool stimulus of at least `duration` rows used to come back as a
    # view, so that writing to the raster wrote to the caller's array.
    sim = programmed(model, CoreConfig.uniform(Q9_7, [3, 2], harness.regs()))
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
    cfg = CoreConfig.uniform(Q9_7, [3, 2, 3], harness.regs())
    sim = programmed(model, cfg, [(0, 0, 1, 1.0), (1, 1, 2, 0.5)])
    stim = np.ones((4, 3), dtype=bool)
    for watch in ([(True, False)], [(0, 0), (1, 2)], np.array([[0, 0], [0, 1]]),
                  ((0, j) for j in range(2)), "al"):
        message = f"^watch must be None or 'all', got {re.escape(repr(watch))}$"
        with pytest.raises(ValueError, match=message):
            sim.run_sample(stim, 4, watch=watch)
    assert sim.run_sample(stim, 4)[1] == {} == sim.run_sample(stim, 4, watch=None)[1]
    _, traces = sim.run_sample(stim, 4, watch="all")
    assert list(traces) == [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2)]
    # An untraced run's {} used to reach numpy's "need at least one array to stack".
    with pytest.raises(ValueError, match='^no traces to stack: .* only with watch="all"$'):
        stack_traces(sim.run_sample(stim, 4)[1])
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
    ref = ReferenceCore(core)
    assert ref.cfg.registers[0].decay_rate == 0.125  # 0.2 truncated to the Q5.3 grid
    assert ref.weights[0][0, 0] == 1.25


def format_errors(cfg, writes, stream, formats):
    """(rmse, mismatched spike cells) of a core of `cfg` in each format
    against its matched reference on `stream`.  Each (layer, pre, post,
    value) write is made as it is, so a value out of a format's range raises."""
    errors = []
    for fmt in formats:
        core = Core(replace(cfg, fmt=fmt))
        for write in writes:
            core.write_weight(*write)
        raster_q, traces_q = core.run_sample(stream, len(stream), watch="all")
        raster_r, traces_r = ReferenceCore(core).run_sample(stream, len(stream), watch="all")
        mism = sum(int(np.count_nonzero(a != b)) for a, b in zip(raster_q.layers, raster_r.layers))
        errors.append((rmse(TracePair(stack_traces(traces_q), stack_traces(traces_r))), mism))
    return errors


def test_format_sweep_orders_rmse():
    # Threshold 3 and weights in [0.5, 1) fit Q3.1 (max 3.5), so no format
    # needs a value clamped.
    cfg = CoreConfig.uniform(Q9_7, [16, 8, 4], harness.regs(v_threshold=3.0))
    for trial in range(3):
        rng = np.random.default_rng(1000 + trial)
        writes = []
        for k, (m, n) in enumerate([(16, 8), (8, 4)]):
            w = rng.uniform(0.5, 1.0, size=(m, n))
            writes += [(k, i, j, float(w[i, j])) for i in range(m) for j in range(n)]
        stream = rng.random((150, 16)) < 0.06
        (r97, _), (r53, _), (r31, _) = format_errors(cfg, writes, stream, [Q9_7, Q5_3, Q3_1])
        assert r97 < r53 < r31, trial


def test_a_q97_twin_comparison_keeps_its_pinned_error():
    # Resets to constants, a negative threshold, a refractory period,
    # growth 1.5 and weights in [-24, 24]: all in range for Q9.7, whose
    # rmse repr and mismatched spike cells are pinned.
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
    [(err, mism)] = format_errors(cfg, writes, stream, [Q9_7])
    assert (repr(err), mism) == ("2.93772835176133", 5)


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
    ref = ReferenceCore(core)
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
    raster_r, _ = ReferenceCore(core).run_sample(stream, 80)
    assert np.array_equal(np.hstack(raster_q.layers), np.hstack(raster_r.layers))


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
    raster_r, traces_r = ReferenceCore(core).run_sample(stream, len(stream), watch="all")
    assert np.array_equal(np.hstack(raster_q.layers), np.hstack(raster_r.layers))
    assert all(np.array_equal(traces_q[key], traces_r[key]) for key in traces_q)
