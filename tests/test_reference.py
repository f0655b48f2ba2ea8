import functools
import re
from dataclasses import replace

import harness
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikecore.core import Core, CoreConfig, RealRegisters
from spikecore.fixedpoint import Q3_1, Q5_3, Q9_7, Q17_15, QFormat, raw_dtype
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
    if model is Core:
        return core.decoded_weights()
    return [p.raw * core.fmt.quantum for p in ReferenceCore(core).planes]


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
    with pytest.raises(ValueError, match=r"^input width \(2,\) != \(3,\)$"):
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
    # `len(streams)` used to raise TypeError for 5, None and a generator; any iterable runs.
    for streams in (5, None):
        with pytest.raises(ValueError, match=f"^streams {streams} is not a sequence$"):
            sim.run_batch(streams, 4)
    got, _ = sim.run_batch((stream for stream in (good, good[:2])), 4)
    want, _ = sim.run_batch([good, good[:2]], 4)
    assert got[0].shape == (2, 4, 2)
    assert all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))


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
    assert isinstance(err.value, ValueError)
    sim.write_weight(0, 1, 1, 1.0)
    assert weights_seen(model, sim)[0].tolist() == [[0.0, 0.0], [0.0, 1.0]]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), None, "1.0"])
def test_reference_write_weight_rejects_a_non_finite_value(value):
    # A twin has no write path of its own: its weights pass Core.write_weight's checks.
    core = Core(CoreConfig.uniform(Q9_7, [2, 2], harness.regs()))
    with pytest.raises(ValueError, match=r"layer=0, pre=1, post=0\b"):
        core.write_weight(0, 1, 0, value)
    assert not np.any(ReferenceCore(core).planes[0].raw)


def test_a_twin_is_built_only_from_a_core():
    cfg = CoreConfig.uniform(Q9_7, [2, 2], harness.regs())
    for arg in (cfg, "core", None):
        with pytest.raises(ValueError, match=f"^core {re.escape(repr(arg))} is not a Core$"):
            ReferenceCore(arg)
    assert matched_reference is ReferenceCore


def test_a_twin_is_a_snapshot_of_its_core(twin=ReferenceCore):
    # Writes to the core after the twin is built do not reach the twin.
    # `test_mutants` runs this with a twin class that shares its core's words.
    cfg = CoreConfig.uniform(Q9_7, [3, 2], harness.regs(v_threshold=1.0))
    core = programmed(Core, cfg, [(0, 0, 1, 1.0), (0, 2, 0, -0.5)])
    ref, built_before = twin(core), twin(core)
    weights = [p.raw.copy() for p in ref.planes]
    stim = np.random.default_rng(0).random((8, 3)) < 0.5
    raster, traces = ref.run_sample(stim, 8, watch="all")
    core.write_weight(0, 1, 1, 2.0)
    core.write_weight(0, 0, 1, -1.0)
    core.write_register(0, "v_threshold", 0.5)
    core.write_register(0, "decay_rate", 0.5)
    assert all(np.array_equal(a.raw, b) for a, b in zip(ref.planes, weights))
    after, after_traces = ref.run_sample(stim, 8, watch="all")
    assert np.array_equal(np.hstack(after.layers), np.hstack(raster.layers))
    assert all(np.array_equal(traces[key], after_traces[key]) for key in traces)
    assert ref.cfg == built_before.cfg
    assert all(np.array_equal(a.raw, b.raw) for a, b in zip(ref.planes, built_before.planes))
    fresh = twin(core)  # the writes did reach the core
    assert fresh.cfg != ref.cfg and not np.array_equal(fresh.planes[0].raw, weights[0])


@pytest.mark.parametrize("fmt, plane, dtype", [(Q5_3, np.float32, np.float32),
                                               (Q9_7, np.float32, np.float32),
                                               (Q17_15, np.float64, np.float64),
                                               (QFormat(24, 40), object, np.float64)])
def test_a_twin_holds_its_weights_in_its_planes_dtype(fmt, plane, dtype):
    # The twin's planes are copies of its core's, in the core's dtypes, and
    # float64 for an object plane; a copy shares only its core plane's mask.
    cfg = CoreConfig.uniform(fmt, [3, 2], harness.regs())
    core = programmed(Core, cfg, [(0, 0, 1, 1.3), (0, 2, 0, -0.5), (0, 1, 1, fmt.min_value)])
    ref, decoded = ReferenceCore(core), core.decoded_weights()
    assert core.planes[0].raw.dtype == plane and ref.planes[0].raw.dtype == dtype
    copy, own = ref.planes[0], core.planes[0]
    assert copy.mask is own.mask and not np.shares_memory(copy.raw, own.raw)
    assert all(np.array_equal(a.raw * fmt.quantum, b)
               for a, b in zip(ref.planes, decoded, strict=True))


def test_the_twin_stays_exact_past_the_float32_bound():
    # A row of more active lines than the bound is summed again in float64,
    # in a `step_cycle` row, a `run_sample` raster and a `run_batch`.
    core, stimulus = harness.float32_bound_network()
    assert core.planes[0].raw.dtype == np.float32 and core.planes[0].active_bound == 512
    assert ReferenceCore(core).planes[0].raw.dtype == np.float32
    assert harness.inexact_drivers(ReferenceCore, core, stimulus) == []


def test_a_mask_error_names_the_layer():
    for conn, what in ((ONE, "one-to-one"), (Connectivity("gaussian", 0), "gaussian radius 0")):
        cfg = CoreConfig(Q9_7, (4, 4, 3), (ALL, conn), (harness.regs(),) * 2)
        with pytest.raises(ValueError, match=f"^layer 1: {what} needs square dimensions, got 4x3$"):
            Core(cfg)


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


def test_stack_traces_orders_the_columns_by_key_not_by_insertion():
    keys = [(1, 2), (0, 1), (1, 0), (0, 0), (1, 1)]
    traces = {k: np.arange(4.0) + 10 * k[0] + k[1] for k in keys}  # [T] per neuron, as a run's
    stacked = stack_traces(traces)
    assert stacked.dtype == np.float64 and stacked.flags.c_contiguous
    assert stacked.tolist() == [[t, t + 1, t + 10, t + 11, t + 12] for t in range(4)]
    assert np.array_equal(stacked, np.stack([traces[k] for k in sorted(traces)], axis=1))


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
    assert ref.planes[0].raw[0, 0] * Q5_3.quantum == 1.25  # 1.3 truncated, raw 10


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


def stays_within_budget(net):
    """The rounding-budget check of a drawn (cfg, planes, stream)."""
    # While a neuron and its twin see the same spikes and nothing overflows,
    # they differ only in the floors of the core's products, each in [0, q):
    # e = v_core - v_twin moves as e' = (1 - d) e + f_leak - f_drive, so
    # |e| < B, where B <- (1 - d) B + q at each floor step: a cycle's update
    # of a neuron not held, and a DEFAULT reset's extra leak.  The other
    # resets keep e or set it to 0.  With growth 1 there is no drive floor,
    # so e >= 0 and a neuron's first spike mismatch is the core firing.
    # Checked up to each neuron's own mismatch, its layer's first upstream
    # mismatch or first overflow: a sum, a growth product, an update or a
    # reset by subtraction that the core would wrap or clamp.
    cfg, planes, stream = net
    fmt, q = cfg.fmt, cfg.fmt.quantum
    core = harness.loaded(cfg, planes)
    twin_spikes, twin_vmem = harness.sampled_run(ReferenceCore(core), stream)
    spikes, vmem = harness.stepped(core, stream)
    counted = harness.recount(cfg, [w.astype(raw_dtype(fmt)) for w in planes], stream, spikes, vmem)
    # The twin rounds in float64 too: a few half-ulps of the range per cycle,
    # far below the q**2 by which each floor stays under q, except in Q20.20.
    slack = 8 * np.spacing(fmt.max_value)

    def outside(x):
        return (x < fmt.min_raw) | (x > fmt.max_raw)

    for k, (total, act, update, held) in enumerate(counted):
        r, d = core.registers(k), core.decoded_registers()[k].decay_rate
        over = (act != total) | outside(r.growth_rate.raw * act >> fmt.q) | outside(update)
        if r.reset_mode is ResetMode.BY_SUBTRACTION:
            over |= spikes[k] & outside(update - r.v_threshold.raw)
        fed = [harness.upstream(stream, s, k, cfg.layer_latency) for s in (spikes, twin_spikes)]
        cut = (~held & over).any(axis=1) | (fed[0] != fed[1]).any(axis=1)
        stop = int(cut.argmax()) if cut.any() else len(stream)
        own = np.logical_or.accumulate(spikes[k] != twin_spikes[k])  # from the first mismatch on
        e = vmem[k].astype(np.float64) * q - twin_vmem[k]
        floors = [~held, spikes[k] & (r.reset_mode is ResetMode.DEFAULT)]
        bound, tol = np.zeros(cfg.sizes[k + 1]), 0.0
        growth_one = r.growth_rate.raw == 1 << fmt.q
        for t in range(stop):
            for step in floors:
                bound = np.where(step[t], (1 - d) * bound + q, bound)
            tol += slack
            ok = (np.abs(e[t]) < bound + tol) & (e[t] >= -tol if growth_one else True)
            assert (ok | own[t]).all(), (k, t)
        if growth_one:  # each first mismatch within the span is the core firing
            first = own & ~np.vstack([np.zeros_like(own[:1]), own[:-1]])
            assert spikes[k][:stop][first[:stop]].all(), k


@given(net=harness.NETWORKS)
@settings(max_examples=100, deadline=None)
def test_the_core_stays_within_its_rounding_budget_of_the_twin(net):
    stays_within_budget(net)


@functools.cache  # a strategy is validated when first drawn from: build each once
def budget_registers(fmt):
    """Decay over [0, 1], growth 1 about half the time and else in [0, 2],
    thresholds of 1 to 48 quanta and resets within 48 quanta of 0 (each at
    most an eighth of the range)."""
    one, near = 1 << fmt.q, min(fmt.max_raw // 8, 48)
    return st.builds(
        RealRegisters,
        decay_rate=harness.raw_values(fmt, 0, one),
        growth_rate=st.just(1.0) | harness.raw_values(fmt, 0, 2 * one),
        v_threshold=harness.raw_values(fmt, 1, near),
        reset_mode=st.sampled_from(ResetMode),
        v_reset=harness.raw_values(fmt, -near, near),
        refractory_period=st.integers(0, 3),
    )


def budget_weights(rng, fmt, shape):
    """Raw words in [-lim / 2, lim], lim = min(16, max_raw / 4M): a sum of
    the M lines stays within a quarter of the range, and twice it (growth 2)
    within half; sums lean positive, and a few quanta of drive per cycle
    bring a twin's membrane within its rounding budget of the threshold
    now and then."""
    lim = min(16, fmt.max_raw // (4 * shape[0]))
    return rng.integers(-lim // 2, lim, shape, endpoint=True)


# Networks built for the budget, whose layer-samples mostly run to their
# last cycle without an overflow, so that neurons reach their first
# mismatch: formats of 3 to 7 fraction bits with words of at least 8 bits,
# and the three single formats of `harness.FORMATS`.
BUDGET_NETWORKS = harness.networks(
    st.sampled_from([QFormat(n, q) for n in range(3, 10) for q in range(3, 8) if n + q >= 8])
    | st.sampled_from((QFormat(13, 11), Q17_15, QFormat(20, 20))),
    budget_registers, budget_weights, max_cycles=30)


@given(net=BUDGET_NETWORKS)
@settings(max_examples=100, deadline=None)
def test_the_core_stays_within_its_rounding_budget_on_networks_built_for_it(net):
    stays_within_budget(net)
