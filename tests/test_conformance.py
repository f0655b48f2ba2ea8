"""Differential conformance: the vectorized `Core` against the scalar oracle.

Every neuron of a randomly configured core is replayed through
`neuron.step_neuron`, fed from the core's own upstream raster, and its
spike and membrane must match the core's on every cycle, also when
registers are rewritten between cycles.  A core is also the cascade of
its layers, each run alone on what it saw in the whole core.  Its drivers
agree: a `run_sample` with a `step_cycle` loop, and each row of a
`run_batch` with its own run, for the core and its float twin.
"""

from dataclasses import replace

import harness
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from spikecore.core import RealRegisters
from spikecore.fixedpoint import QFormat, QWord
from spikecore.neuron import ResetMode
from spikecore.reference import ReferenceCore

# Q2-Q9 x q0-7; Q13.11, the widest float32 format, whose planes of 1 to 4
# lines are float32 with a bound of 2 active lines, and of 5 or 6 lines
# float64; Q17.15, the widest int64 format, whose unreduced WRAP products
# reach 2**62; and one format wider than 32 bits (object-dtype payloads).
# Each of the three single formats is drawn about as often as all the
# narrow ones together.
FORMATS = (st.sampled_from([QFormat(n, q) for n in range(2, 10) for q in range(8)])
           | st.just(QFormat(13, 11)) | st.just(QFormat(17, 15)) | st.just(QFormat(20, 20)))


def raw_values(fmt, lo=None, hi=None):
    """Reals exactly representable in `fmt`, drawn over its raw range."""
    lo = fmt.min_raw if lo is None else lo
    hi = fmt.max_raw if hi is None else hi
    return st.integers(lo, hi).map(lambda raw: raw * fmt.quantum)


def registers(fmt):
    return st.builds(
        RealRegisters,
        decay_rate=raw_values(fmt, 0, min(fmt.max_raw, 1 << fmt.q)),
        growth_rate=st.just(1.0) | raw_values(fmt),  # 1.0: `_drive` skips `_mul`
        v_threshold=raw_values(fmt),
        reset_mode=st.sampled_from(ResetMode),
        v_reset=raw_values(fmt),
        refractory_period=st.integers(0, 3),
    )


def end_heavy_weights(rng, fmt, shape):
    """Raw words, about half at a range end and the rest uniform over the
    range.  A column's end words are all min_raw or all max_raw, so that
    they add up rather than cancel: three active max_raw words of Q13.11
    sum to an odd value past 2**24, which float32 cannot hold, so only the
    int64 upcast of a row past a float32 plane's active-line bound (2)
    keeps the bits."""
    ends = rng.choice([fmt.min_raw, fmt.max_raw], shape[1:])
    uniform = rng.integers(fmt.min_raw, fmt.max_raw, shape, endpoint=True)
    return np.where(rng.random(shape) < 0.5, ends, uniform)


# Inputs spike half the time, so that SATURATE sums often clamp and then
# come back.
NETWORKS = harness.networks(FORMATS, registers, end_heavy_weights, max_cycles=12)


@given(net=NETWORKS)
@settings(max_examples=300, deadline=None)
def test_core_matches_scalar_oracle_neuron_by_neuron(net):
    cfg, weights, stream = net
    assert harness.sampled(harness.loaded(cfg, weights), stream) == []


@given(net=NETWORKS)
@settings(max_examples=100, deadline=None)
def test_a_core_is_a_cascade_of_isolated_layers(net):
    # Layers talk only in spikes: layer k alone, in a one-layer core fed what
    # it saw in the whole core, spikes and traces as it did there.
    cfg, weights, stream = net
    raster, traces = harness.loaded(cfg, weights).run_sample(stream, len(stream), watch="all")
    for k, plane in enumerate(weights):
        alone = replace(cfg, sizes=cfg.sizes[k:k + 2], connectivity=cfg.connectivity[k:k + 1],
                        registers=cfg.registers[k:k + 1])
        feed = harness.upstream(stream, raster.layers, k, cfg.layer_latency)
        spikes, vmem = harness.loaded(alone, [plane]).run_sample(feed, len(stream), watch="all")
        assert np.array_equal(spikes.layers[0], raster.layers[k]), k
        for j in range(cfg.sizes[k + 1]):
            assert np.array_equal(vmem[(0, j)], traces[(k, j)]), (k, j)


@st.composite
def register_writes(draw, fmt, n_layers, duration):
    """(cycle, layer, register, value) writes, in the order they are made."""
    values = {
        "refractory_period": st.integers(0, 3),
        "v_threshold": st.integers(fmt.min_raw, fmt.max_raw).map(lambda raw: QWord(fmt, raw)),
        "reset_mode": st.sampled_from(ResetMode),
    }
    writes = []
    for _ in range(draw(st.integers(0, 8))):
        name = draw(st.sampled_from(sorted(values)))
        writes.append((draw(st.integers(0, duration - 1)), draw(st.integers(0, n_layers - 1)),
                       name, draw(values[name])))
    # A stable sort keeps the drawn order of the writes made before one cycle.
    return sorted(writes, key=lambda w: w[0])


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_register_writes_between_cycles_match_the_scalar_oracle(data):
    # Refractory periods, thresholds and reset modes written between
    # cycles, a period of 0 included while neurons are held, take effect
    # in the core exactly as in the oracle given the same schedule.
    cfg, weights, stream = data.draw(NETWORKS)
    writes = data.draw(register_writes(cfg.fmt, cfg.n_layers, len(stream)))
    assert harness.checked(harness.loaded(cfg, weights), stream, writes) == []


@given(net=NETWORKS)
@settings(max_examples=200, deadline=None)
def test_run_sample_equals_a_step_cycle_loop(net):
    # Two drivers of the one LIF kernel: `run_sample` (the core's computes
    # layer 0's drive for every cycle up front, the twin's runs the
    # layer-major scan) and a `step_cycle` loop.  Spikes, membranes and the
    # state left behind must agree, so that one more cycle continues both
    # alike.
    cfg, weights, stream = net
    core = harness.loaded(cfg, weights)
    for make in (lambda: harness.loaded(cfg, weights), lambda: ReferenceCore(core)):
        assert harness.continued(make(), make(), stream) == []


@given(net=NETWORKS, data=st.data())
@settings(max_examples=150, deadline=None)
def test_each_row_of_run_batch_equals_its_own_run(net, data):
    # The layer-major scan on [B, N] state: row i of a batch of 1-4 streams
    # is stream i's own run, spikes and membranes, through `Core.run_sample`
    # for the core and a `step_cycle` loop for its twin; and a batch leaves
    # a fresh state behind.
    cfg, weights, stream = net
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    more = data.draw(st.integers(0, 3))
    streams = [stream, *(rng.random(stream.shape) < 0.5 for _ in range(more))]
    core = harness.loaded(cfg, weights)
    assert harness.batched(lambda: harness.loaded(cfg, weights), streams, harness.sampled_run) == []
    assert harness.batched(lambda: ReferenceCore(core), streams, harness.stepped_run) == []
