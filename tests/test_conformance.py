"""Differential conformance: the vectorized `Core` against the scalar oracle.

Every neuron of a randomly configured core is replayed through
`neuron.step_neuron`, fed from the core's own upstream raster, and its
spike and membrane must match the core's on every cycle, also when
registers are rewritten between cycles.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from spikecore.core import Core, CoreConfig, RealRegisters, SpikeRaster
from spikecore.fixedpoint import OverflowPolicy, QFormat, QWord
from spikecore.neuron import NeuronState, ResetMode, step_neuron
from spikecore.reference import stack_traces
from spikecore.topology import Connectivity, ConnectivityKind

ALL_TO_ALL = Connectivity(ConnectivityKind.ALL_TO_ALL)

# Q2-Q9 x q0-7; Q17.15, the widest int64 format, whose unreduced WRAP
# products reach 2**62; and one format wider than 32 bits (object-dtype
# payloads).  Each of the two single formats is drawn about as often as
# all the narrow ones together.
FORMATS = (st.sampled_from([QFormat(n, q) for n in range(2, 10) for q in range(8)])
           | st.just(QFormat(17, 15)) | st.just(QFormat(20, 20)))


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


@st.composite
def networks(draw):
    fmt = draw(FORMATS)
    n_layers = draw(st.integers(1, 3))
    sizes = tuple(draw(st.lists(st.integers(1, 6), min_size=n_layers + 1,
                                max_size=n_layers + 1)))
    cfg = CoreConfig(
        fmt, sizes, (ALL_TO_ALL,) * n_layers,
        tuple(draw(registers(fmt)) for _ in range(n_layers)),
        policy=draw(st.sampled_from(OverflowPolicy)),
        layer_latency=draw(st.sampled_from((0, 1))),
    )
    # Weights uniform over the full raw range and inputs spiking half the
    # time, so that SATURATE sums often clamp and then come back.
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = [rng.integers(fmt.min_raw, fmt.max_raw, (m, n), endpoint=True)
               for m, n in zip(sizes[:-1], sizes[1:])]
    stream = rng.random((draw(st.integers(1, 12)), sizes[0])) < 0.5
    return cfg, weights, stream


def upstream_of(raster, k, latency):
    """What layer k saw each cycle: the stimulus, or layer k-1's spikes
    (one cycle late when layer_latency is 1)."""
    if k == 0:
        return raster.input_spikes
    up = raster.layers[k - 1]
    if latency:
        up = np.vstack([np.zeros((1, up.shape[1]), dtype=bool), up[:-1]])
    return up


@given(net=networks())
@settings(max_examples=300, deadline=None)
def test_core_matches_scalar_oracle_neuron_by_neuron(net):
    cfg, weights, stream = net
    core = Core(cfg)
    for plane, w in zip(core.planes, weights):
        plane.raw[...] = w
    raster, traces = core.run_sample(stream, len(stream), watch="all")
    for k in range(cfg.n_layers):
        regs = core.registers(k)
        upstream = upstream_of(raster, k, cfg.layer_latency).tolist()
        for j in range(cfg.sizes[k + 1]):
            column = core.planes[k].presynaptic_weights(j)
            state = NeuronState.zero(cfg.fmt)
            for t, spikes in enumerate(upstream):
                fired = step_neuron(state, regs, spikes, column, cfg.policy)
                assert fired == raster.layers[k][t, j], (k, j, t)
                assert state.vmem.value == traces[(k, j)][t], (k, j, t)


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
    cfg, weights, stream = data.draw(networks())
    writes = data.draw(register_writes(cfg.fmt, cfg.n_layers, len(stream)))
    core = Core(cfg)
    for plane, w in zip(core.planes, weights):
        plane.raw[...] = w
    regs = [core.registers(k) for k in range(cfg.n_layers)]
    outs, vmems = [], []
    for t, stim in enumerate(stream):
        for _, k, name, value in (w for w in writes if w[0] == t):
            core.write_register(k, name, value)
        outs.append(core.step_cycle(stim))
        vmems.append([v.tolist() for v in core._vmem])
    raster = SpikeRaster(stream, [np.array([out[k] for out in outs])
                                  for k in range(cfg.n_layers)])
    for k in range(cfg.n_layers):
        upstream = upstream_of(raster, k, cfg.layer_latency).tolist()
        for j in range(cfg.sizes[k + 1]):
            column = core.planes[k].presynaptic_weights(j)
            state, r = NeuronState.zero(cfg.fmt), regs[k]
            for t, spikes in enumerate(upstream):
                for _, layer, name, value in (w for w in writes if w[0] == t):
                    if layer == k:
                        r = replace(r, **{name: value})
                fired = step_neuron(state, r, spikes, column, cfg.policy)
                assert fired == raster.layers[k][t, j], (k, j, t)
                assert state.vmem.raw == vmems[t][k][j], (k, j, t)


@given(net=networks())
@settings(max_examples=200, deadline=None)
def test_run_sample_equals_a_step_cycle_loop(net):
    # The two drivers of the one LIF kernel: `run_sample` computes layer
    # 0's drive for every cycle up front, a `step_cycle` loop cycle by
    # cycle.  Spikes, membranes and the state left behind must agree, so
    # that one more cycle continues both alike.
    cfg, weights, stream = net
    sampled, looped = Core(cfg), Core(cfg)
    for core in (sampled, looped):
        for plane, w in zip(core.planes, weights):
            plane.raw[...] = w
    raster, traces = sampled.run_sample(stream, len(stream), watch="all")
    outs, vmems = [], []
    for stim in stream:
        outs.append(looped.step_cycle(stim))
        vmems.append(np.concatenate(looped._vmem))
    for k in range(cfg.n_layers):
        assert np.array_equal(raster.layers[k], [out[k] for out in outs]), k
    decoded = np.array(vmems, dtype=np.float64) * cfg.fmt.quantum
    assert np.array_equal(stack_traces(traces), decoded)
    for name in ("_vmem", "_refr", "_prev_out"):
        for a, b in zip(getattr(sampled, name), getattr(looped, name), strict=True):
            assert np.array_equal(a, b), name
    for a, b in zip(sampled.step_cycle(stream[-1]), looped.step_cycle(stream[-1])):
        assert np.array_equal(a, b)
    for a, b in zip(sampled._vmem, looped._vmem):
        assert np.array_equal(a, b)
