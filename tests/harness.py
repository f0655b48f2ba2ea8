"""The cycle once for the tests: the cascade feed, the scalar-oracle replay,
drawn networks, the recount of the datapath, and a core loaded, stepped
and checked.  Spikes and raw membranes are per layer, [T, N] each; weights
are raw [M, N] planes, per layer."""

from dataclasses import replace

import numpy as np
from hypothesis import strategies as st

from spikecore.core import Core, CoreConfig, RealRegisters
from spikecore.fixedpoint import SATURATE, OverflowPolicy, QWord, add_raw, mul_raw
from spikecore.neuron import NeuronState, step_neuron
from spikecore.topology import Connectivity


def upstream(stimulus, layers, k: int, latency: int):
    """What layer k saw each cycle: the stimulus, or layer k-1's spikes
    (one cycle late, and nothing in cycle 0, at layer_latency=1)."""
    if k == 0:
        return stimulus
    up = layers[k - 1]
    return np.vstack([np.zeros_like(up[:1]), up[:-1]]) if latency else up


def mismatches(cfg: CoreConfig, regs, weights, stimulus, spikes, vmem, writes=()):
    """Each neuron replayed through `neuron.step_neuron` from the register
    files `regs`, fed by `upstream`: the first (layer, neuron, cycle) per
    neuron whose spike or raw membrane differs from `spikes` / `vmem`.
    `writes` are (cycle, layer, register, value), in the order made."""
    bad = []
    for k, w in enumerate(weights):
        rows = upstream(stimulus, spikes, k, cfg.layer_latency).tolist()
        for j in range(w.shape[1]):
            column = [QWord(cfg.fmt, x) for x in w[:, j].tolist()]
            state, r = NeuronState.zero(cfg.fmt), regs[k]
            for t, row in enumerate(rows):
                for _, _, name, value in (wr for wr in writes if wr[:2] == (t, k)):
                    r = replace(r, **{name: value})
                fired = step_neuron(state, r, row, column, cfg.policy)
                if fired != spikes[k][t, j] or state.vmem.raw != vmem[k][t, j]:
                    bad.append((k, j, t))
                    break
    return bad


def regs(**kw):
    """The baseline register file: decay 0.2, growth 1, threshold 10, reset
    by subtraction, no refractory period; `kw` overrides any of them."""
    return RealRegisters(**{"decay_rate": 0.2, "growth_rate": 1.0, "v_threshold": 10.0, **kw})


def loaded(cfg: CoreConfig, planes, cls=Core):
    """A `cls` core of `cfg` whose planes hold the raw `planes`."""
    core = cls(cfg)
    for plane, w in zip(core.planes, planes):
        plane.raw[...] = w
    return core


def stepped(core, stimulus, writes=()):
    """Per layer, the [T, N] spikes and raw membranes of `core` stepped
    through `stimulus` one `step_cycle` at a time.  Each (cycle, layer,
    register, value) of `writes` is made before its cycle, in order."""
    outs, vmems = [], []
    for t, row in enumerate(stimulus):
        for _, k, name, value in (w for w in writes if w[0] == t):
            core.write_register(k, name, value)
        outs.append(core.step_cycle(row))
        vmems.append(list(core._vmem))
    return [np.array(c) for c in zip(*outs)], [np.array(c) for c in zip(*vmems)]


def checked(core, stimulus, writes=()):
    """`mismatches` of a `stepped` run of `core`, replayed from the register
    files and planes that it held before the run."""
    registers = [core.registers(k) for k in range(core.cfg.n_layers)]
    planes = [plane.raw for plane in core.planes]
    return mismatches(core.cfg, registers, planes, stimulus, *stepped(core, stimulus, writes),
                      writes)


@st.composite
def networks(draw, formats, registers, weights, max_cycles: int):
    """(cfg, planes, stream): 1-3 all-to-all layers of 1-6 neurons, each
    with registers drawn from `registers(fmt)` and a plane
    `weights(rng, fmt, (M, N))`, and 1 to `max_cycles` cycles of inputs
    that spike half the time."""
    fmt = draw(formats)
    n_layers = draw(st.integers(1, 3))
    sizes = tuple(draw(st.integers(1, 6)) for _ in range(n_layers + 1))
    cfg = CoreConfig(fmt, sizes, (Connectivity("all"),) * n_layers,
                     tuple(draw(registers(fmt)) for _ in range(n_layers)),
                     policy=draw(st.sampled_from(OverflowPolicy)),
                     layer_latency=draw(st.sampled_from((0, 1))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    planes = [weights(rng, fmt, shape) for shape in zip(sizes[:-1], sizes[1:])]
    stream = rng.random((draw(st.integers(1, max_cycles)), sizes[0])) < 0.5
    return cfg, planes, stream


def fold(rows, fmt, policy=SATURATE):
    """The reference order: add_raw row by row, starting from 0."""
    acc = np.zeros(rows.shape[1:], dtype=rows.dtype)
    for row in rows:
        acc = add_raw(acc, row, fmt, policy)
    return acc


def recount(cfg: CoreConfig, weights, stimulus, spikes, vmem):
    """Per layer, four [T, N] arrays: the plain sum of the active weight
    rows, their ordered fold, the membrane update prev - leak + growth x act
    before its fit (prev is the recorded membrane of the cycle before, 0 at
    first) and the mask of neurons held by a spike in the refractory period."""
    fmt, policy = cfg.fmt, cfg.policy
    out = []
    for k, (w, real) in enumerate(zip(weights, cfg.registers)):
        regs = real.quantize(fmt)
        active = [w[row] for row in upstream(stimulus, spikes, k, cfg.layer_latency)]
        total = np.array([a.sum(axis=0) for a in active])
        act = np.array([fold(a, fmt, policy) for a in active])
        prev = np.vstack([np.zeros_like(vmem[k][:1]), vmem[k][:-1]])
        update = (prev - mul_raw(regs.decay_rate.raw, prev, fmt, policy)
                  + mul_raw(regs.growth_rate.raw, act, fmt, policy))
        p = regs.refractory_period
        held = np.array([spikes[k][max(t - p, 0):t].any(axis=0) for t in range(len(active))])
        out.append((total, act, update, held))
    return out
