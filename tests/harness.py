"""The cycle once for the tests: the cascade feed, the scalar-oracle replay,
drawn networks (the conformance ones among them), the recount of the
datapath, a mutant made by editing one method's source, a core loaded,
stepped and checked, the raster kernel rule's picks, its drivers compared,
a run's digest, and a twin's sums past a float32 plane's active-line bound.
Spikes and raw membranes are per layer, [T, N] each; weights are raw
[M, N] planes, per layer."""

import __future__
import functools
import hashlib
import inspect
import textwrap
from dataclasses import replace

import numpy as np
from hypothesis import strategies as st

from spikecore import core as core_module
from spikecore.core import Core, CoreConfig, RealRegisters
from spikecore.fixedpoint import Q9_7, SATURATE, OverflowPolicy, QFormat, QWord, add_raw, mul_raw
from spikecore.neuron import NeuronState, ResetMode, step_neuron
from spikecore.reference import stack_traces
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


def mutant(base, method: str, *edits):
    """A subclass of `base` whose `method` is the source of `base.method` with
    each (old, new) text edit made in turn, each `old` found exactly once.  It
    is compiled as `src/` is, with postponed annotations, in the method's own
    module globals, under its file name and line numbers."""
    fn = getattr(base, method)
    source = textwrap.dedent(inspect.getsource(fn))
    for old, new in edits:
        found = source.count(old)
        assert found == 1, f"{fn.__qualname__}: {old!r} found {found} times, not once"
        source = source.replace(old, new)
    code = compile("\n" * (fn.__code__.co_firstlineno - 1) + source, fn.__code__.co_filename,
                   "exec", flags=__future__.annotations.compiler_flag, dont_inherit=True)
    scope = {}
    exec(code, fn.__globals__, scope)
    return type(base.__name__, (base,), {method: scope[method]})


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


def rule_picks(monkeypatch) -> list:
    """The picks of `core._gathers`, the raster kernel rule, from now on in
    the order made: True for the gathers, False for the product."""
    rule, picks = core_module._gathers, []
    monkeypatch.setattr(core_module, "_gathers", lambda *a: picks.append(rule(*a)) or picks[-1])
    return picks


def held(core):
    """The register files and raw planes that `core` holds now."""
    return [core.registers(k) for k in range(core.cfg.n_layers)], [p.raw for p in core.planes]


def checked(core, stimulus, writes=()):
    """`mismatches` of a `stepped` run of `core`, replayed from the register
    files and planes that it held before the run."""
    return mismatches(core.cfg, *held(core), stimulus, *stepped(core, stimulus, writes), writes)


def sampled(core, stimulus):
    """`mismatches` of one `run_sample` run of `core` through `stimulus`,
    replayed from the register files and planes that it held before the run."""
    registers, planes = held(core)
    spikes, vmem = sampled_run(core, stimulus)
    vmem = [v / core.cfg.fmt.quantum for v in vmem]
    return mismatches(core.cfg, registers, planes, stimulus, spikes, vmem)


def sampled_run(core, stimulus):
    """Per layer, the [T, N] spikes and decoded membranes of one `run_sample`
    of `core` through `stimulus`."""
    raster, traces = core.run_sample(stimulus, len(stimulus), watch="all")
    return raster.layers, np.split(stack_traces(traces), np.cumsum(core.cfg.sizes[1:-1]), axis=1)


def stepped_run(core, stimulus):
    """`sampled_run`'s arrays of a `stepped` run of `core` from its state now."""
    spikes, vmem = stepped(core, stimulus)
    return spikes, [v.astype(np.float64) * (1 / core._one) for v in vmem]


def batch_row_run(core, stimulus):
    """`sampled_run`'s arrays of row 0 of a `run_batch` of `core` through `stimulus` alone."""
    spikes, vmems = core.run_batch([stimulus], len(stimulus), watch="all")
    return [s[0] for s in spikes], [v[0] for v in vmems]


# Per driver, `sampled_run`'s arrays of a fresh core run through a stimulus.
DRIVERS = {"step_cycle": stepped_run, "run_sample": sampled_run, "run_batch": batch_row_run}


def digest(spikes, vmems) -> str:
    """sha256 of the bytes of each layer's [T, N] spikes, then each layer's
    decoded float64 membranes, as `sampled_run` gives them."""
    h = hashlib.sha256()
    for a in (*spikes, *vmems):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _same(a, b) -> bool:
    return len(a) == len(b) and all(map(np.array_equal, a, b))


def continued(sampled, looped, stimulus):
    """What differs between `sampled` after a `run_sample` through `stimulus` and
    its copy `looped` after a `stepped_run`: "spikes", "vmem" (decoded), the
    state `_vmem`, `_refr`, `_out` and `_armed`, and "next", one more cycle."""
    bad = [name for name, a, b in zip(("spikes", "vmem"), sampled_run(sampled, stimulus),
                                      stepped_run(looped, stimulus)) if not _same(a, b)]
    bad += [name for name in ("_vmem", "_refr", "_out", "_armed")
            if not _same(getattr(sampled, name), getattr(looped, name))]
    row = stimulus[-1]
    if not (_same(sampled.step_cycle(row), looped.step_cycle(row))
            and _same(sampled._vmem, looped._vmem)):
        bad.append("next")
    return bad


def batched(make, streams, own):
    """What differs between a `run_batch` of `make()` through the equally long
    `streams` and each stream's own run, `own(make(), stream)` (`sampled_run`
    or `stepped_run`): (stream, layer) of each row whose spikes or decoded
    membranes differ, then "next" if a `step_cycle` after the batch differs
    from one on a fresh `make()`."""
    core = make()
    spikes, vmems = core.run_batch(streams, len(streams[0]), watch="all")
    bad = []
    for i, stream in enumerate(streams):
        want_spikes, want_vmems = own(make(), stream)
        bad += [(i, k) for k in range(core.cfg.n_layers)
                if not (np.array_equal(spikes[k][i], want_spikes[k])
                        and np.array_equal(vmems[k][i], want_vmems[k]))]
    fresh, row = make(), streams[0][-1]
    if not (_same(core.step_cycle(row), fresh.step_cycle(row)) and _same(core._vmem, fresh._vmem)):
        bad.append("next")
    return bad


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


# Q2-Q9 x q0-7; Q13.11, the widest float32 format, whose planes of 1 to 4
# lines are float32 with a bound of 2 active lines, and of 5 or 6 lines
# float64; Q17.15, the widest int64 format, whose full `mul_raw` products
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


@functools.cache  # a strategy is validated when first drawn from: build each once
def drawn_registers(fmt):
    """A register file of `fmt`, every word drawn over its raw range."""
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
NETWORKS = networks(FORMATS, drawn_registers, end_heavy_weights, max_cycles=12)


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


def float32_bound_network():
    """(core, stimulus): a 1024-line Q9.7 core, whose float32 plane has an
    active-line bound of 512, with a max_raw and a min_raw column, decay 1
    and growth 1, so that a membrane before its reset is its cycle's sum;
    and cycles of 0, 512, 513 and 1024 active lines.  513 max_raw words sum
    to 16,809,471, odd and past 2**24, which float32 cannot hold."""
    cfg = CoreConfig.uniform(Q9_7, (1024, 2), regs(decay_rate=1.0))
    plane = np.tile([Q9_7.max_raw, Q9_7.min_raw], (1024, 1))
    return loaded(cfg, [plane]), np.arange(1024) < np.array([[0], [512], [513], [1024]])


def inexact_drivers(cls, core, stimulus):
    """Which `DRIVERS` of a one-layer twin `cls(core)` that resets by
    subtraction, with decay 1 and growth 1, differ through `stimulus` from
    the run that float64 sums of `core.decoded_weights()` give."""
    act = stimulus @ core.decoded_weights()[0]
    vth = core.decoded_registers()[0].v_threshold
    fired = act >= vth
    want = [fired], [np.where(fired, act - vth, act)]
    return [name for name, run in DRIVERS.items()
            if not all(map(_same, run(cls(core), stimulus), want))]
