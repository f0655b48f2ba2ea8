"""Layered quantized spiking core: weight planes, control registers, and the
cycle-stepping engine.

Layers are indexed 0..K-1 over the LIF layers; sizes[0] is the input width
and weight plane k connects sizes[k] -> sizes[k+1].  All neurons of a layer
share one register file (one decoder per layer).  One cycle, two number
systems: `_Cycle` holds the LIF cycle and the run loop once.  `Core` steps
it in Qn.q on raw integer arrays, bit-identical to scalar per-neuron
evaluation (`neuron.step_neuron`) whatever the worker-thread count, and
`reference.ReferenceCore` in float64, to measure the quantization error.

Activation is event-driven, as in the hardware: a weight enters a neuron's
sum only when its pre-synaptic line spikes.  Each cycle gathers the weight
rows of the active lines and reduces them with
`fixedpoint.accumulate_raw`, which gives the bits of the sequential adds in
pre-synaptic index order under both overflow policies.  WRAP is exact as a
plain sum because wrapping is arithmetic modulo 2**w.  SATURATE takes the
plain sum too when a certificate shows that no prefix sum can leave the
range, and otherwise the discrete two-sided Skorokhod map of the prefix
sums, which has an exact closed form in prefix sums and running minima
(Kruk, Lehoczky, Ramanan & Shreve, Ann. Probab. 2007).

The leak step v - d*v is computed as `v - ((d * v) >> q)` under both
policies, with no clamp or wrap: the decay register holds a raw d in
[0, 2**q] (decay_rate in [0, 1]), so floor(d*v / 2**q) lies between
min(v, 0) and max(v, 0), and neither the product nor the difference can
leave the range of v.  The hardware's clamp or wrap after each of the two
operations would change no bit.

The rest of the membrane update adds and subtracts in place and fits
(`_fit`) only where the hardware latches or compares a value: the updated
membrane before the threshold compare, and the BY_SUBTRACTION reset value
before it is stored.  Under WRAP the fit reduces modulo 2**w, and in
between, adds, subtracts and multiplies run on unreduced integers.  That
gives the bits of wrapping after every operation, because reduction
modulo 2**w commutes with + and -, and because every multiply operand is
already reduced (a register, the stored membrane, or the activation, which
`accumulate_raw` reduces), so that `(a * b) >> q` has the low w bits of
the hardware's truncated product.  An int64 overflow of an intermediate is
harmless: 2**w divides 2**64, so int64 arithmetic keeps every bit below
position 64, and the bits q..q+w-1 of a product are exact.  SATURATE
clamps the product in `_mul` and each latched sum in `_fit`; the leak
needs no clamp, and each sum is one add or subtract of in-range values,
so the fit clamps exactly where the hardware's adder does.
"""

from __future__ import annotations

import math
import operator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from .fixedpoint import (
    SATURATE,
    WRAP,
    OverflowPolicy,
    QFormat,
    QWord,
    accumulate_raw,
    encode_raw,
    fit_raw,
    mul_raw,
    raw_dtype,
)
from .fixedpoint import add_raw, sub_raw  # noqa: F401  (bound for bench/spans.py to trace)
from .neuron import NeuronRegisters, ResetMode, refractory_cycles
from .topology import Connectivity, ConnectivityKind, WeightMemory, build_mask

__all__ = [
    "RealRegisters",
    "CoreConfig",
    "SpikeRaster",
    "Core",
    "encode_register",
]

ALL_TO_ALL = Connectivity(ConnectivityKind.ALL_TO_ALL)


def encode_register(value: float, fmt: QFormat, clamp: bool = False) -> int:
    """Quantize a register/weight real; out-of-range is an error unless clamping."""
    if not math.isfinite(value):
        raise ValueError(f"value {value} is not a finite real; {fmt} holds finite values only")
    # Truncation toward -inf keeps exactly the reals in [min_value, -min_value).
    if not clamp and not fmt.min_value <= value < -fmt.min_value:
        raise ValueError(
            f"value {value} not representable in {fmt} (range "
            f"[{fmt.min_value}, {fmt.max_value}])"
        )
    return encode_raw(value, fmt, SATURATE)


@dataclass(frozen=True)
class RealRegisters:
    """Real-valued register file, as carried by config files."""

    decay_rate: float
    growth_rate: float
    v_threshold: float
    reset_mode: ResetMode = ResetMode.BY_SUBTRACTION
    v_reset: float = 0.0
    refractory_period: int = 0

    def __post_init__(self):
        if not 0.0 <= self.decay_rate <= 1.0:
            raise ValueError(f"decay_rate {self.decay_rate} outside [0, 1]")
        for name in ("growth_rate", "v_threshold", "v_reset"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} {getattr(self, name)} is not a finite real")
        object.__setattr__(self, "reset_mode", ResetMode.from_name(self.reset_mode))
        object.__setattr__(self, "refractory_period", refractory_cycles(self.refractory_period))

    def quantize(self, fmt: QFormat, clamp: bool = False) -> NeuronRegisters:
        return NeuronRegisters(
            decay_rate=QWord(fmt, encode_register(self.decay_rate, fmt, clamp)),
            growth_rate=QWord(fmt, encode_register(self.growth_rate, fmt, clamp)),
            v_threshold=QWord(fmt, encode_register(self.v_threshold, fmt, clamp)),
            reset_mode=self.reset_mode,
            v_reset=QWord(fmt, encode_register(self.v_reset, fmt, clamp)),
            refractory_period=self.refractory_period,
        )


@dataclass(frozen=True)
class CoreConfig:
    fmt: QFormat
    sizes: tuple[int, ...]                 # [N0 .. NK], N0 = input width
    connectivity: tuple[Connectivity, ...]  # one per LIF layer
    registers: tuple[RealRegisters, ...]    # one per LIF layer
    policy: OverflowPolicy = WRAP
    layer_latency: int = 0                 # 0: same-cycle cascade, 1: one cycle per layer

    def __post_init__(self):
        if len(self.sizes) < 2:
            raise ValueError("need an input width and at least one LIF layer")
        if any(n < 1 for n in self.sizes):
            raise ValueError("layer sizes must be >= 1")
        k = len(self.sizes) - 1
        if len(self.connectivity) != k or len(self.registers) != k:
            raise ValueError(
                f"{k} LIF layers need {k} connectivity and register entries, got "
                f"{len(self.connectivity)} and {len(self.registers)}"
            )
        if self.layer_latency not in (0, 1):
            raise ValueError("layer_latency must be 0 or 1")
        object.__setattr__(self, "policy", OverflowPolicy.from_name(self.policy))

    @classmethod
    def uniform(cls, fmt: QFormat, sizes, registers: RealRegisters,
                connectivity: Connectivity = ALL_TO_ALL, **kw) -> "CoreConfig":
        """Same registers and connectivity for every layer."""
        k = len(sizes) - 1
        return cls(fmt, tuple(sizes), (connectivity,) * k, (registers,) * k, **kw)

    @property
    def n_layers(self) -> int:
        return len(self.sizes) - 1

    @property
    def neuron_count(self) -> int:
        # Hardware accounting counts the input layer as neurons.
        return sum(self.sizes)

    @property
    def synapse_count(self) -> int:
        return sum(int(mask.sum()) for mask in _masks(self))

    def with_format(self, fmt: QFormat) -> "CoreConfig":
        return replace(self, fmt=fmt)


@dataclass
class SpikeRaster:
    """Spike output of one sample: input stimulus plus every LIF layer."""

    input_spikes: np.ndarray            # [T, N0] bool
    layers: list[np.ndarray]            # K arrays, [T, Nk] bool

    def total_spikes(self) -> int:
        """Spikes emitted by LIF neurons (the stimulus is not counted)."""
        return int(sum(a.sum() for a in self.layers))

    def equals(self, other: "SpikeRaster") -> bool:
        return (
            np.array_equal(self.input_spikes, other.input_spikes)
            and len(self.layers) == len(other.layers)
            and all(np.array_equal(a, b) for a, b in zip(self.layers, other.layers))
        )


def _masks(cfg: CoreConfig) -> list[np.ndarray]:
    """The connection mask of each weight plane."""
    masks = []
    for k, (conn, m, n) in enumerate(zip(cfg.connectivity, cfg.sizes[:-1], cfg.sizes[1:])):
        try:
            masks.append(build_mask(conn, m, n))
        except ValueError as err:
            raise ValueError(f"layer {k}: {err}") from err
    return masks


class _LayerRegs:
    """One layer's registers; `number` maps the values of a NeuronRegisters
    or RealRegisters into the core's number system."""

    __slots__ = ("decay", "growth", "vth", "vreset", "mode", "refractory")

    def __init__(self, regs, number):
        self.decay = number(regs.decay_rate)
        self.growth = number(regs.growth_rate)
        self.vth = number(regs.v_threshold)
        self.vreset = number(regs.v_reset)
        self.mode = regs.reset_mode
        self.refractory = regs.refractory_period


class _Cycle:
    """The LIF cycle in `neuron.py`'s order.  Adds and subtracts are plain
    `+` and `-`; a subclass defines the number system in four hooks:
    `_activation(k, spikes)`, the weighted sum of the input spikes;
    `_mul(a, b)`; `_leak(d, v)`, the leak step v - d*v; and `_fit(x)`,
    which brings a sum into the state's range where the cycle latches or
    compares it (the updated membrane, the reset value).  It also passes
    the state dtype, registers and trace scale to `__init__`."""

    def __init__(self, cfg: CoreConfig, regs: list[_LayerRegs], dtype, scale: float):
        self.cfg = cfg
        self._regs = regs
        self._dtype = dtype
        self._scale = scale
        self.reset_state()

    @property
    def n_layers(self) -> int:
        return self.cfg.n_layers

    def _check_synapse(self, layer: int, pre: int, post: int) -> None:
        sizes = self.cfg.sizes
        if not (0 <= layer < self.n_layers and 0 <= pre < sizes[layer]
                and 0 <= post < sizes[layer + 1]):
            raise IndexError(f"synapse (layer={layer}, pre={pre}, post={post}) outside "
                             f"the planes of sizes {sizes}")

    def reset_state(self) -> None:
        """Between-sample reset: membranes, activations and counters to zero.

        Fresh arrays, not in-place zeroing: the latched layer inputs may be
        rows of the caller's stimulus.
        """
        sizes = self.cfg.sizes
        self._vmem = [np.zeros(n, dtype=self._dtype) for n in sizes[1:]]
        self._act = [np.zeros(n, dtype=self._dtype) for n in sizes[1:]]
        self._refr = [np.zeros(n, dtype=np.int64) for n in sizes[1:]]
        self._prev_out = [np.zeros(n, dtype=bool) for n in sizes[:-1]]

    def _step_layer(self, k: int, spikes_in: np.ndarray) -> np.ndarray:
        r = self._regs[k]
        vmem, refr = self._vmem[k], self._refr[k]

        # 1. activation: weighted sum of this cycle's input spikes.
        act = self._act[k] = self._activation(k, spikes_in)

        # 2./3. refractory hold, or membrane update + fire + reset.
        drive = self._mul(r.growth, act)
        updated = self._fit(self._leak(r.decay, vmem) + drive)
        # With no period and no neuron held the hold is a no-op; a period
        # written to 0 still counts down the neurons held under the old one.
        refractory = r.refractory > 0 or refr.any()
        if refractory:
            held = refr > 0
            updated = np.where(held, vmem, updated)
            spikes = (~held) & (updated >= r.vth)
        else:
            spikes = updated >= r.vth

        if r.mode is ResetMode.TO_CONSTANT:
            after = r.vreset
        elif r.mode is ResetMode.TO_ZERO:
            after = 0
        elif r.mode is ResetMode.BY_SUBTRACTION:
            after = self._fit(updated - r.vth)
        else:  # DEFAULT: one more leak step, no discrete reset
            after = self._leak(r.decay, updated)

        self._vmem[k] = np.where(spikes, after, updated)
        if refractory:
            self._refr[k] = np.where(held, refr - 1, np.where(spikes, r.refractory, 0))
        return spikes

    def step_cycle(self, input_spikes) -> list[np.ndarray]:
        """Advance every layer by one spike-clock cycle; returns spike vectors."""
        stim = np.asarray(input_spikes, dtype=bool)
        if stim.shape != (self.cfg.sizes[0],):
            raise ValueError(f"input width {stim.shape} != ({self.cfg.sizes[0]},)")
        outs = []
        feed = stim
        for k in range(self.n_layers):
            if self.cfg.layer_latency == 1 and k > 0:
                feed = self._prev_out[k]  # previous cycle's output of layer k-1
            out = self._step_layer(k, feed)
            outs.append(out)
            feed = out
        if self.cfg.layer_latency == 1:
            self._prev_out = [stim] + outs[:-1]
        return outs

    def run_sample(self, stream, duration: int, watch=None):
        """Feed one sample for `duration` cycles from a fresh state.

        `stream` is a dense [T, N0] bool array, cut or zero-padded to
        `duration` cycles.  `watch` selects membrane traces: an iterable
        of (layer, neuron) pairs, or "all".  Returns (SpikeRaster, traces)
        where traces maps (layer, neuron) -> float64[T] of decoded vmem
        at the end of each cycle.
        """
        sizes = self.cfg.sizes
        dense = _dense_stream(stream, duration, sizes[0])
        watched = _watch_list(watch, sizes)
        self.reset_state()
        rasters = [np.zeros((duration, n), dtype=bool) for n in sizes[1:]]
        # Each watched layer's membranes, one [T, N] row per cycle.
        vmems = {k: np.zeros((duration, sizes[k + 1]), dtype=self._dtype)
                 for k in {k for k, _ in watched}}
        for t in range(duration):
            for k, out in enumerate(self.step_cycle(dense[t])):
                rasters[k][t] = out
            for k, rows in vmems.items():
                rows[t] = self._vmem[k]
        rows = {k: np.ascontiguousarray(v.T, dtype=np.float64) * self._scale
                for k, v in vmems.items()}
        return SpikeRaster(dense, rasters), {(k, j): rows[k][j] for (k, j) in watched}


class Core(_Cycle):
    """One core instance: a single logical timeline of spike-clock cycles.

    `threads` > 1 splits each layer's activation by post-synaptic columns
    into `threads` parts: the calling thread accumulates the first and a
    pool of `threads` - 1 workers the others, concurrently.  The LIF update
    then runs once per layer on whole vectors in the calling thread.  The
    thread count never changes the results.  Release the pool with
    `close()` or by using the core as a context manager.
    """

    def __init__(self, cfg: CoreConfig, clamp_registers: bool = False, threads: int = 1):
        self.fmt = cfg.fmt
        self.policy = cfg.policy
        self.threads = max(1, int(threads))
        regs = [_LayerRegs(r.quantize(cfg.fmt, clamp=clamp_registers), operator.attrgetter("raw"))
                for r in cfg.registers]
        super().__init__(cfg, regs, raw_dtype(cfg.fmt), cfg.fmt.quantum)
        self.planes = [WeightMemory(cfg.fmt, mask, layer=k) for k, mask in enumerate(_masks(cfg))]
        self._columns = [
            [slice(lo, hi) for lo, hi in zip(b[:-1], b[1:]) if lo < hi]
            for b in (np.linspace(0, n, self.threads + 1, dtype=int) for n in cfg.sizes[1:])
        ]
        self._pool = ThreadPoolExecutor(self.threads - 1) if self.threads > 1 else None

    def __enter__(self) -> "Core":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- configuration ------------------------------------------------------

    def _check_layer(self, layer: int, what: str) -> None:
        if not 0 <= layer < self.n_layers:
            raise IndexError(f"{what} of layer {layer}: no such layer")

    def registers(self, layer: int) -> NeuronRegisters:
        self._check_layer(layer, "registers")
        r = self._regs[layer]
        f = self.fmt
        return NeuronRegisters(QWord(f, r.decay), QWord(f, r.growth), QWord(f, r.vth),
                               r.mode, QWord(f, r.vreset), r.refractory)

    def write_register(self, layer: int, name: str, value) -> None:
        """Program one control register; takes effect from the next cycle.

        The new register file is checked by `NeuronRegisters`, as a whole.
        """
        self._check_layer(layer, f"register {name!r}")
        regs = self.registers(layer)
        if name not in {f.name for f in fields(regs)}:
            raise ValueError(f"unknown register {name!r}")
        if isinstance(getattr(regs, name), QWord):
            value = self._word(name, value)
        self._regs[layer] = _LayerRegs(replace(regs, **{name: value}), operator.attrgetter("raw"))

    def write_weight(self, layer: int, pre: int, post: int, value) -> None:
        """Program one synapse; `value` is a signed real or QWord."""
        self._check_synapse(layer, pre, post)
        self.planes[layer].write(pre, post, self._word("weight", value))

    def _word(self, what: str, value) -> QWord:
        """A real or a QWord of the core's format, as a QWord."""
        if not isinstance(value, QWord):
            return QWord(self.fmt, encode_register(float(value), self.fmt))
        if value.fmt != self.fmt:
            raise ValueError(f"{what} format {value.fmt} != core format {self.fmt}")
        return value

    def decoded_registers(self) -> list[RealRegisters]:
        """Register values as the datapath sees them (decoded from the format)."""
        out = []
        q = self.fmt.quantum
        for r in self._regs:
            out.append(RealRegisters(r.decay * q, r.growth * q, r.vth * q,
                                     r.mode, r.vreset * q, r.refractory))
        return out

    def decoded_weights(self) -> list[np.ndarray]:
        return [p.raw.astype(np.float64) * self.fmt.quantum for p in self.planes]

    # -- number system ----------------------------------------------------------

    def _activation(self, k: int, spikes_in: np.ndarray) -> np.ndarray:
        """Ordered sum of the weight rows of this cycle's active inputs."""
        w = self.planes[k].raw
        active = spikes_in.nonzero()[0]
        if self._pool is None:
            return accumulate_raw(w[active], self.fmt, self.policy)

        def part(cols):
            return accumulate_raw(w[active, cols], self.fmt, self.policy)

        first, *rest = self._columns[k]
        futures = [self._pool.submit(part, cols) for cols in rest]
        return np.concatenate([part(first), *(f.result() for f in futures)])

    # Under WRAP the product runs unreduced and `_fit` wraps (see the module
    # docstring); under SATURATE the product clamps before the add, and
    # `_fit` clamps the sum.  `_leak` never leaves the range, so it clamps
    # under neither policy.  The raw helpers are looked up in this module
    # per call, so a tracer on `core.mul_raw` or `core.fit_raw` sees each.
    def _mul(self, a, b):
        if self.policy is WRAP:
            return (a * b) >> self.fmt.q
        return mul_raw(a, b, self.fmt, self.policy)

    def _leak(self, d, v):
        return v - ((d * v) >> self.fmt.q)

    def _fit(self, x):
        return fit_raw(x, self.fmt, self.policy)

    def close(self) -> None:
        """Shut the worker pool down; calling it again does nothing."""
        if self._pool is not None:
            self._pool.shutdown()


def _dense_stream(stream, duration: int, n0: int) -> np.ndarray:
    """A sample's stimulus as a dense [duration, n0] bool array.

    `stream` is a dense [T, n0] array that is cut or zero-padded to
    `duration` cycles.
    """
    dense = np.asarray(stream, dtype=bool)
    if dense.ndim != 2 or dense.shape[1] != n0:
        raise ValueError(f"dense stream must be [T, {n0}], got {dense.shape}")
    if dense.shape[0] < duration:
        pad = np.zeros((duration - dense.shape[0], n0), dtype=bool)
        dense = np.vstack([dense, pad])
    return dense[:duration]


def _watch_list(watch, sizes) -> list[tuple[int, int]]:
    """Validated (layer, neuron) pairs for `watch`: None, "all" or an iterable."""
    if watch is None:
        return []
    if isinstance(watch, str):
        if watch != "all":
            raise ValueError(f"watch must be 'all' or (layer, neuron) pairs, got {watch!r}")
        return [(k, j) for k in range(len(sizes) - 1) for j in range(sizes[k + 1])]
    # Read once: `watch` may be an iterator.
    pairs = [(operator.index(k), operator.index(j)) for k, j in watch]
    for k, j in pairs:
        if not (0 <= k < len(sizes) - 1 and 0 <= j < sizes[k + 1]):
            raise ValueError(f"watched neuron (layer={k}, neuron={j}) out of range")
    return pairs

