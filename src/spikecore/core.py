"""Layered quantized spiking core: weight planes, control registers, and the
cycle-stepping engine.

Layers are indexed 0..K-1 over the LIF layers; sizes[0] is the input width
and weight plane k connects sizes[k] -> sizes[k+1].  All neurons of a layer
share one register file (one decoder per layer).  Stepping is vectorized
over neurons with raw integer arrays; results are bit-identical to scalar
per-neuron evaluation (`neuron.step_neuron`) and independent of the
worker-thread count.

Activation is event-driven, as in the hardware: a weight enters a neuron's
sum only when its pre-synaptic line spikes.  Each cycle gathers the weight
rows of the active lines and reduces them with
`fixedpoint.accumulate_raw`, which gives the bits of the sequential adds in
pre-synaptic index order under both overflow policies.  WRAP is exact as a
plain sum because wrapping is arithmetic modulo 2**w.  SATURATE is exact
because the ordered saturating sum is the discrete two-sided Skorokhod map
of its prefix sums, which has an exact closed form in prefix sums and
running minima (Kruk, Lehoczky, Ramanan & Shreve, Ann. Probab. 2007).
"""

from __future__ import annotations

import hashlib
import math
import operator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .fixedpoint import (
    WRAP,
    OverflowPolicy,
    QFormat,
    QWord,
    accumulate_raw,
    add_raw,
    encode_raw,
    fit_raw,  # noqa: F401  (bound here so bench/spans.py can trace it as core.fit_raw)
    mul_raw,
    raw_dtype,
    sub_raw,
)
from .neuron import NeuronRegisters, ResetMode
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
    wrapped = encode_raw(value, fmt, OverflowPolicy.WRAP)
    clamped = encode_raw(value, fmt, OverflowPolicy.SATURATE)
    if wrapped != clamped and not clamp:
        raise ValueError(
            f"value {value} not representable in {fmt} (range "
            f"[{fmt.min_value}, {fmt.max_value}])"
        )
    return clamped


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
        if self.refractory_period < 0:
            raise ValueError("refractory_period must be >= 0")

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
    v_unit: float = 1e-3                   # volts per membrane unit
    i_unit: float = 1e-11                  # amps per activation unit

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
        total = 0
        for k, conn in enumerate(self.connectivity):
            total += int(build_mask(conn, self.sizes[k], self.sizes[k + 1]).sum())
        return total

    def with_format(self, fmt: QFormat) -> "CoreConfig":
        return replace(self, fmt=fmt)

    def config_hash(self) -> str:
        parts = [str(self.fmt), self.policy.value, str(self.layer_latency),
                 ",".join(map(str, self.sizes))]
        for conn, regs in zip(self.connectivity, self.registers):
            parts.append(
                f"{conn}|{regs.decay_rate!r}|{regs.growth_rate!r}|{regs.v_threshold!r}"
                f"|{regs.reset_mode.value}|{regs.v_reset!r}|{regs.refractory_period}"
            )
        return hashlib.sha256(";".join(parts).encode()).hexdigest()[:12]


@dataclass
class SpikeRaster:
    """Spike output of one sample: input stimulus plus every LIF layer."""

    input_spikes: np.ndarray            # [T, N0] bool
    layers: list[np.ndarray]            # K arrays, [T, Nk] bool
    meta: dict = field(default_factory=dict)

    @property
    def n_cycles(self) -> int:
        return self.input_spikes.shape[0]

    def spike_counts(self, layer: int = -1) -> np.ndarray:
        """Per-neuron spike totals for one LIF layer."""
        return self.layers[layer].sum(axis=0)

    def total_spikes(self) -> int:
        """Spikes emitted by LIF neurons (the stimulus is not counted)."""
        return int(sum(a.sum() for a in self.layers))

    def equals(self, other: "SpikeRaster") -> bool:
        return (
            np.array_equal(self.input_spikes, other.input_spikes)
            and len(self.layers) == len(other.layers)
            and all(np.array_equal(a, b) for a, b in zip(self.layers, other.layers))
        )


class _LayerRegs:
    """Raw register file of one layer (decoded views via `registers`)."""

    __slots__ = ("decay", "growth", "vth", "vreset", "mode", "refractory")

    def __init__(self, regs: NeuronRegisters):
        self.decay = regs.decay_rate.raw
        self.growth = regs.growth_rate.raw
        self.vth = regs.v_threshold.raw
        self.vreset = regs.v_reset.raw if regs.v_reset is not None else 0
        self.mode = regs.reset_mode
        self.refractory = regs.refractory_period


class Core:
    """One core instance: a single logical timeline of spike-clock cycles.

    `threads` > 1 splits each layer's activation by post-synaptic columns
    into `threads` parts: the calling thread accumulates the first and a
    pool of `threads` - 1 workers the others, concurrently.  The LIF update
    then runs once per layer on whole vectors in the calling thread.  The
    thread count never changes the results.  Release the pool with
    `close()` or by using the core as a context manager.
    """

    def __init__(self, cfg: CoreConfig, clamp_registers: bool = False, threads: int = 1):
        self.cfg = cfg
        self.fmt = cfg.fmt
        self.policy = cfg.policy
        self.threads = max(1, int(threads))
        self._regs = [
            _LayerRegs(r.quantize(cfg.fmt, clamp=clamp_registers)) for r in cfg.registers
        ]
        self.planes = [
            WeightMemory(cfg.fmt, build_mask(conn, cfg.sizes[k], cfg.sizes[k + 1]), layer=k)
            for k, conn in enumerate(cfg.connectivity)
        ]
        self.reset_state()
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

    @property
    def n_layers(self) -> int:
        return self.cfg.n_layers

    def registers(self, layer: int) -> NeuronRegisters:
        r = self._regs[layer]
        f = self.fmt
        return NeuronRegisters(QWord(f, r.decay), QWord(f, r.growth), QWord(f, r.vth),
                               r.mode, QWord(f, r.vreset), r.refractory)

    def write_register(self, layer: int, name: str, value) -> None:
        """Program one control register; takes effect from the next cycle."""
        r = self._regs[layer]
        if name == "reset_mode":
            r.mode = value if isinstance(value, ResetMode) else ResetMode.from_name(value)
            return
        if name == "refractory_period":
            period = int(value)
            if period < 0:
                raise ValueError("refractory_period must be >= 0")
            r.refractory = period
            return
        if name not in ("decay_rate", "growth_rate", "v_threshold", "v_reset"):
            raise ValueError(f"unknown register {name!r}")
        raw = value.raw if isinstance(value, QWord) else encode_register(float(value), self.fmt)
        if name == "decay_rate":
            if not 0 <= raw * self.fmt.quantum <= 1.0:
                raise ValueError(f"decay_rate {raw * self.fmt.quantum} outside [0, 1]")
            r.decay = raw
        elif name == "growth_rate":
            r.growth = raw
        elif name == "v_threshold":
            r.vth = raw
        else:
            r.vreset = raw

    def write_weight(self, layer: int, pre: int, post: int, value) -> None:
        """Program one synapse; `value` is a signed real or QWord."""
        if isinstance(value, QWord):
            raw = value.raw
            if value.fmt != self.fmt:
                raise ValueError(f"weight format {value.fmt} != core format {self.fmt}")
        else:
            raw = encode_register(float(value), self.fmt)
        polarity = -1 if raw < 0 else 1
        mag = QWord(self.fmt, abs(raw)) if raw != self.fmt.min_raw else QWord(self.fmt, raw)
        if raw == self.fmt.min_raw:
            polarity = 1  # |min| is not representable; store the wrapped value directly
        self.planes[layer].write(pre, post, mag, polarity, self.policy)

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

    # -- stepping -------------------------------------------------------------

    def reset_state(self) -> None:
        """Between-sample reset: membranes, activations and counters to zero.

        Fresh arrays, not in-place zeroing: the latched layer inputs may be
        rows of the caller's stimulus.
        """
        sizes, dt = self.cfg.sizes, raw_dtype(self.fmt)
        self._vmem = [np.zeros(n, dtype=dt) for n in sizes[1:]]
        self._act = [np.zeros(n, dtype=dt) for n in sizes[1:]]
        self._refr = [np.zeros(n, dtype=np.int64) for n in sizes[1:]]
        self._prev_out = [np.zeros(n, dtype=bool) for n in sizes[:-1]]
        self.cycle = 0

    def _activation(self, k: int, spikes_in: np.ndarray) -> np.ndarray:
        """Ordered sum of the weight rows of this cycle's active inputs."""
        w = self.planes[k].raw
        active = np.flatnonzero(spikes_in)

        def part(cols):
            return accumulate_raw(w[active, cols], self.fmt, self.policy)

        first, *rest = self._columns[k]  # rest is empty on one thread
        futures = [self._pool.submit(part, cols) for cols in rest]
        return np.concatenate([part(first), *(f.result() for f in futures)])

    def _step_layer(self, k: int, spikes_in: np.ndarray) -> np.ndarray:
        fmt, policy = self.fmt, self.policy
        r = self._regs[k]
        vmem, refr = self._vmem[k], self._refr[k]

        # 1. activation: weighted sum of this cycle's input spikes.
        act = self._act[k] = self._activation(k, spikes_in)

        # 2./3. refractory hold, or membrane update + fire + reset.
        held = refr > 0
        leak = mul_raw(r.decay, vmem, fmt, policy)
        drive = mul_raw(r.growth, act, fmt, policy)
        updated = add_raw(sub_raw(vmem, leak, fmt, policy), drive, fmt, policy)
        updated = np.where(held, vmem, updated)
        spikes = (~held) & (updated >= r.vth)

        if r.mode is ResetMode.TO_CONSTANT:
            after = np.full_like(updated, r.vreset)
        elif r.mode is ResetMode.TO_ZERO:
            after = np.zeros_like(updated)
        elif r.mode is ResetMode.BY_SUBTRACTION:
            after = sub_raw(updated, r.vth, fmt, policy)
        else:  # DEFAULT: one more leak step, no discrete reset
            after = sub_raw(updated, mul_raw(r.decay, updated, fmt, policy), fmt, policy)

        self._vmem[k] = np.where(spikes, after, updated)
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
        self.cycle += 1
        return outs

    def run_sample(self, stream, duration: int, watch=None):
        """Feed one sample for `duration` cycles from a fresh state.

        `stream` is a SpikeStream-like object (has to_dense) or a dense
        [T, N0] bool array.  `watch` selects membrane traces: an iterable
        of (layer, neuron) pairs, or "all".  Returns (SpikeRaster, traces)
        where traces maps (layer, neuron) -> float64[T] of decoded vmem
        at the end of each cycle.
        """
        dense, rasters, traces = _run(self, stream, duration, watch, self.fmt.quantum)
        meta = {
            "config": self.cfg.config_hash(),
            "format": str(self.fmt),
            "policy": self.policy.value,
            "layer_latency": self.cfg.layer_latency,
            "sizes": list(self.cfg.sizes),
            "v_unit": self.cfg.v_unit,
            "i_unit": self.cfg.i_unit,
        }
        return SpikeRaster(dense, rasters, meta), traces

    def close(self) -> None:
        """Shut the worker pool down; calling it again does nothing."""
        if self._pool is not None:
            self._pool.shutdown()


def _dense_stream(stream, duration: int, n0: int) -> np.ndarray:
    """A sample's stimulus as a dense [duration, n0] bool array.

    `stream` has to_dense, or is a dense [T, n0] array that is cut or
    zero-padded to `duration` cycles.
    """
    if hasattr(stream, "to_dense"):
        return stream.to_dense(duration, n0)
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


def _run(core, stream, duration: int, watch, scale: float):
    """Run loop shared by Core and ReferenceCore.

    Checks the stream and watch list, steps `core` from a fresh state, and
    returns (dense stimulus, per-layer rasters, traces).  Each watched
    layer's membranes are recorded as one [T, N] row per cycle; traces
    maps (layer, neuron) -> float64[T] of those values times `scale`.
    """
    sizes = core.cfg.sizes
    dense = _dense_stream(stream, duration, sizes[0])
    watched = _watch_list(watch, sizes)
    core.reset_state()
    rasters = [np.zeros((duration, n), dtype=bool) for n in sizes[1:]]
    vmems = {k: np.zeros((duration, sizes[k + 1]), dtype=core._vmem[k].dtype)
             for k in {k for k, _ in watched}}
    for t in range(duration):
        for k, out in enumerate(core.step_cycle(dense[t])):
            rasters[k][t] = out
        for k, rows in vmems.items():
            rows[t] = core._vmem[k]
    rows = {k: np.ascontiguousarray(v.T, dtype=np.float64) * scale for k, v in vmems.items()}
    return dense, rasters, {(k, j): rows[k][j] for (k, j) in watched}
