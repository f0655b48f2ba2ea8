"""Double-precision reference model and quantization-error comparison.

The reference core runs the same forward-Euler membrane recurrence, the
same per-cycle ordering and the same reset/refractory logic as the
quantized core, but in float64 with no wrapping or truncation.  Pairing a
quantized run with a reference run that uses the format's *decoded*
register and weight values isolates the datapath quantization error, which
is what the RMSE sweep measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import Core, CoreConfig, SpikeRaster, _run, encode_register
from .fixedpoint import QFormat, QWord
from .neuron import ResetMode
from .topology import build_mask

__all__ = [
    "ReferenceCore",
    "TracePair",
    "rmse",
    "stack_traces",
    "matched_reference",
    "FormatComparison",
    "format_sweep",
]


class ReferenceCore:
    """Float64 twin of Core; registers and weights are plain reals."""

    def __init__(self, cfg: CoreConfig):
        self.cfg = cfg
        self.masks = [
            build_mask(conn, cfg.sizes[k], cfg.sizes[k + 1])
            for k, conn in enumerate(cfg.connectivity)
        ]
        self.weights = [np.zeros(m.shape) for m in self.masks]
        self.reset_state()

    def write_weight(self, layer: int, pre: int, post: int, value: float) -> None:
        if not self.masks[layer][pre, post]:
            raise ValueError(f"synapse (layer={layer}, pre={pre}, post={post}) is masked out")
        self.weights[layer][pre, post] = value

    def reset_state(self) -> None:
        # Fresh arrays: the latched layer inputs may be rows of the caller's stimulus.
        sizes = self.cfg.sizes
        self._vmem = [np.zeros(n) for n in sizes[1:]]
        self._refr = [np.zeros(n, dtype=np.int64) for n in sizes[1:]]
        self._prev_out = [np.zeros(n, dtype=bool) for n in sizes[:-1]]

    def _step_layer(self, k: int, spikes_in: np.ndarray) -> np.ndarray:
        r = self.cfg.registers[k]
        vmem, refr = self._vmem[k], self._refr[k]
        act = spikes_in.astype(np.float64) @ self.weights[k]
        held = refr > 0
        updated = np.where(held, vmem, vmem - r.decay_rate * vmem + r.growth_rate * act)
        spikes = (~held) & (updated >= r.v_threshold)
        if r.reset_mode is ResetMode.TO_CONSTANT:
            after = np.full_like(updated, r.v_reset)
        elif r.reset_mode is ResetMode.TO_ZERO:
            after = np.zeros_like(updated)
        elif r.reset_mode is ResetMode.BY_SUBTRACTION:
            after = updated - r.v_threshold
        else:  # DEFAULT
            after = updated - r.decay_rate * updated
        self._vmem[k] = np.where(spikes, after, updated)
        self._refr[k] = np.where(held, refr - 1, np.where(spikes, r.refractory_period, 0))
        return spikes

    def step_cycle(self, input_spikes) -> list[np.ndarray]:
        stim = np.asarray(input_spikes, dtype=bool)
        outs = []
        feed = stim
        for k in range(self.cfg.n_layers):
            if self.cfg.layer_latency == 1 and k > 0:
                feed = self._prev_out[k]
            out = self._step_layer(k, feed)
            outs.append(out)
            feed = out
        if self.cfg.layer_latency == 1:
            self._prev_out = [stim] + outs[:-1]
        return outs

    def run_sample(self, stream, duration: int, watch=None):
        dense, rasters, traces = _run(self, stream, duration, watch, 1.0)
        meta = {
            "config": self.cfg.config_hash(),
            "format": "float64",
            "layer_latency": self.cfg.layer_latency,
            "sizes": list(self.cfg.sizes),
            "v_unit": self.cfg.v_unit,
            "i_unit": self.cfg.i_unit,
        }
        return SpikeRaster(dense, rasters, meta), traces


@dataclass
class TracePair:
    """Same neurons, same stream: quantized trace vs reference trace."""

    quantized: np.ndarray  # [T, n_watched]
    reference: np.ndarray

    def __post_init__(self):
        if self.quantized.shape != self.reference.shape:
            raise ValueError(
                f"trace shapes differ: {self.quantized.shape} vs {self.reference.shape}"
            )


def stack_traces(traces: dict) -> np.ndarray:
    """Stack a watch-dict into [T, n_watched], keys in sorted order."""
    keys = sorted(traces)
    return np.stack([traces[k] for k in keys], axis=1)


def rmse(pair: TracePair) -> float:
    """Root mean square error over all watched neurons and cycles."""
    if pair.quantized.size == 0:
        raise ValueError("empty traces")
    return math.sqrt(float(np.mean((pair.quantized - pair.reference) ** 2)))


def matched_reference(core: Core) -> ReferenceCore:
    """Reference core seeded with the quantized core's decoded parameters."""
    cfg = replace(core.cfg, registers=tuple(core.decoded_registers()))
    ref = ReferenceCore(cfg)
    for k, w in enumerate(core.decoded_weights()):
        ref.weights[k] = w
    return ref


@dataclass
class FormatComparison:
    fmt: QFormat
    rmse: float
    spike_mismatches: int  # cycles x neurons where spike decisions differ


def format_sweep(cfg: CoreConfig, weight_writes, stream, duration: int,
                 formats) -> list[FormatComparison]:
    """Run one stream through each format and score it against its matched
    float reference.

    Register values are clamped into each format's range on load (a config
    written for a wide format may exceed a narrow one; clamping mirrors a
    saturating register load).  Weights are quantized by truncation.
    """
    results = []
    for fmt in formats:
        qcfg = cfg.with_format(fmt)
        core = Core(qcfg, clamp_registers=True)
        for (layer, pre, post, value) in weight_writes:
            # weight loads saturate rather than alias when out of range
            core.write_weight(layer, pre, post, QWord(fmt, encode_register(value, fmt, clamp=True)))
        raster_q, traces_q = core.run_sample(stream, duration, watch="all")
        ref = matched_reference(core)
        raster_r, traces_r = ref.run_sample(stream, duration, watch="all")
        pair = TracePair(stack_traces(traces_q), stack_traces(traces_r))
        mism = int(
            sum(
                np.count_nonzero(a != b)
                for a, b in zip(raster_q.layers, raster_r.layers)
            )
        )
        results.append(FormatComparison(fmt, rmse(pair), mism))
    return results
