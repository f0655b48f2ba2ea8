"""Double-precision reference model and quantization-error comparison.

`ReferenceCore` is the float64 twin of `core.Core`: it runs the same LIF
cycle (`core._Cycle`) and supplies only its number system, float64 with no
wrapping or truncation.  Pairing a quantized run with a reference run that
uses the format's *decoded* register and weight values isolates the
datapath quantization error, which is what the RMSE sweep measures.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from .core import Core, CoreConfig, _Cycle, _LayerRegs, _masks, encode_register
from .fixedpoint import QFormat, QWord
from .topology import MaskedSynapseError, SynapseAddress
from .topology import build_mask  # noqa: F401  (bound here so bench/spans.py can trace it)

__all__ = [
    "ReferenceCore",
    "TracePair",
    "rmse",
    "stack_traces",
    "matched_reference",
    "FormatComparison",
    "format_sweep",
]


class ReferenceCore(_Cycle):
    """Float64 twin of Core; registers and weights are plain reals."""

    def __init__(self, cfg: CoreConfig):
        self.masks = _masks(cfg)
        self.weights = [np.zeros(m.shape) for m in self.masks]
        super().__init__(cfg, [_LayerRegs(r, float) for r in cfg.registers], np.float64, 1.0)

    def write_weight(self, layer: int, pre: int, post: int, value: float) -> None:
        self._check_synapse(layer, pre, post)
        if not math.isfinite(value):
            raise ValueError(f"weight {value} of synapse (layer={layer}, pre={pre}, "
                             f"post={post}) is not a finite real")
        if not self.masks[layer][pre, post]:
            raise MaskedSynapseError(SynapseAddress(layer, pre, post))
        self.weights[layer][pre, post] = value

    def _activation(self, k: int, spikes_in: np.ndarray) -> np.ndarray:
        return spikes_in.astype(np.float64) @ self.weights[k]

    _mul = staticmethod(operator.mul)

    @staticmethod
    def _leak(d, v):
        return v - d * v

    @staticmethod
    def _fit(x):
        return x


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
