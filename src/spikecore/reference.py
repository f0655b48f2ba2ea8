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

from .core import _WORDS, Core, CoreConfig, _Cycle, _masks
from .fixedpoint import QFormat, finite_real
from .topology import MaskedSynapseError
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
        super().__init__(cfg, cfg.registers, np.float64)

    def write_weight(self, layer: int, pre: int, post: int, value: float) -> None:
        self._check_synapse(layer, pre, post)
        finite_real(value, f"weight of synapse (layer={layer}, pre={pre}, post={post})")
        if not self.masks[layer][pre, post]:
            raise MaskedSynapseError(layer, pre, post)
        self.weights[layer][pre, post] = value

    def _activation(self, k: int, spikes_in: np.ndarray) -> np.ndarray:
        return spikes_in.astype(np.float64) @ self.weights[k]

    _number = staticmethod(float)
    _mul = staticmethod(operator.mul)
    _one = 1.0

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
    return np.stack([traces[k] for k in sorted(traces)], axis=1)


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

    A config written for a wide format may exceed a narrow one, so the
    word registers and the weights are clamped here into [min_value,
    max_value] of each format before `core.encode_register` truncates
    them.  For a finite real, clamping and then truncating gives the word
    that truncating and then saturating gives: a saturating load, not an
    alias.
    """
    results = []
    for fmt in formats:
        fmt_cfg = replace(cfg, fmt=fmt)  # checks fmt before its range is read
        lo, hi = fmt.min_value, fmt.max_value
        regs = tuple(replace(r, **{n: min(max(getattr(r, n), lo), hi) for n in _WORDS})
                     for r in cfg.registers)
        core = Core(replace(fmt_cfg, registers=regs))
        for (layer, pre, post, value) in weight_writes:
            core.write_weight(layer, pre, post, min(max(finite_real(value, "weight"), lo), hi))
        raster_q, traces_q = core.run_sample(stream, duration, watch="all")
        ref = matched_reference(core)
        raster_r, traces_r = ref.run_sample(stream, duration, watch="all")
        pair = TracePair(stack_traces(traces_q), stack_traces(traces_r))
        mism = sum(int(np.count_nonzero(a != b)) for a, b in zip(raster_q.layers, raster_r.layers))
        results.append(FormatComparison(fmt, rmse(pair), mism))
    return results
