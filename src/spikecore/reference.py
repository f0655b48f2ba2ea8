"""Double-precision reference model and quantization-error comparison.

`ReferenceCore` is the float64 twin of `core.Core`: it runs the same LIF
cycle (`core._Cycle`) and supplies only its number system, float64 with no
wrapping or truncation.  Pairing a quantized run with a reference run that
uses the format's *decoded* register and weight values isolates the
datapath quantization error, which `rmse` measures on their traces.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from .core import Core, CoreConfig, _Cycle, _masks
from .fixedpoint import finite_real
from .topology import MaskedSynapseError
from .topology import build_mask  # noqa: F401  (bound here so bench/spans.py can trace it)

__all__ = [
    "ReferenceCore",
    "TracePair",
    "rmse",
    "stack_traces",
    "matched_reference",
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


@dataclass(eq=False)
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

