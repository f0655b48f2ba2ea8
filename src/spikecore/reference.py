"""Double-precision reference model and quantization-error comparison.

`ReferenceCore` is the float64 twin of `core.Core`: it runs the same LIF
cycle (`core._Cycle`) and supplies only its number system, float64 with no
wrapping or truncation.  A twin is built from a programmed core, as a
snapshot of its *decoded* register and weight values, so that weights reach
it only through `Core.write_weight`'s checks.  Pairing the core's run with
its twin's isolates the datapath quantization error, which `rmse` measures
on their traces.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from .core import Core, _Cycle
from .topology import build_mask  # noqa: F401  (bound here so bench/spans.py can trace it)

__all__ = [
    "ReferenceCore",
    "TracePair",
    "rmse",
    "stack_traces",
    "matched_reference",
]


class ReferenceCore(_Cycle):
    """Float64 twin of a Core: its decoded registers and weights as plain
    reals, copied when the twin is built.  Later writes to the core do not
    reach the twin."""

    def __init__(self, core: Core):
        if not isinstance(core, Core):
            raise ValueError(f"core {core!r} is not a Core")
        self.weights = core.decoded_weights()
        cfg = replace(core.cfg, registers=tuple(core.decoded_registers()))
        super().__init__(cfg, cfg.registers, np.float64)

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
    if not traces:
        raise ValueError('no traces to stack: run_sample records them only with watch="all"')
    return np.stack([traces[k] for k in sorted(traces)], axis=1)


def rmse(pair: TracePair) -> float:
    """Root mean square error over all watched neurons and cycles."""
    if pair.quantized.size == 0:
        raise ValueError("empty traces")
    return math.sqrt(float(np.mean((pair.quantized - pair.reference) ** 2)))


matched_reference = ReferenceCore  # the name `bench/` calls and traces

