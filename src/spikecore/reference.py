"""Floating-point reference model and quantization-error comparison.

`ReferenceCore` is the float twin of `core.Core`: it runs the same LIF
cycle (`core._Cycle`) and supplies only its number system, with no
wrapping or truncation.  Its state and arithmetic are float64; its weights
keep the dtype of the core's planes (`topology.WeightMemory`), so that a
float32 plane is summed by a float32 product, exact within the plane's
active-line bound, and a row past the bound is summed again in float64.
A twin is built from a programmed core, as a snapshot of its *decoded*
register and weight values, so that weights reach it only through
`Core.write_weight`'s checks.  Pairing the core's run with its twin's
isolates the datapath quantization error, which `rmse` measures on their
traces.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from .core import Core, _Cycle
from .topology import build_mask  # noqa: F401  (bound here so bench/spans.py can trace it)
from .topology import past_bound

__all__ = [
    "ReferenceCore",
    "TracePair",
    "rmse",
    "stack_traces",
    "matched_reference",
]


class ReferenceCore(_Cycle):
    """Float twin of a Core: its decoded registers as plain reals and its decoded
    weights in the dtype of each plane, float64 for an object plane, copied when
    the twin is built.  Later writes to the core do not reach the twin."""

    def __init__(self, core: Core):
        if not isinstance(core, Core):
            raise ValueError(f"core {core!r} is not a Core")
        # A float32 word is an integer below 2**24 times 2**-q: float32 holds it.
        raw = [p.raw if p.raw.dtype.kind == "f" else p.raw.astype(np.float64) for p in core.planes]
        self.weights = [w * core.fmt.quantum for w in raw]
        self._bounds = [p.active_bound for p in core.planes]
        cfg = replace(core.cfg, registers=tuple(core.decoded_registers()))
        super().__init__(cfg, cfg.registers, np.float64)

    def _activation(self, k: int, spikes_in: np.ndarray) -> np.ndarray:
        """One product in the plane's dtype, as float64; a row past the plane's
        active-line bound is summed again in float64, as the core gathers it."""
        w = self.weights[k]
        act = (spikes_in.astype(w.dtype) @ w).astype(np.float64, copy=False)
        rows, sums = spikes_in.reshape(-1, len(w)), act.reshape(-1, w.shape[1])
        for t in past_bound(rows, self._bounds[k]).nonzero()[0]:
            sums[t] = w[rows[t]].sum(axis=0, dtype=np.float64)
        return act

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

