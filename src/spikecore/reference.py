"""Floating-point reference model and quantization-error comparison.

`ReferenceCore` is the float twin of `core.Core`: it runs the same LIF
cycle and activation (`core._Cycle`) on copies of the core's raw words,
in float64 state in units of the quantum, as the core does in integers,
and supplies only its number system: no truncation, wrap or clamp.
A twin is built from a programmed core, as a snapshot of its registers
and weight planes, so that weights reach it only through
`Core.write_weight`'s checks.  Pairing the core's run with its twin's
isolates the datapath quantization error, which `rmse` measures on their
traces.
"""

from __future__ import annotations

import copy
import math
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
    """Float twin of a Core: its register files and copies of its planes, an object
    plane's words in float64, taken when the twin is built.  Later writes to the core
    do not reach the twin.  `cfg` carries the decoded registers."""

    policy = None  # no sum is folded: `_activation` sums every row plainly

    def __init__(self, core: Core):
        if not isinstance(core, Core):
            raise ValueError(f"core {core!r} is not a Core")
        self.planes = [copy.copy(p) for p in core.planes]  # each shares its core plane's mask
        for p in self.planes:
            p.raw = p._raw.astype(p._raw.dtype if p._raw.dtype.kind == "f" else np.float64)
        cfg = replace(core.cfg, registers=tuple(core.decoded_registers()))
        super().__init__(cfg, list(core._regs), np.float64)

    # Scaling by the power of two `quantum` commutes with float64 rounding, so
    # the product is the real product of the register and x, in units of the quantum.
    def _mul(self, r, x):
        return x * (r * self.fmt.quantum)

    @staticmethod
    def _fit(x):
        return x

    def certified(self, layer: int) -> bool:
        return False  # no fit to skip


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
    # The C-order array of np.stack(rows, axis=1), in about half its time.
    return np.array([traces[k] for k in sorted(traces)]).T.copy()


def rmse(pair: TracePair) -> float:
    """Root mean square error over all watched neurons and cycles."""
    if pair.quantized.size == 0:
        raise ValueError("empty traces")
    return math.sqrt(float(np.mean((pair.quantized - pair.reference) ** 2)))


matched_reference = ReferenceCore  # the name `bench/` calls and traces

