"""Layer connectivity masks, synaptic polarity, and addressable weight memory.

A weight plane connects M pre-synaptic lines to N post-synaptic neurons.
The stored entry folds the connection mask, the excitatory/inhibitory
polarity (+1/-1) and the weight magnitude into one signed fixed-point
number; masked-out positions are structurally zero and reject writes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .fixedpoint import WRAP, OverflowPolicy, QFormat, QWord, fit_raw, raw_dtype

__all__ = [
    "ConnectivityKind",
    "Connectivity",
    "SynapseAddress",
    "MaskedSynapseError",
    "build_mask",
    "WeightMemory",
]


class ConnectivityKind(enum.Enum):
    ALL_TO_ALL = "all"
    ONE_TO_ONE = "one"
    GAUSSIAN = "gaussian"


@dataclass(frozen=True)
class Connectivity:
    kind: ConnectivityKind
    radius: int = 1  # index distance for GAUSSIAN; ignored otherwise

    def __post_init__(self):
        if self.kind is ConnectivityKind.GAUSSIAN and self.radius < 0:
            raise ValueError("gaussian radius must be >= 0")

    @classmethod
    def parse(cls, text: str, radius: int = 1) -> "Connectivity":
        try:
            kind = ConnectivityKind(text.strip().lower())
        except ValueError:
            names = ", ".join(k.value for k in ConnectivityKind)
            raise ValueError(f"unknown connectivity {text!r} (expected one of: {names})")
        return cls(kind, radius)

    def __str__(self) -> str:
        if self.kind is ConnectivityKind.GAUSSIAN:
            return f"gaussian(r={self.radius})"
        return self.kind.value


@dataclass(frozen=True)
class SynapseAddress:
    """(layer, pre, post): layer is the 0-based weight-plane index."""

    layer: int
    pre: int
    post: int


class MaskedSynapseError(ValueError):
    """Write addressed a synapse the connectivity mask does not provide."""

    def __init__(self, addr: SynapseAddress):
        self.addr = addr
        super().__init__(
            f"synapse (layer={addr.layer}, pre={addr.pre}, post={addr.post}) is masked out"
        )


def build_mask(conn: Connectivity, m: int, n: int) -> np.ndarray:
    """Boolean [M, N] connection mask; mask[i, j] says pre i feeds post j."""
    if m < 1 or n < 1:
        raise ValueError(f"mask dimensions must be >= 1, got {m}x{n}")
    if conn.kind is ConnectivityKind.ALL_TO_ALL:
        return np.ones((m, n), dtype=bool)
    if conn.kind is ConnectivityKind.ONE_TO_ONE:
        if m != n:
            raise ValueError(f"one-to-one needs square dimensions, got {m}x{n}")
        return np.eye(m, dtype=bool)
    i = np.arange(m)[:, None]
    j = np.arange(n)[None, :]
    return np.abs(i - j) <= conn.radius


@dataclass
class WeightMemory:
    """Per-plane addressable weight store with a structural connection mask."""

    fmt: QFormat
    mask: np.ndarray
    layer: int = 0
    raw: np.ndarray = field(init=False)

    def __post_init__(self):
        self.raw = np.zeros(self.mask.shape, dtype=raw_dtype(self.fmt))

    @property
    def m(self) -> int:
        return self.mask.shape[0]

    @property
    def n(self) -> int:
        return self.mask.shape[1]

    def _check(self, pre: int, post: int) -> SynapseAddress:
        addr = SynapseAddress(self.layer, pre, post)
        if not (0 <= pre < self.m and 0 <= post < self.n):
            raise IndexError(
                f"synapse (layer={self.layer}, pre={pre}, post={post}) outside {self.m}x{self.n}"
            )
        return addr

    def write(self, pre: int, post: int, magnitude: QWord, polarity: int,
              policy: OverflowPolicy = WRAP) -> None:
        addr = self._check(pre, post)
        if polarity not in (-1, 1):
            raise ValueError(f"polarity must be +1 or -1, got {polarity}")
        if magnitude.fmt != self.fmt:
            raise ValueError(f"weight format {magnitude.fmt} != memory format {self.fmt}")
        if not self.mask[pre, post]:
            raise MaskedSynapseError(addr)
        self.raw[pre, post] = fit_raw(polarity * magnitude.raw, self.fmt, policy)

    def presynaptic_weights(self, post: int) -> list[QWord]:
        """Column for one post neuron, in pre index order (accumulation order)."""
        self._check(0, post)
        return [QWord(self.fmt, int(r)) for r in self.raw[:, post]]
