"""Layer connectivity masks and addressable weight memory.

A weight plane connects M pre-synaptic lines to N post-synaptic neurons.
A stored weight is one signed word of the plane's format: its sign is the
synapse's polarity (excitatory >= 0, inhibitory < 0) and its magnitude the
strength.  Masked-out positions are structurally zero and reject writes.
A plane holds integer payloads only: float64 for widths <= 32 (exact for
|raw| <= 2**31), which the activation product reads as stored, else object.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fixedpoint import NamedEnum, QFormat, QWord, whole_number
from .fixedpoint import fit_raw  # noqa: F401  (bound here so bench/spans.py can trace it)

__all__ = [
    "ConnectivityKind",
    "Connectivity",
    "SynapseAddress",
    "MaskedSynapseError",
    "build_mask",
    "WeightMemory",
]


class ConnectivityKind(NamedEnum):
    ALL_TO_ALL = "all"
    ONE_TO_ONE = "one"
    GAUSSIAN = "gaussian"


@dataclass(frozen=True)
class Connectivity:
    kind: ConnectivityKind
    radius: int = 1  # index distance for GAUSSIAN; ignored otherwise

    def __post_init__(self):
        """`kind` is a ConnectivityKind or its name, such as "one"."""
        object.__setattr__(self, "kind", ConnectivityKind.from_name(self.kind))
        if self.kind is ConnectivityKind.GAUSSIAN:
            object.__setattr__(self, "radius", whole_number(self.radius, "radius"))

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
    """Per-plane weight store with a structural connection mask; `raw` holds integer payloads."""

    fmt: QFormat
    mask: np.ndarray
    layer: int = 0
    raw: np.ndarray = field(init=False)

    def __post_init__(self):
        self.raw = np.zeros(self.mask.shape, dtype=np.float64 if self.fmt.width <= 32 else object)

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

    def write(self, pre: int, post: int, weight: QWord) -> None:
        """Store one signed weight; its sign is the synapse's polarity."""
        addr = self._check(pre, post)
        if weight.fmt != self.fmt:
            raise ValueError(f"weight format {weight.fmt} != memory format {self.fmt}")
        if not self.mask[pre, post]:
            raise MaskedSynapseError(addr)
        self.raw[pre, post] = weight.raw

    def presynaptic_weights(self, post: int) -> list[QWord]:
        """Column for one post neuron, in pre index order (accumulation order)."""
        self._check(0, post)
        return [QWord(self.fmt, r) for r in self.raw[:, post]]
