"""Layer connectivity masks and addressable weight memory.

A weight plane connects M pre-synaptic lines to N post-synaptic neurons.
A stored weight is one signed word of the plane's format: its sign is the
synapse's polarity (excitatory >= 0, inhibitory < 0) and its magnitude the
strength.  Masked-out positions are structurally zero and reject writes.
A plane holds integer payloads, in float64 when every column sum is exact
there, in any order (width <= 32 and M * 2**(w-1) <= 2**53): the core then
multiplies the stored plane.  Otherwise in the state dtype `raw_dtype`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .fixedpoint import NamedEnum, QFormat, QWord, raw_dtype, whole_number
from .fixedpoint import fit_raw  # noqa: F401  (bound here so bench/spans.py can trace it)

__all__ = [
    "ConnectivityKind",
    "Connectivity",
    "MaskedSynapseError",
    "valid_index",
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
        object.__setattr__(self, "radius", whole_number(self.radius, "radius"))


class MaskedSynapseError(ValueError):
    """Write addressed a synapse the connectivity mask does not provide;
    `addr` is its (layer, pre, post), layer the 0-based weight-plane index."""

    def __init__(self, layer: int, pre: int, post: int):
        self.addr = (layer, pre, post)
        super().__init__(f"synapse (layer={layer}, pre={pre}, post={post}) is masked out")


def valid_index(value, stop: int) -> bool:
    """`value` is an index in [0, stop): an integer, not 1.0 or a bool (a numpy mask)."""
    try:
        return not isinstance(value, bool) and 0 <= operator.index(value) < stop
    except TypeError:
        return False


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
        exact = self.fmt.width <= 32 and self.m << (self.fmt.width - 1) <= 1 << 53
        self.raw = np.zeros(self.mask.shape, dtype=np.float64 if exact else raw_dtype(self.fmt))

    @property
    def m(self) -> int:
        return self.mask.shape[0]

    @property
    def n(self) -> int:
        return self.mask.shape[1]

    def _check(self, pre: int, post: int) -> None:
        if not (valid_index(pre, self.m) and valid_index(post, self.n)):
            raise IndexError(
                f"synapse (layer={self.layer}, pre={pre}, post={post}) outside {self.m}x{self.n}"
            )

    def write(self, pre: int, post: int, weight: QWord) -> None:
        """Store one signed weight; its sign is the synapse's polarity."""
        self._check(pre, post)
        if weight.fmt != self.fmt:
            raise ValueError(f"weight format {weight.fmt} != memory format {self.fmt}")
        if not self.mask[pre, post]:
            raise MaskedSynapseError(self.layer, pre, post)
        self.raw[pre, post] = weight.raw

    def presynaptic_weights(self, post: int) -> list[QWord]:
        """Column for one post neuron, in pre index order (accumulation order)."""
        self._check(0, post)
        return [QWord(self.fmt, r) for r in self.raw[:, post]]
