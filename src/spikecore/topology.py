"""Layer connectivity masks and addressable weight memory.

A weight plane connects M pre-synaptic lines to N post-synaptic neurons.
A stored weight is one signed word of the plane's format: its sign is the
synapse's polarity (excitatory >= 0, inhibitory < 0) and its magnitude the
strength.  Masked-out positions are structurally zero and reject writes.
A write checks the address, the value and its format, then the mask; a
real reaches its plane as its raw payload (`core.Core.write_weight`).
A plane holds integer payloads, and every partial sum of a row with at most
its active-line bound of active lines is exact, in any order: in float32
when w <= 24 and ceil(M/2) * 2**(w-1) <= 2**24 (bound 2**(25-w)), else in
float64 when w <= 32 (bound min(M, 2**(54-w))); the core and its twin
sum in the stored plane's dtype, by product or gathers, and sum the rows of
a raster past the bound again, in the state's.  A wider plane holds Python ints (bound M).
A plane caches its column sums' bounds for `core.Core.certified`, its array
read-only meanwhile: `write` and any fetch of `raw` drop them, so a `raw`
array held across a run raises ValueError when written until `raw` is fetched.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .fixedpoint import NamedEnum, QFormat, QWord, whole_number
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
    radius: int = 1  # GAUSSIAN: |i*(N-1) - j*(M-1)| <= radius*(max(M, N) - 1); 0 needs M = N

    def __post_init__(self):
        """`kind` is a ConnectivityKind or its name, such as "one"."""
        object.__setattr__(self, "kind", ConnectivityKind.from_name(self.kind, "kind"))
        object.__setattr__(self, "radius", whole_number(self.radius, "radius"))


class MaskedSynapseError(ValueError):
    """Write addressed a synapse the connectivity mask does not provide; the
    message names its (layer, pre, post), layer the 0-based weight-plane index."""

    def __init__(self, layer: int, pre: int, post: int):
        super().__init__(f"synapse (layer={layer}, pre={pre}, post={post}) is masked out")


def valid_index(value, stop: int) -> bool:
    """`value` is an index in [0, stop): an integer, not 1.0 or a bool (a numpy mask)."""
    if type(value) is int:  # the common case, without the checks below
        return 0 <= value < stop
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
    if conn.radius == 0 and m != n:  # the band would keep only the exact proportional pairs
        raise ValueError(f"gaussian radius 0 needs square dimensions, got {m}x{n}")
    # Post j centres on its proportional pre position, within r on the smaller side's grid.
    i = np.arange(m)[:, None] * (n - 1)
    j = np.arange(n)[None, :] * (m - 1)
    return np.abs(i - j) <= conn.radius * (max(m, n) - 1)


@dataclass(eq=False)
class WeightMemory:
    """Per-plane weight store with a structural connection mask; `raw` holds integer payloads."""

    fmt: QFormat
    mask: np.ndarray
    layer: int = 0
    active_bound: int = field(init=False)

    def __post_init__(self):
        m, w = self.mask.shape[0], self.fmt.width
        single = w <= 24 and (m + 1) // 2 << (w - 1) <= 1 << 24  # a half-active row is exact
        dtype = np.float64 if w <= 32 else object  # a float64 row is exact to 2**(54-w) lines
        self.raw = np.zeros(self.mask.shape, dtype=np.float32 if single else dtype)
        self.active_bound = 1 << (25 - w) if single else min(m, 1 << (54 - w)) if w <= 32 else m

    @property
    def raw(self) -> np.ndarray:  # a fetch drops the cached bounds (module docstring)
        if self._bounds is not None:
            self._bounds, self._raw.flags.writeable = None, True
        return self._raw

    @raw.setter
    def raw(self, array: np.ndarray) -> None:
        self._raw, self._bounds = array, None

    def column_bounds(self) -> tuple[int, int]:
        """(least column sum of negative words, greatest of positive ones), exact; cached."""
        if self._bounds is None:
            lo = hi = 0
            for i in range(0, len(self._raw), 64):  # no plane-sized temporary
                rows = self._raw[i:i + 64].astype(object if self._raw.dtype == object else np.int64)
                lo, hi = lo + np.minimum(rows, 0).sum(axis=0), hi + np.maximum(rows, 0).sum(axis=0)
            self._bounds = int(np.min(lo)), int(np.max(hi))
            self._raw.flags.writeable = False
        return self._bounds

    def write(self, pre: int, post: int, weight) -> None:
        """Store one signed weight, a QWord of the plane's format or its raw payload
        (an int in range), after checks of address, payload and format, then mask."""
        (m, n), fmt = self.mask.shape, self.fmt
        if not (valid_index(pre, m) and valid_index(post, n)):
            raise IndexError(
                f"synapse (layer={self.layer}, pre={pre}, post={post}) outside {m}x{n}"
            )
        if not (type(weight) is int and fmt.min_raw <= weight <= fmt.max_raw):
            if not isinstance(weight, QWord):
                raise ValueError(f"synapse (layer={self.layer}, pre={pre}, post={post}): weight "
                                 f"{weight!r} is neither a QWord nor a raw payload of {fmt}")
            if weight.fmt is not fmt and weight.fmt != fmt:
                raise ValueError(f"weight format {weight.fmt} != memory format {fmt}")
            weight = weight.raw
        if not self.mask[pre, post]:
            raise MaskedSynapseError(self.layer, pre, post)
        (self._raw if self._bounds is None else self.raw)[pre, post] = weight  # `raw` drops bounds

    def presynaptic_weights(self, post: int) -> list[QWord]:
        """Column for one post neuron, in pre index order (accumulation order)."""
        m, n = self.mask.shape
        if not valid_index(post, n):
            raise IndexError(f"column (layer={self.layer}, post={post}) outside {m}x{n}")
        return [QWord(self.fmt, r) for r in self._raw[:, post]]
