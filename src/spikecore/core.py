"""Layered quantized spiking core: weight planes, control registers, and the
cycle-stepping engine.

Layers are indexed 0..K-1 over the LIF layers; sizes[0] is the input width
and weight plane k connects sizes[k] -> sizes[k+1].  All neurons of a layer
share one register file (one decoder per layer).  One cycle, two number
systems: `_Cycle` holds the LIF cycle, its activation and its drivers once,
on raw words.  `Core` steps it in Qn.q on integer arrays, bit-identical to
scalar per-neuron evaluation (`neuron.step_neuron`), and
`reference.ReferenceCore` on float64 copies with no rounding, to measure
the quantization error.

Two drivers step the one LIF kernel: `step_cycle`, one cycle of every
layer, and the layer-major `_scan`.  A layer's activation depends only on
its input spikes, so `_scan` runs each layer through all its cycles before
the next, which reads that raster one cycle late at layer_latency 1.  It
drives `run_sample` and `run_batch` (B samples on [B, N] state).
`Core.run_sample` still loops `step_cycle`, only because the benchmark's
tests count one `core.step_cycle` call per cycle.

Activation is event-driven, as in the hardware: a weight enters a neuron's
sum only when its pre-synaptic line spikes.  Each cycle gathers the weight
rows of the active lines and sums them with the bits of the sequential adds
in pre-synaptic index order.  Under WRAP that is the plain sum, unreduced:
it is fitted with the membrane it is added to, or by `_drive` before a
growth product, because reduction modulo 2**w commutes with +, so
fit(x + fit(a)) == fit(x + a).  SATURATE takes the plain sum too when a
certificate shows that no prefix sum can leave the range, and otherwise
the discrete two-sided Skorokhod map of the prefix sums, which has an
exact closed form (`fixedpoint.accumulate_raw`).

A plane's dtype says how its rows are summed (`topology.WeightMemory`):
float32, float64 or object.  A cycle's row gathers the weight rows of its
active lines (`take`) and sums them in the plane's dtype, or, past the
plane's active-line bound, in the state's (int64 for w <= 32, float64 in
the twin, which has no `policy` to fold by).  A driver hands `_activation`
a layer's whole [T, M] input raster, known before the layer runs: every
layer's in `_scan`, layer 0's in `Core.run_sample`.  On a float plane a row
within the bound sums exactly in any order, so the raster takes one of two
kernels with the same bits, whichever `_gathers` prices lower from the
raster's shape and active count: one product of the raster with the plane,
T*M*N multiply-adds, or the row path per cycle, a cost per gathered word
and per cycle, which wins on a sparse raster of a wide plane.  WRAP takes
the product as it is; SATURATE keeps it where a second product, with
|plane|, gives the certificate.  Cycles past the bound or uncertified take
the row path, and so does every cycle on an object plane.

A register whose raw r lies in [0, 2**q] is a rate in [0, 1]: the decay
always, and the growth when it is at most 1.  A product by such a rate
cannot leave the range of its in-range operand x, since floor(r*x / 2**q)
lies between min(x, 0) and max(x, 0), and neither can the leak step
v - d*v.  So `_mul` runs that product as `(r * x) >> q` under both
policies; the hardware's clamp or wrap would change no bit.  A growth of
exactly 1 (`_one`, raw 2**q) is no product at all: (2**q * a) >> q == a for
every activation a, so the plan holds no growth and `_drive` returns a as
it is.  `_mul` keeps its fresh array for a decay of 1, since `_lif`
overwrites it.

The rest of the membrane update works in place: `_mul` returns a fresh
array, which `_lif` overwrites with the leak step, `_fit(x)` may overwrite
the `x` its caller owns, and `_lif` holds and resets with masked writes into
the updated membrane, which it then stores and never writes again, so
nothing the core hands out changes later.  It fits only where the hardware
latches or compares a value: the updated membrane before the threshold
compare, whose fit also wraps the WRAP activation added into it (modulo 2**w
commutes with +), and a WRAP activation before a growth product in `_drive`.
A run from the zero state (`run_sample`, `run_batch`) skips the membrane
fit of each layer that `Core.certified` proves cannot overflow; a bare
`step_cycle` never does.
The BY_SUBTRACTION reset needs no fit while v_threshold >= 0, since a
spiking neuron has v_threshold <= updated <= max_raw; under a negative
threshold the membrane is fitted once more.  Under WRAP the fit reduces
modulo 2**w, and in between, adds, subtracts and multiplies run on unreduced
integers.  That gives the bits of wrapping after every operation, because
reduction modulo 2**w commutes with + and -, and because every multiply
operand is already reduced (a register, the stored membrane, or the fitted
activation), so that `(a * b) >> q` has the low w bits of the hardware's
truncated product.  An int64 overflow of an intermediate is harmless: 2**w
divides 2**64, so int64 arithmetic keeps every bit below position 64, and
the bits q..q+w-1 of a product are exact.  On int64 state the fit is the
shift pair `x <<= 64 - w; x >>= 64 - w`, which drops the bits above the word
and copies its sign bit into them.  SATURATE clamps a product by a register
outside [0, 1] in `_mul`, and each latched sum in `_fit`, in place on int64
state; each sum is one add or subtract of in-range values, so the fit clamps
exactly where the hardware's adder does.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .fixedpoint import (
    SATURATE,
    WRAP,
    OverflowPolicy,
    QFormat,
    QWord,
    accumulate_raw,
    encode_raw,
    finite_real,
    fit_raw,
    mul_raw,
    raw_dtype,
    whole_number,
)
from .fixedpoint import add_raw, sub_raw  # noqa: F401  (bound for bench/spans.py to trace)
from .neuron import NeuronRegisters, ResetMode
from .topology import Connectivity, ConnectivityKind, WeightMemory, build_mask, valid_index

__all__ = [
    "RealRegisters",
    "CoreConfig",
    "SpikeRaster",
    "Core",
    "encode_register",
]

ALL_TO_ALL = Connectivity(ConnectivityKind.ALL_TO_ALL)
_WORDS = ("decay_rate", "growth_rate", "v_threshold", "v_reset")  # the word registers


def encode_register(value, fmt: QFormat, name: str = "value") -> QWord:
    """The word of `name`, a register or weight: a QWord of `fmt` as it is, or
    a finite real in range truncated toward -inf.  Anything else raises, a real
    out of range included: no load clamps a value into the format."""
    if isinstance(value, QWord):
        if value.fmt != fmt:
            raise ValueError(f"{name} format {value.fmt} != core format {fmt}")
        return value
    return QWord(fmt, _real_raw(value, fmt, name))


def _real_raw(value, fmt: QFormat, name: str) -> int:
    """The raw payload of `value`, a finite real in range, truncated toward -inf."""
    if type(value) is not float:  # a nan or inf float fails the range test below
        value = finite_real(value, name)
    # Truncation toward -inf keeps exactly the reals in [min_value, -min_value).
    if not fmt.min_value <= value < -fmt.min_value:  # `finite_real` names a nan or inf
        raise ValueError(f"{name} {finite_real(value, name)} not representable in {fmt} "
                         f"(range [{fmt.min_value}, {fmt.max_value}])")
    return encode_raw(value, fmt)


@dataclass(frozen=True)
class RealRegisters:
    """Real-valued register file, as carried by config files."""

    decay_rate: float
    growth_rate: float
    v_threshold: float
    reset_mode: ResetMode = ResetMode.BY_SUBTRACTION
    v_reset: float = 0.0
    refractory_period: int = 0

    def __post_init__(self):
        for name in _WORDS:
            object.__setattr__(self, name, finite_real(getattr(self, name), name))
        if not 0.0 <= self.decay_rate <= 1.0:
            raise ValueError(f"decay_rate {self.decay_rate} outside [0, 1]")
        object.__setattr__(self, "reset_mode", ResetMode.from_name(self.reset_mode, "reset_mode"))
        object.__setattr__(self, "refractory_period",
                           whole_number(self.refractory_period, "refractory_period"))

    def quantize(self, fmt: QFormat) -> NeuronRegisters:
        words = {name: encode_register(getattr(self, name), fmt, name) for name in _WORDS}
        return NeuronRegisters(reset_mode=self.reset_mode,
                               refractory_period=self.refractory_period, **words)


@dataclass(frozen=True)
class CoreConfig:
    fmt: QFormat
    sizes: tuple[int, ...]                 # [N0 .. NK], N0 = input width
    connectivity: tuple[Connectivity, ...]  # one per LIF layer
    registers: tuple[RealRegisters, ...]    # one per LIF layer
    policy: OverflowPolicy = WRAP
    layer_latency: int = 0                 # 0: same-cycle cascade, 1: one cycle per layer

    def __post_init__(self):
        if not isinstance(self.fmt, QFormat):
            raise ValueError(f"fmt {self.fmt!r} is not a QFormat")
        for field in ("sizes", "connectivity", "registers"):
            try:
                object.__setattr__(self, field, tuple(getattr(self, field)))
            except TypeError:
                raise ValueError(f"{field} {getattr(self, field)!r} is not a sequence") from None
        object.__setattr__(self, "sizes", tuple(whole_number(n, f"sizes[{i}]")
                                                for i, n in enumerate(self.sizes)))
        if len(self.sizes) < 2:
            raise ValueError("need an input width and at least one LIF layer")
        if 0 in self.sizes:
            raise ValueError("layer sizes must be >= 1")
        k = len(self.sizes) - 1
        if len(self.connectivity) != k or len(self.registers) != k:
            raise ValueError(f"{k} LIF layers need {k} connectivity and register entries, "
                             f"got {len(self.connectivity)} and {len(self.registers)}")
        for field, kind in (("connectivity", Connectivity), ("registers", RealRegisters)):
            for i, entry in enumerate(getattr(self, field)):
                if not isinstance(entry, kind):
                    raise ValueError(f"layer {i}: {field}[{i}] {entry!r} is not a {kind.__name__}")
        object.__setattr__(self, "layer_latency", whole_number(self.layer_latency, "layer_latency"))
        if self.layer_latency not in (0, 1):
            raise ValueError("layer_latency must be 0 or 1")
        object.__setattr__(self, "policy", OverflowPolicy.from_name(self.policy, "policy"))

    @classmethod
    def uniform(cls, fmt: QFormat, sizes, registers: RealRegisters,
                connectivity: Connectivity = ALL_TO_ALL, **kw) -> "CoreConfig":
        """Same registers and connectivity for every layer."""
        sizes = tuple(sizes) if hasattr(sizes, "__iter__") else sizes  # a generator is read once
        k = len(sizes) - 1 if hasattr(sizes, "__len__") else 0  # else CoreConfig raises
        return cls(fmt, sizes, (connectivity,) * k, (registers,) * k, **kw)

    @property
    def n_layers(self) -> int:
        return len(self.sizes) - 1


@dataclass(eq=False)
class SpikeRaster:
    """Spike output of one sample: input stimulus plus every LIF layer."""

    input_spikes: np.ndarray            # [T, N0] bool
    layers: list[np.ndarray]            # K arrays, [T, Nk] bool


def _per_layer(make, *columns) -> list:
    """`make` of each layer's entries of `columns`; a ValueError names the layer."""
    out = []
    for k, entries in enumerate(zip(*columns)):
        try:
            out.append(make(*entries))
        except ValueError as err:
            raise ValueError(f"layer {k}: {err}") from err
    return out


def _gathers(lines: int, n: int, cycles: int, events: int) -> bool:
    """Whether per-cycle gathers of a [cycles, lines] raster's `events` active
    (cycle, line) pairs cost less than its product with an [lines, n] float
    plane.  In multiply-adds of the product, a gathered word costs 8 and a
    cycle 100000, as `tests/kernel_costs.py` measures them."""
    return 8 * events * n + 100_000 * cycles < cycles * lines * n


class _Cycle:
    """The LIF cycle in `neuron.py`'s order, in units of the quantum: it reads
    the words of `planes` raw, and layer k's register words raw in `_plan[k]`,
    which `_compile(k)` decodes from `_regs[k]` at build and at each register
    write.  Adds and subtracts are plain `+` and `-`; a subclass defines the
    number system in four hooks:
    `_mul(r, x)`, raw register r times the array x, as a fresh array;
    `_fit(x)`, which brings a sum into the state's range where the cycle
    latches or compares it and may overwrite `x`; `certified(k)`, whether
    layer k needs no membrane fit on a run from the zero state (`_sure[k]`
    during one); and `policy`, SATURATE to sum rows in order with their
    clamps, else plainly.
    `_one` is 1.0, raw 2**q.  `_lif(k, drive)`, the one LIF kernel, steps
    layer k under drive = growth x activation (the activation itself when
    the growth is `_one`).  `__init__` takes the config, one validated
    `NeuronRegisters` per layer (`_regs`) and the state dtype.  Traces
    scale by 1 / `_one`, a power of two.
    `_out` latches each layer's last spikes, which drive the layer after it in
    `step_cycle`; `_scan` is the other driver (module docstring)."""

    def __init__(self, cfg: CoreConfig, regs, dtype):
        self.cfg = cfg
        self.fmt = cfg.fmt
        self._one = 1 << cfg.fmt.q  # growth 1.0, which `_drive` does not multiply by
        self._regs = regs
        self._dtype = np.dtype(dtype).type  # also the plan's threshold type (faster than an int)
        self._plan = [self._compile(k) for k in range(cfg.n_layers)]
        self._sure = self._never = [False] * cfg.n_layers  # the certificates outside a run
        # First to last, layer k reads layer k-1's spikes of this cycle.  Last to first
        # at layer_latency 1, it reads those of the cycle before, as pipeline registers do.
        self._order = tuple(range(cfg.n_layers))[::-1 if cfg.layer_latency else 1]
        self.reset_state()

    def _compile(self, k: int) -> tuple:
        """`_plan[k]`, layer k's registers decoded once per write: decay raw, growth
        raw (None for `_one`), typed threshold, whether it is negative, reset mode,
        typed value after a TO_ZERO or TO_CONSTANT reset, and refractory period."""
        r = self._regs[k]
        growth, vth = r.growth_rate.raw, self._dtype(r.v_threshold.raw)
        after = r.v_reset.raw if r.reset_mode is ResetMode.TO_CONSTANT else 0
        return (r.decay_rate.raw, None if growth == self._one else growth, vth, bool(vth < 0),
                r.reset_mode, self._dtype(after), r.refractory_period)

    def reset_state(self, batch=()) -> None:
        """Between-sample reset: membranes, refractory counters and every layer's
        latched spikes to zero, in fresh [*batch, N] arrays, not by in-place zeroing:
        a latch holds the spike vector that `step_cycle` returned to its caller."""
        sizes = self.cfg.sizes
        self._vmem = [np.zeros((*batch, n), dtype=self._dtype) for n in sizes[1:]]
        self._refr = [np.zeros((*batch, n), dtype=np.int64) for n in sizes[1:]]
        self._out = [np.zeros((*batch, n), dtype=bool) for n in sizes[1:]]  # the latches
        # Per layer: a refractory counter may be nonzero (`_lif` keeps it).
        self._armed = [True] * self.cfg.n_layers

    def _activation(self, k: int, spikes_in: np.ndarray) -> np.ndarray:
        """Ordered sum of the weight rows of the active inputs, of one cycle's
        [M] row or of each row of a [T, M] raster: on a float plane by one
        product or by the row path per cycle, as `_gathers` picks (module docstring)."""
        w, fmt, bound = self.planes[k]._raw, self.fmt, self.planes[k].active_bound
        if spikes_in.ndim == 1:
            lines = spikes_in.nonzero()[0]
            rows = w.take(lines, axis=0)
            rows = rows if len(lines) <= bound else rows.astype(self._dtype)
            if self.policy is SATURATE:
                return accumulate_raw(rows, fmt)
            return np.add.reduce(rows).astype(self._dtype, copy=False)
        out = np.empty((len(spikes_in), w.shape[1]), dtype=self._dtype)
        gathered = range(len(spikes_in))  # the rows that take the row path
        events = np.count_nonzero(spikes_in)
        if w.dtype.kind == "f" and not _gathers(*w.shape, len(spikes_in), events):
            x = spikes_in.astype(w.dtype)
            out[:] = s = x @ w  # exact in float32 and float64 rows within the active-line bound
            fail = len(w) > bound and np.count_nonzero(spikes_in, axis=1) > bound  # rows past it
            if self.policy is SATURATE:  # `accumulate_raw`'s certificate; |w| is plane-sized
                fail |= (np.abs(s) + x @ np.abs(w) > 2 * fmt.max_raw).any(axis=1)
            gathered = np.flatnonzero(fail)
        for t in gathered:
            out[t] = self._activation(k, spikes_in[t])
        return out

    def _drive(self, k: int, spikes_in: np.ndarray):
        """growth x activation of layer k, for a row or a raster of input spikes."""
        growth, act = self._plan[k][1], self._activation(k, spikes_in)
        if growth is None:
            return act
        return self._mul(growth, self._fit(act) if self.policy is WRAP else act)

    def _lif(self, k: int, drive) -> np.ndarray:
        """Step layer k's neurons under `drive`; returns their spikes."""
        decay, _, vth, negative, mode, after, period = self._plan[k]
        vmem, refr = self._vmem[k], self._refr[k]

        updated = self._mul(decay, vmem)
        np.subtract(vmem, updated, out=updated)  # the leak step v - d*v
        updated += drive
        if not self._sure[k]:
            updated = self._fit(updated)
        # With no period and no neuron held the hold is a no-op; a period
        # written to 0 still counts down the neurons held under the old one.
        refractory = period > 0 or (self._armed[k] and refr.any())
        self._armed[k] = refractory
        if refractory:
            held = refr > 0
            np.copyto(updated, vmem, where=held)
            spikes = (~held) & (updated >= vth)
        else:
            spikes = updated >= vth

        if mode is ResetMode.BY_SUBTRACTION:
            np.subtract(updated, vth, out=updated, where=spikes)
            if negative:  # only then can updated - vth leave the range
                updated = self._fit(updated)
        elif mode is ResetMode.DEFAULT:  # one more leak step, no discrete reset
            np.copyto(updated, updated - self._mul(decay, updated), where=spikes)
        else:
            np.copyto(updated, after, where=spikes)
        self._vmem[k] = updated  # never written again
        if refractory:
            self._refr[k] = np.where(held, refr - 1, np.where(spikes, period, 0))
        return spikes

    def step_cycle(self, input_spikes, *, drive0=None) -> list[np.ndarray]:
        """Advance every layer by one spike-clock cycle; returns a new list of the spikes it
        latches.  Layer 0's drive is `drive0` (`Core.run_sample`'s), else that of `input_spikes`."""
        if drive0 is None:  # `Core.run_sample` has checked its whole stream
            stim = np.asarray(input_spikes)
            if stim.shape != (self.cfg.sizes[0],):
                raise ValueError(f"input width {stim.shape} != ({self.cfg.sizes[0]},)")
            drive0 = self._drive(0, _spikes(stim, ("line",)))
        for k in self._order:
            self._out[k] = self._lif(k, self._drive(k, self._out[k - 1]) if k else drive0)
        return list(self._out)

    def run_sample(self, stream, duration: int, watch=None):
        """Feed one sample for `duration` cycles from a fresh state.

        `stream` is a dense [T, N0] 0/1 array, cut or zero-padded to
        `duration` cycles.  `watch` is None, for no traces, or "all", to
        trace every neuron.  Returns (SpikeRaster, traces) where traces
        maps (layer, neuron) -> float64[T] of decoded vmem at the end of
        each cycle, in (layer, neuron) order, or is {} when `watch` is None.
        """
        dense, spikes, vmems = self._start(self._run_sample, [stream], duration, watch, False)
        rows = [np.multiply(v.T.astype(np.float64), 1 / self._one, order="C") for v in vmems]
        traces = {(k, j): row for k, layer in enumerate(rows) for j, row in enumerate(layer)}
        return SpikeRaster(dense, spikes), traces

    def run_batch(self, streams, duration: int, watch=None):
        """Feed B streams at once on [B, N] state, each as `run_sample` does.
        Returns per layer the [B, T, N] spike rasters and, when `watch` is "all",
        the [B, T, N] float64 decoded membranes ([] when None).  Ends with `reset_state()`."""
        dense, spikes, vmems = self._start(self._scan, streams, duration, watch, True)
        self.reset_state()
        return ([s.swapaxes(0, 1) for s in spikes],
                [v.swapaxes(0, 1).astype(np.float64, copy=False) * (1 / self._one) for v in vmems])

    def _start(self, driver, streams, duration, watch, batch: bool):
        """Both drivers' checks of `watch`, `duration` and each stream (named by its
        index in a batch); then a fresh state, the [T, B, N0] or [T, N0] stimulus and per
        layer the records of spikes and, under `watch`, raw membranes, which `driver`
        fills under the layers' certificates (dropped when it returns)."""
        if not (watch is None or (isinstance(watch, str) and watch == "all")):
            raise ValueError(f"watch must be None or 'all', got {watch!r}")
        duration = whole_number(duration, "duration")
        if not hasattr(streams, "__iter__"):
            raise ValueError(f"streams {streams!r} is not a sequence")
        streams = list(streams)  # a generator is read once
        if not streams:
            raise ValueError("empty batch: run_batch needs at least one stream")
        sizes = self.cfg.sizes
        dense = np.zeros((len(streams), duration, sizes[0]), dtype=bool)
        for i, stream in enumerate(streams):
            try:
                stream = np.asarray(stream)
                if stream.ndim != 2 or stream.shape[1] != sizes[0]:
                    raise ValueError(f"dense stream must be [T, {sizes[0]}], got {stream.shape}")
                dense[i, :len(stream)] = _spikes(stream, ("cycle", "line"))[:duration]
            except ValueError as err:
                raise ValueError(f"stream {i}: {err}") if batch else err
        dense = dense.swapaxes(0, 1) if batch else dense[0]
        self.reset_state(dense.shape[1:-1])
        shapes = [(*dense.shape[:-1], n) for n in sizes[1:]]
        out = (dense, [np.empty(shape, dtype=bool) for shape in shapes],
               [np.empty(shape, dtype=self._dtype) for shape in shapes] if watch else [])
        self._sure = [self.certified(k) for k in range(self.cfg.n_layers)]
        try:
            driver(*out)
        finally:
            self._sure = self._never
        return out

    def _scan(self, dense: np.ndarray, spikes, vmems) -> None:
        """The layer-major driver: per layer, one `_drive` over the [T, ..., M] input
        raster, then T `_lif` steps latched in `_out[k]` that fill the records."""
        x = dense
        for k, out in enumerate(spikes):
            if k and self.cfg.layer_latency:  # layer k-1's spikes, one cycle late
                x = np.concatenate((np.zeros_like(x[:1]), x[:-1]))
            drive = self._drive(k, x.reshape(-1, x.shape[-1])).reshape(out.shape)
            for t, row in enumerate(drive):
                out[t] = self._out[k] = self._lif(k, row)
                if vmems:
                    vmems[k][t] = self._vmem[k]
            x = out

    def _run_sample(self, dense: np.ndarray, spikes, vmems) -> None:
        self._scan(dense, spikes, vmems)  # `Core` steps cycle by cycle instead (module docstring)


class Core(_Cycle):
    """One core instance: a single logical timeline of spike-clock cycles.  `cfg` is the
    config it was built from: `write_register` changes `registers(k)`, not `cfg`."""

    def __init__(self, cfg: CoreConfig, threads: int = 1):
        """`threads` is ignored; `bench/workloads.py` still passes it."""
        if not isinstance(cfg, CoreConfig):
            raise ValueError(f"config {cfg!r} is not a CoreConfig")
        self.policy = cfg.policy
        regs = _per_layer(lambda r: r.quantize(cfg.fmt), cfg.registers)
        dtype = raw_dtype(cfg.fmt)
        # On int64 state `_fit` shifts by `_spare` (WRAP) or clamps to [_lo, _hi].
        self._spare = 64 - cfg.fmt.width if self.policy is WRAP and dtype is np.int64 else 0
        self._lo, self._hi = (cfg.fmt.min_raw, cfg.fmt.max_raw) if dtype is np.int64 else (0, 0)
        super().__init__(cfg, regs, dtype)
        masks = _per_layer(build_mask, cfg.connectivity, cfg.sizes[:-1], cfg.sizes[1:])
        self.planes = [WeightMemory(cfg.fmt, mask, layer=k) for k, mask in enumerate(masks)]

    def _run_sample(self, dense: np.ndarray, spikes, vmems) -> None:
        """`run_sample`'s driver: one `step_cycle` per cycle (module docstring)."""
        for t, drive0 in enumerate(self._drive(0, dense)):
            for k, out in enumerate(self.step_cycle(dense[t], drive0=drive0)):
                spikes[k][t] = out
                if vmems:
                    vmems[k][t] = self._vmem[k]

    # -- configuration ------------------------------------------------------

    def _check_layer(self, layer: int, what: str) -> None:
        if not valid_index(layer, self.cfg.n_layers):
            raise IndexError(f"{what} of layer {layer}: no such layer")

    def registers(self, layer: int) -> NeuronRegisters:
        self._check_layer(layer, "registers")
        return self._regs[layer]

    def certified(self, layer: int) -> bool:
        """Whether no membrane update of `layer` can overflow on a run from the zero state
        (growth 1, decay d > 0, reset by subtraction, vth >= 0).  Activations lie in the
        plane's [lo, hi] (`column_bounds`), so the membrane stays in [min(0, lo/d), H],
        H = max(0, vth - 1, (hi + 1 - vth)/d), and the update in [lo/d, (1 - d) H + 1 + hi];
        the +1 is the leak floor's slack.  Checked in exact integers, scaled by decay x 1.0."""
        self._check_layer(layer, "certificate")
        d, growth, vth, negative, mode = self._plan[layer][:5]
        if growth is not None or not d or negative or mode is not ResetMode.BY_SUBTRACTION:
            return False
        (lo, hi), one, vth = self.planes[layer].column_bounds(), self._one, int(vth)
        top = max(0, (vth - 1) * d, (hi + 1 - vth) * one)  # H x decay
        return (lo * one >= self.fmt.min_raw * d
                and (one - d) * top + (hi + 1) * d * one <= self.fmt.max_raw * d * one)

    def write_register(self, layer: int, name: str, value) -> None:
        """Program one control register; takes effect from the next cycle.

        The new register file is checked by `NeuronRegisters`, as a whole.
        """
        self._check_layer(layer, f"register {name!r}")
        regs = self._regs[layer]
        if name not in {f.name for f in fields(regs)}:
            raise ValueError(f"unknown register {name!r}")
        if name in _WORDS:
            value = encode_register(value, self.fmt, name)
        self._regs[layer] = replace(regs, **{name: value})
        self._plan[layer] = self._compile(layer)

    def write_weight(self, layer: int, pre: int, post: int, value) -> None:
        """Program one synapse; `value` is a signed real or QWord.  The checks run
        address, value, format, mask.  A Python float reaches its plane as its raw
        payload, with no QWord built; any other value goes through `encode_register`."""
        sizes = self.cfg.sizes
        if not (type(layer) is type(pre) is type(post) is int and 0 <= layer < len(sizes) - 1
                and 0 <= pre < sizes[layer] and 0 <= post < sizes[layer + 1]):
            if not (valid_index(layer, self.cfg.n_layers) and valid_index(pre, sizes[layer])
                    and valid_index(post, sizes[layer + 1])):  # numpy indices pass here
                raise IndexError(f"synapse (layer={layer}, pre={pre}, post={post}) outside "
                                 f"the planes of sizes {sizes}")
        try:
            word = (_real_raw(value, self.fmt, "") if type(value) is float
                    else encode_register(value, self.fmt))
        except ValueError:  # then the check runs again, to raise under the synapse's name
            word = encode_register(
                value, self.fmt, f"weight of synapse (layer={layer}, pre={pre}, post={post})")
        self.planes[layer].write(pre, post, word)

    def decoded_registers(self) -> list[RealRegisters]:
        """Register values as the datapath sees them (decoded from the format)."""
        return [RealRegisters(f.decay_rate.value, f.growth_rate.value, f.v_threshold.value,
                              f.reset_mode, f.v_reset.value, f.refractory_period)
                for f in self._regs]

    def decoded_weights(self) -> list[np.ndarray]:
        return [p._raw.astype(np.float64) * self.fmt.quantum for p in self.planes]

    # -- number system ----------------------------------------------------------

    # The product runs unreduced under WRAP, where `_fit` wraps the sum, and
    # for a rate r in [0, 1]; only SATURATE with r outside [0, 1] clamps
    # (module docstring).  The raw helpers are looked up in this module per
    # call, so a tracer on `core.mul_raw` or `core.fit_raw` sees each.
    def _mul(self, r, x):
        if self.policy is WRAP or 0 <= r <= self._one:
            x = r * x
            return np.right_shift(x, self.fmt.q, out=x)
        return mul_raw(r, x, self.fmt, self.policy)

    def _fit(self, x):
        if self._spare:
            x <<= self._spare
            return np.right_shift(x, self._spare, out=x)
        if self._hi:
            np.maximum(x, self._lo, out=x)
            return np.minimum(x, self._hi, out=x)
        return fit_raw(x, self.fmt, self.policy)

    def close(self) -> None:
        """Does nothing; `bench/` still calls it."""


def _spikes(stim: np.ndarray, axes: tuple[str, ...]) -> np.ndarray:
    """`stim` as bool; a value other than 0 or 1 raises, naming its index along `axes`."""
    bad = () if stim.dtype == bool else np.argwhere((stim != 0) & (stim != 1))
    if len(bad):
        where = ", ".join(f"{axis} {i}" for axis, i in zip(axes, bad[0]))
        raise ValueError(f"stimulus {where}: {stim[tuple(bad[0])]} is not a spike (0 or 1)")
    return stim.astype(bool, copy=False)
