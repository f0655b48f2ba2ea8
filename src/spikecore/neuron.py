"""Quantized leaky integrate-and-fire neuron, and the rules of its register file.

`NeuronRegisters` is the one place that decides what a valid register file
is: the decay raw range, the reset-mode coercion (`ResetMode.from_name`)
and the refractory-period check (`refractory_cycles`).  `core.Core`
programs its registers through it, and `core.RealRegisters` reuses the two
helpers.

One simulation timestep is one spike-clock cycle.  The per-cycle order is
fixed for bit-exact reproducibility:

  1. accumulate this cycle's activation (weighted sum of input spikes,
     sequential adds in pre-synaptic index order),
  2. if the refractory counter is armed: count down, hold the membrane,
     emit nothing,
  3. otherwise: membrane update
        vmem <- vmem - decay_rate*vmem + growth_rate*act
     (two multiplies, then subtract, then add), followed by threshold
     compare and the configured reset.

The threshold compare is >=.  A spike arms the refractory counter, so two
spikes are always at least refractory_period + 1 cycles apart.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .fixedpoint import WRAP, OverflowPolicy, QFormat, QWord, add, mul, sub

__all__ = [
    "ResetMode",
    "refractory_cycles",
    "NeuronRegisters",
    "NeuronState",
    "accumulate_activation",
    "membrane_update",
    "fire_and_reset",
    "refractory_tick",
    "step_neuron",
]


class ResetMode(enum.Enum):
    TO_CONSTANT = "constant"
    TO_ZERO = "zero"
    BY_SUBTRACTION = "subtract"
    DEFAULT = "default"

    @classmethod
    def from_name(cls, name) -> "ResetMode":
        """A ResetMode, or the mode that a name such as "zero" selects."""
        if isinstance(name, cls):
            return name
        if not isinstance(name, str):
            raise ValueError(f"reset_mode {name!r} is neither a ResetMode nor a mode name")
        try:
            return cls(name.strip().lower())
        except ValueError:
            names = ", ".join(m.value for m in cls)
            raise ValueError(f"unknown reset mode {name!r} (expected one of: {names})")


def refractory_cycles(value) -> int:
    """A refractory period in cycles: an integral value >= 0, as an int."""
    try:
        period = int(value)
        integral = period == value
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral or period < 0:
        raise ValueError(f"refractory_period {value!r} is not a whole number of cycles >= 0")
    return period


@dataclass(frozen=True)
class NeuronRegisters:
    """Run-time-programmable dynamics parameters, shared by a whole layer."""

    decay_rate: QWord    # per-cycle leak fraction, in [0, 1]
    growth_rate: QWord   # activation-to-membrane gain
    v_threshold: QWord
    reset_mode: ResetMode = ResetMode.BY_SUBTRACTION
    v_reset: QWord | None = None          # only used by TO_CONSTANT
    refractory_period: int = 0            # spike-clock cycles

    def __post_init__(self):
        fmt = self.decay_rate.fmt
        others = [self.growth_rate, self.v_threshold]
        if self.v_reset is not None:
            others.append(self.v_reset)
        for w in others:
            if w.fmt != fmt:
                raise ValueError(f"register format mismatch: {w.fmt} vs {fmt}")
        # In integers: for q > 52, raw * quantum rounds 1 + quantum to 1.0.
        if not 0 <= self.decay_rate.raw <= 1 << fmt.q:
            raise ValueError(f"decay_rate raw {self.decay_rate.raw} outside [0, 2**{fmt.q}] "
                             f"(a rate in [0, 1])")
        object.__setattr__(self, "reset_mode", ResetMode.from_name(self.reset_mode))
        object.__setattr__(self, "refractory_period", refractory_cycles(self.refractory_period))
        if self.reset_mode is ResetMode.TO_CONSTANT and self.v_reset is None:
            raise ValueError("reset mode 'constant' needs v_reset")

    @property
    def fmt(self) -> QFormat:
        return self.decay_rate.fmt


@dataclass
class NeuronState:
    vmem: QWord
    act: QWord
    refractory_counter: int = 0

    @classmethod
    def zero(cls, fmt: QFormat) -> "NeuronState":
        return cls(QWord(fmt, 0), QWord(fmt, 0), 0)


def accumulate_activation(state: NeuronState, spikes, weights,
                          policy: OverflowPolicy = WRAP) -> QWord:
    """Weighted sum of this cycle's input spikes, added in index order."""
    if len(spikes) != len(weights):
        raise ValueError(f"{len(spikes)} spikes vs {len(weights)} weights")
    acc = QWord(state.act.fmt, 0)
    for fired, w in zip(spikes, weights):
        if fired:
            acc = add(acc, w, policy)
    state.act = acc
    return acc


def membrane_update(state: NeuronState, regs: NeuronRegisters,
                    policy: OverflowPolicy = WRAP) -> QWord:
    leak = mul(regs.decay_rate, state.vmem, policy)
    drive = mul(regs.growth_rate, state.act, policy)
    state.vmem = add(sub(state.vmem, leak, policy), drive, policy)
    return state.vmem


def fire_and_reset(state: NeuronState, regs: NeuronRegisters,
                   policy: OverflowPolicy = WRAP) -> bool:
    """Threshold compare plus the configured post-spike reset.

    DEFAULT applies one extra leak step instead of a discrete reset, so the
    membrane keeps its exponential decay.  Every mode arms the refractory
    counter.
    """
    if state.refractory_counter > 0 or state.vmem.raw < regs.v_threshold.raw:
        return False
    mode = regs.reset_mode
    if mode is ResetMode.TO_CONSTANT:
        state.vmem = regs.v_reset
    elif mode is ResetMode.TO_ZERO:
        state.vmem = QWord(state.vmem.fmt, 0)
    elif mode is ResetMode.BY_SUBTRACTION:
        state.vmem = sub(state.vmem, regs.v_threshold, policy)
    else:  # DEFAULT: exponential decay continues
        state.vmem = sub(state.vmem, mul(regs.decay_rate, state.vmem, policy), policy)
    state.refractory_counter = regs.refractory_period
    return True


def refractory_tick(state: NeuronState) -> None:
    """Count down one cycle; the membrane is held while the counter is armed."""
    if state.refractory_counter > 0:
        state.refractory_counter -= 1


def step_neuron(state: NeuronState, regs: NeuronRegisters, spikes, weights,
                policy: OverflowPolicy = WRAP) -> bool:
    """One full spike-clock cycle in the canonical order."""
    accumulate_activation(state, spikes, weights, policy)
    if state.refractory_counter > 0:
        refractory_tick(state)
        return False
    membrane_update(state, regs, policy)
    return fire_and_reset(state, regs, policy)
