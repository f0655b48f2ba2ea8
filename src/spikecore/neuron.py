"""Quantized leaky integrate-and-fire neuron, and the rules of its register file.

`NeuronRegisters` is the one place that decides what a valid register file
is: the decay raw range, the reset mode as a member or its name, and the
refractory period as a whole number of cycles (the shared parsers
`fixedpoint.NamedEnum.from_name` and `fixedpoint.whole_number`).
`core.Core` programs its registers through it, each word made by
`core.encode_register`, and `core.RealRegisters` uses the same two parsers.

`step_neuron` steps a `NeuronState` one spike-clock cycle on raw payloads (the
`fixedpoint` helpers), in this order, fixed for bit-exact reproducibility:

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

from dataclasses import dataclass

from .fixedpoint import (WRAP, NamedEnum, OverflowPolicy, QFormat, QWord, add_raw, mul_raw,
                         sub_raw, whole_number)

__all__ = [
    "ResetMode",
    "NeuronRegisters",
    "NeuronState",
    "step_neuron",
]


class ResetMode(NamedEnum):
    TO_CONSTANT = "constant"
    TO_ZERO = "zero"
    BY_SUBTRACTION = "subtract"
    DEFAULT = "default"


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
        for w in (self.growth_rate, self.v_threshold, self.v_reset):
            if w is not None and w.fmt != fmt:
                raise ValueError(f"register format mismatch: {w.fmt} vs {fmt}")
        # In integers: for q > 52, raw * quantum rounds 1 + quantum to 1.0.
        if not 0 <= self.decay_rate.raw <= 1 << fmt.q:
            raise ValueError(f"decay_rate raw {self.decay_rate.raw} outside [0, 2**{fmt.q}] "
                             f"(a rate in [0, 1])")
        object.__setattr__(self, "reset_mode", ResetMode.from_name(self.reset_mode, "reset_mode"))
        object.__setattr__(self, "refractory_period",
                           whole_number(self.refractory_period, "refractory_period"))
        if self.reset_mode is ResetMode.TO_CONSTANT and self.v_reset is None:
            raise ValueError("reset mode 'constant' needs v_reset")


@dataclass
class NeuronState:
    vmem: QWord
    refractory_counter: int = 0

    @classmethod
    def zero(cls, fmt: QFormat) -> "NeuronState":
        return cls(QWord(fmt, 0), 0)


def step_neuron(state: NeuronState, regs: NeuronRegisters, spikes, weights,
                policy: OverflowPolicy = WRAP) -> bool:
    """One full spike-clock cycle in the canonical order; True if the neuron fires."""
    if len(spikes) != len(weights):
        raise ValueError(f"{len(spikes)} spikes vs {len(weights)} weights")
    fmt = state.vmem.fmt
    # 1. The weighted sum of this cycle's input spikes, added in index order.
    act = 0
    for fired, w in zip(spikes, weights):
        if fired:
            if w.fmt != fmt:
                raise ValueError(f"format mismatch: {fmt} vs {w.fmt}")
            act = add_raw(act, w.raw, fmt, policy)
    # 2. An armed counter counts down; the membrane is held.
    if state.refractory_counter > 0:
        state.refractory_counter -= 1
        return False
    # 3. Membrane update, threshold compare and the configured reset.
    if regs.decay_rate.fmt != fmt:  # every register word is in the decay's format
        raise ValueError(f"format mismatch: {regs.decay_rate.fmt} vs {fmt}")
    leak = mul_raw(regs.decay_rate.raw, state.vmem.raw, fmt, policy)
    drive = mul_raw(regs.growth_rate.raw, act, fmt, policy)
    vmem = add_raw(sub_raw(state.vmem.raw, leak, fmt, policy), drive, fmt, policy)
    spike = vmem >= regs.v_threshold.raw
    if spike:
        if regs.reset_mode is ResetMode.TO_CONSTANT:
            vmem = regs.v_reset.raw
        elif regs.reset_mode is ResetMode.TO_ZERO:
            vmem = 0
        elif regs.reset_mode is ResetMode.BY_SUBTRACTION:
            vmem = sub_raw(vmem, regs.v_threshold.raw, fmt, policy)
        else:  # DEFAULT: one more leak step, no discrete reset; exponential decay continues
            vmem = sub_raw(vmem, mul_raw(regs.decay_rate.raw, vmem, fmt, policy), fmt, policy)
        state.refractory_counter = regs.refractory_period
    state.vmem = QWord(fmt, vmem)
    return spike
