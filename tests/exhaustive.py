"""Bounded-exhaustive equivalence of the vectorized cycle and the scalar oracle in Q2.1.

A neuron's state is its (membrane, refractory counter), and one cycle is a
function of that state, its activation and its layer's register file; the
layer's `_armed` flag is state on top, False only while every counter is 0.
If one `step_cycle` of `Core` equals `neuron.step_neuron` on every such input
of a format, then by induction every run in that format does.  `mismatches`
steps, per register file and policy, a 1-input core whose neurons hold every
(membrane, activation, counter) triple, once with `_armed` True and once
False, and compares each neuron's spike, membrane and counter with the
oracle's.

`tests/test_conformance.py` sweeps a reduced register grid with counters and
periods 0 and 1.  Run as a script, this sweeps the full Q2.1 register grid
(every decay in [0, 1], growth, threshold, reset mode and TO_CONSTANT value)
with counters and periods 0 to 2, and exits 1 on a mismatch.

Run: PYTHONPATH=src python tests/exhaustive.py
"""

import itertools
import sys

import numpy as np

from spikecore.core import Core, CoreConfig, RealRegisters
from spikecore.fixedpoint import SATURATE, WRAP, QFormat, QWord
from spikecore.neuron import NeuronState, ResetMode, step_neuron
from spikecore.topology import Connectivity

Q2_1 = QFormat(2, 1)
WORDS = range(Q2_1.min_raw, Q2_1.max_raw + 1)  # every raw payload of Q2.1
RATES = range(0, (1 << Q2_1.q) + 1)  # the decays, rates in [0, 1]
RESETS = ((ResetMode.TO_ZERO, 0), (ResetMode.BY_SUBTRACTION, 0), (ResetMode.DEFAULT, 0),
          *((ResetMode.TO_CONSTANT, after) for after in WORDS))
ALL = Connectivity("all")


def register_files(decays=RATES, growths=WORDS, thresholds=WORDS, resets=RESETS, periods=(0,)):
    """One Q2.1 register file per combination of the raw words, (mode, v_reset)
    pairs and refractory periods given."""
    q = Q2_1.quantum
    for d, g, vth, (mode, after), period in itertools.product(
            decays, growths, thresholds, resets, periods):
        yield RealRegisters(d * q, g * q, vth * q, mode, after * q, period)


def mismatches(files, counters=(0,)):
    """Every transition of one `Core` cycle that differs from the oracle's, as
    (policy, registers, armed, membrane, activation, counter) in raw words."""
    v, a, c = (x.ravel() for x in np.meshgrid(WORDS, WORDS, counters, indexing="ij"))
    states = [(vj, aj, cj) for vj in WORDS for aj in WORDS for cj in {0, *counters}]
    bad = []
    for regs, policy in itertools.product(files, (WRAP, SATURATE)):
        core = Core(CoreConfig(Q2_1, (1, len(v)), (ALL,), (regs,), policy=policy))
        core.planes[0].raw[0] = a  # neuron j's activation when the line spikes
        regs = core.registers(0)
        oracle = {}
        for vj, aj, cj in states:
            state = NeuronState(QWord(Q2_1, vj), cj)
            fired = step_neuron(state, regs, [1], [QWord(Q2_1, aj)], policy)
            oracle[vj, aj, cj] = (fired, state.vmem.raw, state.refractory_counter)
        for armed in (True, False):
            counter = c if armed else np.zeros_like(c)
            core._vmem[0], core._refr[0], core._armed[0] = v.copy(), counter.copy(), armed
            got = np.stack([core.step_cycle([1])[0], core._vmem[0], core._refr[0]], axis=1)
            want = np.array([oracle[key] for key in zip(v.tolist(), a.tolist(), counter.tolist())])
            for j in np.flatnonzero((got != want).any(axis=1)):
                bad.append((policy, regs, armed, int(v[j]), int(a[j]), int(counter[j])))
    return bad


def main() -> int:
    periods = counters = (0, 1, 2)
    files = list(register_files(periods=periods))
    bad = mismatches(files, counters)
    print(f"{len(files) * 2} register files x policies, {len(WORDS) ** 2 * len(counters)} "
          f"(membrane, activation, counter) states, _armed both ways: {len(bad)} mismatches")
    for policy, regs, armed, v, a, c in bad[:10]:
        print(f"MISMATCH: {policy.name} {regs} armed={armed}: membrane {v}, activation {a}, "
              f"counter {c}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
