"""Mutant guards: each `Core` subclass below holds one plausible wrong
version of a rule of the datapath, and comes with a fixed small network on
which the scalar oracle (`harness.mismatches`) reports a mismatch for the
mutant and none for `Core`.  A mutant that no test tells from the core is a
rule that no test holds."""

import harness
import numpy as np
import pytest

from spikecore.core import Core, CoreConfig, RealRegisters
from spikecore.fixedpoint import Q5_3, WRAP, QFormat

# Decay 0, growth 1, threshold 1, reset by subtraction: a membrane is its
# cycle's activation until it reaches 1.0.
PLAIN = RealRegisters(decay_rate=0.0, growth_rate=1.0, v_threshold=1.0)


def mismatches(cls, cfg, planes, stimulus):
    """`harness.mismatches` of a `cls` core, loaded with the raw `planes`
    and stepped through `stimulus` one `step_cycle` at a time."""
    core = cls(cfg)
    for plane, w in zip(core.planes, planes):
        plane.raw[...] = w
    outs, vmems = [], []
    for row in stimulus:
        outs.append(core.step_cycle(row))
        vmems.append(list(core._vmem))
    spikes, vmem = ([np.array([cycle[k] for cycle in c]) for k in range(cfg.n_layers)]
                    for c in (outs, vmems))
    regs = [core.registers(k) for k in range(cfg.n_layers)]
    return harness.mismatches(cfg, regs, planes, stimulus, spikes, vmem)


class FirstToLastPipeline(Core):
    """Steps its layers first to last at layer_latency 1 too, so layer k
    reads the spikes that layer k-1 latched in this cycle, not in the one
    before."""

    def step_cycle(self, input_spikes, *, drive0=None):
        if drive0 is None:
            drive0 = self._drive(0, np.asarray(input_spikes, dtype=bool))
        for k in range(self.cfg.n_layers):
            self._out[k] = self._lif(k, self._drive(k, self._out[k - 1]) if k else drive0)
        return list(self._out)


class BoundAtLineCount(Core):
    """Raises each plane's active-line bound to its line count, so that a
    row past the real bound stays in its float32 plane."""

    def __init__(self, cfg):
        super().__init__(cfg)
        for plane in self.planes:
            plane.active_bound = len(plane.raw)


def one_spike_pipeline():
    # One input spike in cycle 0 fires layer 0 at once; at latency 1 layer 1
    # sees it only in cycle 1, the mutant's layer 1 fires in cycle 0.
    cfg = CoreConfig.uniform(Q5_3, (1, 1, 1), PLAIN, layer_latency=1)
    one = 1 << Q5_3.q
    return cfg, [np.array([[one]]), np.array([[one]])], np.array([[1], [0], [0]], dtype=bool)


def three_max_lines():
    # Q13.11 planes of 4 lines are float32 with a bound of 2 active lines.
    # Three lines at max_raw sum to 3 * (2**23 - 1), odd and past 2**24, so
    # float32 rounds it.  Under SATURATE the certificate sends that row to
    # the integer fold whatever the bound says, so this mutant is checked
    # under WRAP only.
    fmt = QFormat(13, 11)
    cfg = CoreConfig.uniform(fmt, (4, 1), PLAIN, policy=WRAP)
    return cfg, [np.full((4, 1), fmt.max_raw)], np.array([[1, 1, 1, 0]], dtype=bool)


@pytest.mark.parametrize("mutant, network, first", [
    (FirstToLastPipeline, one_spike_pipeline, [(1, 0, 0)]),
    (BoundAtLineCount, three_max_lines, [(0, 0, 0)]),
])
def test_the_scalar_oracle_tells_each_mutant_from_the_core(mutant, network, first):
    cfg, planes, stimulus = network()
    assert mismatches(Core, cfg, planes, stimulus) == []
    assert mismatches(mutant, cfg, planes, stimulus) == first
