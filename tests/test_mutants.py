"""Mutant guards: each `Core` subclass below holds one plausible wrong
version of a rule of the datapath, and comes with a fixed small network,
with register writes where it needs them, on which the scalar oracle
(`harness.checked`) reports a mismatch for the mutant and none for `Core`.
A mutant that no test tells from the core is a rule that no test holds."""

from dataclasses import replace

import harness
import numpy as np
import pytest

from spikecore.core import Core, CoreConfig, RealRegisters
from spikecore.fixedpoint import Q5_3, SATURATE, WRAP, QFormat

# Decay 0, growth 1, threshold 1, reset by subtraction: a membrane is its
# cycle's activation until it reaches 1.0.
PLAIN = RealRegisters(decay_rate=0.0, growth_rate=1.0, v_threshold=1.0)


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


class GrowthOneIsRawOne(Core):
    """Skips the growth product when the growth's raw payload is 1, one
    quantum, instead of 1.0 (`_one`)."""

    def _drive(self, k, spikes_in):
        growth, act = self._regs[k].growth_rate.raw, self._activation(k, spikes_in)
        return act if growth == 1 else self._mul(growth, act)


class UnclampedGrowth(Core):
    """Takes the unclamped product for every register r >= 0, so that a
    SATURATE growth above 1 can leave the range."""

    def _mul(self, r, x):
        return np.right_shift(r * x, self.fmt.q) if r >= 0 else super()._mul(r, x)


class PeriodZeroReleases(Core):
    """Releases the neurons still held when the refractory period is
    written to 0, instead of counting them down."""

    def _lif(self, k, drive):
        if self._regs[k].refractory_period == 0:
            self._refr[k] = np.zeros_like(self._refr[k])
        return super()._lif(k, drive)


def one_spike_pipeline():
    # One input spike in cycle 0 fires layer 0 at once; at latency 1 layer 1
    # sees it only in cycle 1, the mutant's layer 1 fires in cycle 0.
    cfg = CoreConfig.uniform(Q5_3, (1, 1, 1), PLAIN, layer_latency=1)
    one = 1 << Q5_3.q
    return cfg, [np.array([[one]]), np.array([[one]])], np.array([[1], [0], [0]], dtype=bool), ()


def three_max_lines():
    # Q13.11 planes of 4 lines are float32 with a bound of 2 active lines.
    # Three lines at max_raw sum to 3 * (2**23 - 1), odd and past 2**24, so
    # float32 rounds it.  Under SATURATE the certificate sends that row to
    # the integer fold whatever the bound says, so this mutant is checked
    # under WRAP only.
    fmt = QFormat(13, 11)
    cfg = CoreConfig.uniform(fmt, (4, 1), PLAIN, policy=WRAP)
    return cfg, [np.full((4, 1), fmt.max_raw)], np.array([[1, 1, 1, 0]], dtype=bool), ()


def one_quantum_growth():
    # A growth of one quantum scales a max_raw activation down to 15; the
    # mutant leaves it at max_raw.
    cfg = CoreConfig.uniform(Q5_3, (1, 1), replace(PLAIN, growth_rate=Q5_3.quantum,
                                                   v_threshold=Q5_3.max_value))
    return cfg, [np.array([[Q5_3.max_raw]])], np.array([[1]], dtype=bool), ()


def growth_past_one():
    # Growth 1.5 under SATURATE: min_raw x 1.5 and max_raw x 1.5 clamp in
    # the core, so cycle 1 leaves -128 + 127.  The mutant's -192 clamps at
    # the membrane fit in cycle 0, but its 190 in cycle 1 gives 62.
    cfg = CoreConfig.uniform(Q5_3, (2, 1), replace(PLAIN, growth_rate=1.5,
                                                   v_threshold=Q5_3.max_value), policy=SATURATE)
    return (cfg, [np.array([[Q5_3.max_raw], [Q5_3.min_raw]])],
            np.array([[0, 1], [1, 0]], dtype=bool), ())


def period_written_to_zero():
    # The spike of cycle 0 holds the neuron for 3 cycles; a period written
    # to 0 before cycle 1 still counts them down, where the mutant fires.
    cfg = CoreConfig.uniform(Q5_3, (1, 1), replace(PLAIN, refractory_period=3))
    return (cfg, [np.array([[1 << Q5_3.q]])], np.ones((4, 1), dtype=bool),
            [(1, 0, "refractory_period", 0)])


@pytest.mark.parametrize("mutant, network, first", [
    (FirstToLastPipeline, one_spike_pipeline, [(1, 0, 0)]),
    (BoundAtLineCount, three_max_lines, [(0, 0, 0)]),
    (GrowthOneIsRawOne, one_quantum_growth, [(0, 0, 0)]),
    (UnclampedGrowth, growth_past_one, [(0, 0, 1)]),
    (PeriodZeroReleases, period_written_to_zero, [(0, 0, 1)]),
])
def test_the_scalar_oracle_tells_each_mutant_from_the_core(mutant, network, first):
    cfg, planes, stimulus, writes = network()
    assert harness.checked(harness.loaded(cfg, planes), stimulus, writes) == []
    assert harness.checked(harness.loaded(cfg, planes, mutant), stimulus, writes) == first
