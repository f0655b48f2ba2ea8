"""Mutant guards: each `Core` subclass below holds one plausible wrong
version of a rule of the datapath, and comes with a fixed small network,
with register writes where it needs them, on which the scalar oracle
(`harness.checked`, or `harness.sampled` where only `run_sample` reaches
the rule) reports a mismatch for the mutant and none for `Core`.  The two
mutants of the layer-major scan are told apart by the drivers' own
properties instead (`harness.batched` and `harness.continued`).
A mutant that no test tells from the core is a rule that no test holds."""

from dataclasses import replace
from functools import partial

import harness
import numpy as np
import pytest

from spikecore.core import Core, CoreConfig, RealRegisters
from spikecore.fixedpoint import Q5_3, SATURATE, WRAP, QFormat
from spikecore.neuron import ResetMode
from spikecore.reference import ReferenceCore

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


class RasterSkipsTheLineCount(Core):
    """Takes each plane's active-line bound for its line count in a [T, M]
    call only, so that raster rows past the bound keep their float32 product."""

    def _activation(self, k, spikes_in):
        plane = self.planes[k]
        bound = plane.active_bound
        if spikes_in.ndim == 2:
            plane.active_bound = len(plane.raw)
        try:
            return super()._activation(k, spikes_in)
        finally:
            plane.active_bound = bound


class UpperOnlyCertificate(Core):
    """Certifies an [M] SATURATE row by s + a <= 2 max_raw alone, forgetting
    the low end, so that a row whose prefix sums clamp at min_raw is summed
    plainly."""

    def _activation(self, k, spikes_in):
        if spikes_in.ndim == 1 and self.policy is SATURATE:
            rows = self.planes[k].raw[spikes_in.nonzero()[0]].astype(np.int64)
            s = rows.sum(axis=0)
            if (s + np.abs(rows).sum(axis=0) <= 2 * self.fmt.max_raw).all():
                return s
        return super()._activation(k, spikes_in)


class SecondCallInLif(Core):
    """Counts the `_fit` and `_mul` calls made inside one `_lif` call, each
    hook on its own; a subclass skips the second."""

    _calls = None  # hook name -> calls so far in this `_lif` call; None outside one

    def _lif(self, k, drive):
        self._calls = {"_fit": 0, "_mul": 0}
        spikes = super()._lif(k, drive)
        self._calls = None
        return spikes

    def _second(self, hook):
        """Whether this call of `hook` is its second in the `_lif` call under way."""
        if self._calls is None:
            return False
        self._calls[hook] += 1
        return self._calls[hook] == 2


class NoFitUnderNegativeThreshold(SecondCallInLif):
    """Skips `_lif`'s second fit, the one after a reset by subtraction under
    a negative threshold, so that updated - v_threshold can leave the range."""

    def _fit(self, x):
        return x if self._second("_fit") else super()._fit(x)


class DefaultResetWithoutLeak(SecondCallInLif):
    """Leaves out the extra leak step of a DEFAULT reset (`_lif`'s second
    product), so that a spiking neuron keeps its membrane."""

    def _mul(self, r, x):
        return np.zeros_like(x) if self._second("_mul") else super()._mul(r, x)


class UnshiftedScan(Core):
    """Feeds layer k >= 1 in the layer-major scan layer k-1's raster as it
    is, also at layer_latency 1, where it should be one cycle late."""

    def _scan(self, dense, spikes, vmems):
        cfg, self.cfg = self.cfg, replace(self.cfg, layer_latency=0)
        try:
            super()._scan(dense, spikes, vmems)
        finally:
            self.cfg = cfg


class ScanSkipsTheLatch(ReferenceCore):
    """Leaves each layer's latch `_out[k]` as `reset_state` made it while the
    layer-major scan runs, so the cycle after a run reads no spikes from it."""

    def _scan(self, dense, spikes, vmems):
        latches = list(self._out)
        super()._scan(dense, spikes, vmems)
        self._out[:] = latches


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


def negative_threshold(policy):
    # max_raw fires at threshold -1 and its reset leaves 127 + 8, past the
    # range; the core wraps it to -121 or saturates it to 127.
    cfg = CoreConfig.uniform(Q5_3, (1, 1), replace(PLAIN, v_threshold=-1.0), policy=policy)
    return cfg, [np.array([[Q5_3.max_raw]])], np.array([[1], [0]], dtype=bool), ()


def default_reset():
    # Weight 2.0 fires at once; the DEFAULT reset leaks 16 to 12 where the
    # mutant keeps 16.
    cfg = CoreConfig.uniform(Q5_3, (1, 1), replace(PLAIN, decay_rate=0.25,
                                                   reset_mode=ResetMode.DEFAULT))
    return cfg, [np.array([[2 << Q5_3.q]])], np.array([[1], [0]], dtype=bool), ()


def low_end_clamp():
    # -100 - 29 clamps at -128 before + 50, so the fold gives -78 and the
    # plain sum -79; s + a = 100 passes the upper test, |s| + a = 258 fails.
    cfg = CoreConfig.uniform(Q5_3, (3, 1), replace(PLAIN, v_threshold=Q5_3.max_value),
                             policy=SATURATE)
    return cfg, [np.array([[-100], [-29], [50]])], np.array([[1, 1, 1]], dtype=bool), ()


@pytest.mark.parametrize("mutant, network, first", [
    (FirstToLastPipeline, one_spike_pipeline, [(1, 0, 0)]),
    (BoundAtLineCount, three_max_lines, [(0, 0, 0)]),
    (GrowthOneIsRawOne, one_quantum_growth, [(0, 0, 0)]),
    (UnclampedGrowth, growth_past_one, [(0, 0, 1)]),
    (PeriodZeroReleases, period_written_to_zero, [(0, 0, 1)]),
    (NoFitUnderNegativeThreshold, partial(negative_threshold, WRAP), [(0, 0, 0)]),
    (NoFitUnderNegativeThreshold, partial(negative_threshold, SATURATE), [(0, 0, 0)]),
    (DefaultResetWithoutLeak, default_reset, [(0, 0, 0)]),
    (UpperOnlyCertificate, low_end_clamp, [(0, 0, 0)]),
])
def test_the_scalar_oracle_tells_each_mutant_from_the_core(mutant, network, first):
    cfg, planes, stimulus, writes = network()
    assert harness.checked(harness.loaded(cfg, planes), stimulus, writes) == []
    assert harness.checked(harness.loaded(cfg, planes, mutant), stimulus, writes) == first


def test_only_a_sampled_run_tells_the_raster_mutant_from_the_core():
    # A `step_cycle` loop sums [M] rows only, which the mutant leaves alone.
    cfg, planes, stimulus, _ = three_max_lines()
    assert harness.sampled(harness.loaded(cfg, planes), stimulus) == []
    for run, first in ((harness.sampled, [(0, 0, 0)]), (harness.checked, [])):
        assert run(harness.loaded(cfg, planes, RasterSkipsTheLineCount), stimulus) == first


def test_the_batch_property_tells_the_unshifted_scan_from_the_core():
    # Layer 1 of the mutant's batch row fires in cycle 0, with layer 0;
    # `Core.run_sample`'s `step_cycle` loop fires it in cycle 1.
    cfg, planes, stimulus, _ = one_spike_pipeline()
    for cls, first in ((Core, []), (UnshiftedScan, [(0, 1)])):
        make = partial(harness.loaded, cfg, planes, cls)
        assert harness.batched(make, [stimulus], harness.sampled_run) == first


def test_the_continuation_property_tells_the_latchless_scan_from_the_twin():
    # At layer_latency 1 both layers spike in the last cycle, so the next
    # cycle fires layer 1 from the latch of layer 0, which the mutant lost.
    cfg = CoreConfig.uniform(Q5_3, (1, 1, 1), PLAIN, layer_latency=1)
    core = harness.loaded(cfg, [np.array([[1 << Q5_3.q]])] * 2)
    stimulus = np.ones((2, 1), dtype=bool)
    for cls, first in ((ReferenceCore, []), (ScanSkipsTheLatch, ["_out", "next"])):
        assert harness.continued(cls(core), ReferenceCore(core), stimulus) == first
