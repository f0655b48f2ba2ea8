"""Mutant guards: each `Core` subclass below holds one plausible wrong
version of a rule of the datapath, and comes with a fixed small network,
with register writes where it needs them, on which the scalar oracle
(`harness.checked`, or `harness.sampled` where only `run_sample` reaches
the rule) reports a mismatch for the mutant and none for `Core`.  The two
mutants of the layer-major scan are told apart by the drivers' own
properties instead (`harness.batched` and `harness.continued`), and the
twin's two mutants by float64 sums (`harness.inexact_drivers`) and by
`test_reference.test_a_twin_is_a_snapshot_of_its_core`.
A mutant that no test tells from the core is a rule that no test holds."""

from dataclasses import replace
from functools import partial

import harness
import numpy as np
import pytest
import test_reference

from spikecore import core as core_module
from spikecore.core import Core, CoreConfig, RealRegisters
from spikecore.fixedpoint import Q3_1, Q5_3, SATURATE, WRAP, QFormat, QWord
from spikecore.neuron import ResetMode
from spikecore.reference import ReferenceCore
from spikecore.topology import WeightMemory

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
    """Plans no growth product when the growth's raw payload is 1, one
    quantum, as well as for 1.0 (`_one`)."""

    def _compile(self, k):
        plan = super()._compile(k)
        return (plan[0], None, *plan[2:]) if self._regs[k].growth_rate.raw == 1 else plan


class DriveMultipliesTheUnfittedSum(Core):
    """Hands the unreduced WRAP sum to the growth product, so that the bits
    above the word reach the membrane through it."""

    def _drive(self, k, spikes_in):
        growth, act = self._plan[k][1], self._activation(k, spikes_in)
        return act if growth is None else self._mul(growth, act)


class StalePlan(Core):
    """Keeps each layer's register plan as the core was built with, so that
    a written register reaches `registers(k)` but not the datapath."""

    def write_register(self, layer, name, value):
        plans = list(self._plan)
        super().write_register(layer, name, value)
        self._plan[:] = plans


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


class RasterGatherSumsPlainly(Core):
    """Adds the active rows of each cycle plainly where the rule sends a
    SATURATE raster to the gathers, instead of folding them with
    `accumulate_raw`."""

    def _activation(self, k, spikes_in):
        w = self.planes[k]._raw
        if (spikes_in.ndim == 2 and self.policy is SATURATE
                and core_module._gathers(*w.shape, len(spikes_in), np.count_nonzero(spikes_in))):
            return np.array([w.take(row.nonzero()[0], axis=0).sum(axis=0)
                             for row in spikes_in]).astype(np.int64)
        return super()._activation(k, spikes_in)


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


class CertificateWithoutLeakSlack(Core):
    """Bounds the leak step v - floor(d v) by (1 - d) v, forgetting the +1 of
    its floor, in the membrane's bound H and in the update's.  Equivalent in
    `certificate_search.py`'s scope, and in one-line networks of every format
    up to 10 bits with q from 2 to 6: from the zero state an integer membrane
    never passes the fixed point (hi - v_threshold) / d that the floor's
    slack would lift.  No test kills it."""

    def certified(self, layer):
        d, growth, vth, negative, mode = self._plan[layer][:5]
        if growth is not None or not d or negative or mode is not ResetMode.BY_SUBTRACTION:
            return False
        (lo, hi), one, vth = self.planes[layer].column_bounds(), self._one, int(vth)
        top = max(0, (vth - 1) * d, (hi - vth) * one)
        return (lo * one >= self.fmt.min_raw * d
                and (one - d) * top + hi * d * one <= self.fmt.max_raw * d * one)


class CertificateWithoutResetOvershoot(Core):
    """Bounds the membrane by v_threshold - 1 (or 0), forgetting that a reset
    by subtraction leaves u - v_threshold, which can exceed it."""

    def certified(self, layer):
        d, growth, vth, negative, mode = self._plan[layer][:5]
        if growth is not None or not d or negative or mode is not ResetMode.BY_SUBTRACTION:
            return False
        (lo, hi), one, vth = self.planes[layer].column_bounds(), self._one, int(vth)
        top = max(0, (vth - 1) * d)
        return (lo * one >= self.fmt.min_raw * d
                and (one - d) * top + (hi + 1) * d * one <= self.fmt.max_raw * d * one)


def net_column_bounds(plane):
    """The least and greatest net column sums of `plane`: a wrong bound of the
    activations, which a subset of a column's lines can leave."""
    sums = plane.raw.astype(object).sum(axis=0)
    return int(sums.min()), int(sums.max())


class CertificateFromNetColumnSums(Core):
    """Bounds each layer's activations by its plane's net column sums."""

    def __init__(self, cfg):
        super().__init__(cfg)
        for plane in self.planes:
            plane.column_bounds = partial(net_column_bounds, plane)


CERTIFICATE_MUTANTS = (CertificateWithoutLeakSlack, CertificateWithoutResetOvershoot,
                       CertificateFromNetColumnSums)


class BoundsKeptOnFetch(WeightMemory):
    """A plane whose `raw` becomes writable when fetched but keeps the cached
    column bounds."""

    @property
    def raw(self):
        self._raw.flags.writeable = True
        return self._raw


class StaleColumnBounds(Core):
    """Keeps each plane's column bounds across a fetch of `raw`, so that words
    written through it after a run reach the datapath but not the certificate."""

    def __init__(self, cfg):
        super().__init__(cfg)
        for plane in self.planes:
            plane.__class__ = BoundsKeptOnFetch


class CertificateOutlivesTheRun(Core):
    """Keeps a run's certificates live after its driver returns, so that a
    `step_cycle` after a register write skips a fit the new registers need."""

    def _start(self, driver, *args):
        def run(*out):
            driver(*out)
            self._kept = self._sure
        out = super()._start(run, *args)
        self._sure = self._kept
        return out


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


class TwinKeepsTheFloat32Sum(ReferenceCore):
    """Raises the active-line bound of each of its plane copies to the line
    count, as `BoundAtLineCount` does for the core, so that a row past the
    real bound keeps its float32 sum."""

    def __init__(self, core):
        super().__init__(core)
        for plane in self.planes:
            plane.active_bound = len(plane.raw)


class TwinSharesTheCorePlanes(ReferenceCore):
    """Keeps its core's `raw` arrays in its plane copies, so that a write to
    the core after the twin is built reaches the twin."""

    def __init__(self, core):
        super().__init__(core)
        for mine, theirs in zip(self.planes, core.planes):
            mine.raw = theirs.raw


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


def half_growth_of_a_wrapping_sum():
    # Two lines of 15.0 sum to 240, which wraps to -16, and growth 0.5
    # drives -8; the mutant's 0.5 x 240 = 120 fires at once.
    cfg = CoreConfig.uniform(Q5_3, (2, 1), replace(PLAIN, growth_rate=0.5), policy=WRAP)
    return cfg, [np.array([[120], [120]])], np.array([[1, 1]], dtype=bool), ()


def threshold_written():
    # Weight 1.0 fires at threshold 1.0 in cycle 0; the threshold written to
    # 2.0 before cycle 1 holds the neuron at 1.0 there, where the mutant fires.
    cfg = CoreConfig.uniform(Q5_3, (1, 1), PLAIN)
    return (cfg, [np.array([[1 << Q5_3.q]])], np.ones((2, 1), dtype=bool),
            [(1, 0, "v_threshold", QWord(Q5_3, 2 << Q5_3.q))])


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
    (DriveMultipliesTheUnfittedSum, half_growth_of_a_wrapping_sum, [(0, 0, 0)]),
    (StalePlan, threshold_written, [(0, 0, 1)]),
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


def sparse_wide_clamp():
    # A 4096 x 32 Q5.3 SATURATE plane and three active lines in one cycle, a
    # raster that the rule sends to the gathers.  Neuron 0's lines hold
    # 127, 127 and -100: the fold clamps 254 to 127 and ends at 27, while
    # the plain sum 154 reaches the membrane's fit, which clamps it to 127.
    cfg = CoreConfig.uniform(Q5_3, (4096, 32), replace(PLAIN, v_threshold=Q5_3.max_value),
                             policy=SATURATE)
    plane = np.zeros((4096, 32), dtype=np.int64)
    plane[:3, 0] = Q5_3.max_raw, Q5_3.max_raw, -100
    return cfg, [plane], np.arange(4096)[None] < 3


def test_a_sampled_run_tells_the_plainly_summing_raster_gathers_from_the_core(monkeypatch):
    # `run_sample` sums layer 0's raster at once, `step_cycle` per row.
    cfg, planes, stimulus = sparse_wide_clamp()
    picks = harness.rule_picks(monkeypatch)
    assert harness.sampled(harness.loaded(cfg, planes), stimulus) == [] and picks == [True]
    mutant = harness.loaded(cfg, planes, RasterGatherSumsPlainly)
    assert harness.sampled(mutant, stimulus) == [(0, 0, 0)]


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


def test_the_float64_sums_tell_the_float32_twin_from_the_twin():
    # 513 active max_raw words: a float32 product cannot give their sum,
    # in a row, a raster or a batch.
    core, stimulus = harness.float32_bound_network()
    for cls, first in ((ReferenceCore, []),
                       (TwinKeepsTheFloat32Sum, ["step_cycle", "run_sample", "run_batch"])):
        assert harness.inexact_drivers(cls, core, stimulus) == first


def test_the_snapshot_test_tells_the_plane_sharing_twin_from_the_twin():
    # The core's later writes reach the mutant's planes.
    test_reference.test_a_twin_is_a_snapshot_of_its_core(ReferenceCore)
    with pytest.raises(AssertionError):
        test_reference.test_a_twin_is_a_snapshot_of_its_core(TwinSharesTheCorePlanes)


def overshooting_reset():
    # Frozen from certificate_search.py: decay 0.5 and threshold 0, so 5
    # spikes at once and leaves 5, which leaks to 3, and 3 + 5 = 8 wraps to
    # -8 in Q3.1.  The mutant bounds the membrane by max(0, -1) = 0.
    cfg = CoreConfig.uniform(Q3_1, (1, 1), replace(PLAIN, decay_rate=0.5, v_threshold=0.0))
    return cfg, [np.array([[5]])], np.ones((2, 1), dtype=bool)


def cancelling_column():
    # Frozen from certificate_search.py: the column sums to -2, which the
    # mutant takes for every activation, but lines 0 and 1 alone give -5,
    # past Q2.1's min_raw of -4.
    fmt = QFormat(2, 1)
    cfg = CoreConfig.uniform(fmt, (3, 1), replace(PLAIN, decay_rate=0.5, v_threshold=0.0))
    return cfg, [np.array([[-4], [-1], [3]])], np.array([[1, 1, 0]], dtype=bool)


@pytest.mark.parametrize("mutant, network, first", [
    (CertificateWithoutResetOvershoot, overshooting_reset, [(0, 0, 1)]),
    (CertificateFromNetColumnSums, cancelling_column, [(0, 0, 0)]),
])
def test_a_sampled_run_tells_each_wrong_certificate_from_the_core(mutant, network, first):
    # `checked` never certifies: only `run_sample` and `run_batch` skip fits.
    cfg, planes, stimulus = network()
    assert harness.sampled(harness.loaded(cfg, planes), stimulus) == []
    assert harness.sampled(harness.loaded(cfg, planes, mutant), stimulus) == first


def test_a_sampled_run_after_a_raw_write_tells_stale_bounds_from_the_core():
    # Two lines of 1.0 certify; written to 12.5 through `raw` after a run,
    # they sum to 200, which only the membrane fit wraps.
    cfg = CoreConfig.uniform(Q5_3, (2, 1), replace(PLAIN, decay_rate=1.0,
                                                   v_threshold=Q5_3.max_value))
    stimulus = np.ones((1, 2), dtype=bool)
    for cls, first in ((Core, []), (StaleColumnBounds, [(0, 0, 0)])):
        core = harness.loaded(cfg, [np.full((2, 1), 8)], cls)
        assert harness.sampled(core, stimulus) == []
        core.planes[0].raw[...] = 100
        assert harness.sampled(core, stimulus) == first


def test_a_step_after_a_sampled_run_tells_a_live_certificate_from_the_core():
    # 12.5 certifies under growth 1; growth written to 1.5 after the run
    # drives 150, which only the membrane fit wraps.
    cfg = CoreConfig.uniform(Q5_3, (1, 1), replace(PLAIN, decay_rate=1.0,
                                                   v_threshold=Q5_3.max_value))
    stimulus = np.ones((1, 1), dtype=bool)
    for cls, first in ((Core, []), (CertificateOutlivesTheRun, [(0, 0, 0)])):
        core = harness.loaded(cfg, [np.array([[100]])], cls)
        assert harness.sampled(core, stimulus) == []
        core.reset_state()
        assert harness.checked(core, stimulus, [(0, 0, "growth_rate", QWord(Q5_3, 12))]) == first
