"""Mutant guards: each `Core` subclass below holds one plausible wrong
version of a rule of the datapath, and comes with a fixed small network,
with register writes where it needs them, on which the scalar oracle
(`harness.checked`, or `harness.sampled` where only `run_sample` reaches
the rule) reports a mismatch for the mutant and none for `Core`.  The two
mutants of the layer-major scan are told apart by the drivers' own
properties instead (`harness.batched` and `harness.continued`), and the
twin's two mutants by float64 sums (`harness.inexact_drivers`) and by
`test_reference.test_a_twin_is_a_snapshot_of_its_core`.
A mutant that no test tells from the core is a rule that no test holds.

A mutant that edits one method is built by `harness.mutant` from that
method's source and one or two text edits, so it is the code it mutates
plus its edit: a change to `src/` that removes the edited text fails this
module's import, naming the method.  The mutants that are not one edit of
one method are written out."""

import dis
import inspect
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


class FirstToLastPipeline(harness.mutant(
        Core, "step_cycle", ("for k in self._order:", "for k in range(self.cfg.n_layers):"))):
    """Steps its layers first to last at layer_latency 1 too, so layer k
    reads the spikes that layer k-1 latched in this cycle, not in the one
    before."""


class BoundAtLineCount(harness.mutant(
        Core, "_activation", ("self.planes[k].active_bound", "len(self.planes[k]._raw)"))):
    """Takes each plane's line count for its active-line bound, so that a row
    past the real bound stays in its float32 plane."""


class GrowthOneIsRawOne(harness.mutant(
        Core, "_compile", ("None if growth == self._one", "None if growth in (self._one, 1)"))):
    """Plans no growth product when the growth's raw payload is 1, one
    quantum, as well as for 1.0 (`_one`)."""


class DriveMultipliesTheUnfittedSum(harness.mutant(
        Core, "_drive", ("self._fit(act) if self.policy is WRAP else act", "act"))):
    """Hands the unreduced WRAP sum to the growth product, so that the bits
    above the word reach the membrane through it."""


class StalePlan(harness.mutant(
        Core, "write_register", ("self._plan[layer] = self._compile(layer)", "pass"))):
    """Keeps each layer's register plan as the core was built with, so that
    a written register reaches `registers(k)` but not the datapath."""


class UnclampedGrowth(harness.mutant(Core, "_mul", ("0 <= r <= self._one", "0 <= r"))):
    """Takes the unclamped product for every register r >= 0, so that a
    SATURATE growth above 1 can leave the range."""


class PeriodZeroReleases(harness.mutant(
        Core, "_lif", ("period > 0 or (self._armed[k] and refr.any())", "period > 0"))):
    """Stops holding the neurons still held when the refractory period is
    written to 0, instead of counting them down."""


class NoFitUnderNegativeThreshold(harness.mutant(Core, "_lif", ("if negative:", "if False:"))):
    """Skips `_lif`'s second fit, the one after a reset by subtraction under
    a negative threshold, so that updated - v_threshold can leave the range."""


class DefaultResetWithoutLeak(harness.mutant(
        Core, "_lif",
        ("np.copyto(updated, updated - self._mul(decay, updated), where=spikes)", "pass"))):
    """Leaves out the extra leak step of a DEFAULT reset, so that a spiking
    neuron keeps its membrane."""


class RasterSkipsTheLineCount(harness.mutant(
        Core, "_activation",
        ("len(w) > bound and np.count_nonzero(spikes_in, axis=1) > bound",
         "np.zeros(len(spikes_in), dtype=bool)"))):
    """Fails no row of a [T, M] raster's product for its active-line count, so
    that raster rows past the bound keep their float32 product."""


class SignedRasterCertificate(harness.mutant(
        Core, "_activation", ("np.abs(s) + x @ np.abs(w)", "s + x @ np.abs(w)"))):
    """Certifies a SATURATE raster row of the product by s + a <= 2 max_raw,
    forgetting the low end, as `UpperOnlyCertificate` does for one row, so
    that a row whose prefix sums clamp at min_raw keeps its plain sum."""


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


class CertificateWithoutLeakSlack(harness.mutant(
        Core, "certified", ("(hi + 1 - vth) * one", "(hi - vth) * one"),
        ("(hi + 1) * d * one", "hi * d * one"))):
    """Bounds the leak step v - floor(d v) by (1 - d) v, forgetting the +1 of
    its floor, in the membrane's bound H and in the update's.  Equivalent in
    `certificate_search.py`'s scope, and in one-line networks of every format
    up to 10 bits with q from 2 to 6: from the zero state an integer membrane
    never passes the fixed point (hi - v_threshold) / d that the floor's
    slack would lift.  No test kills it."""


class CertificateWithoutResetOvershoot(harness.mutant(
        Core, "certified",
        ("max(0, (vth - 1) * d, (hi + 1 - vth) * one)", "max(0, (vth - 1) * d)"))):
    """Bounds the membrane by v_threshold - 1 (or 0), forgetting that a reset
    by subtraction leaves u - v_threshold, which can exceed it."""


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


class CertificateOutlivesTheRun(harness.mutant(
        Core, "_start", ("self._sure = self._never", "pass"))):
    """Keeps a run's certificates live after its driver returns, so that a
    `step_cycle` after a register write skips a fit the new registers need."""


class UnshiftedScan(harness.mutant(
        Core, "_scan", ("if k and self.cfg.layer_latency:", "if False:"))):
    """Feeds layer k >= 1 in the layer-major scan layer k-1's raster as it
    is, also at layer_latency 1, where it should be one cycle late."""


class ScanSkipsTheLatch(harness.mutant(
        ReferenceCore, "_scan",
        ("out[t] = self._out[k] = self._lif(k, row)", "out[t] = self._lif(k, row)"))):
    """Leaves each layer's latch `_out[k]` as `reset_state` made it while the
    layer-major scan runs, so the cycle after a run reads no spikes from it."""


class TwinKeepsTheFloat32Sum(harness.mutant(
        ReferenceCore, "_activation",
        ("self.planes[k].active_bound", "len(self.planes[k]._raw)"))):
    """Takes the line count of each of its plane copies for its active-line
    bound, as `BoundAtLineCount` does for the core, so that a row past the
    real bound keeps its float32 sum."""


class TwinSharesTheCorePlanes(ReferenceCore):
    """Keeps its core's `raw` arrays in its plane copies, so that a write to
    the core after the twin is built reaches the twin."""

    def __init__(self, core):
        super().__init__(core)
        for mine, theirs in zip(self.planes, core.planes):
            mine.raw = theirs.raw


@pytest.mark.parametrize("old", ["no such statement", "updated = self._fit(updated)"])
def test_a_mutant_edit_found_other_than_once_names_the_method(old):
    # The second statement occurs twice in `_lif`: after the update and
    # after a reset under a negative threshold.
    with pytest.raises(AssertionError, match=r"^_Cycle\._lif: "):
        harness.mutant(Core, "_lif", (old, "pass"))


def instructions(fn):
    """Per source line of `fn`, its (opname, argument) instructions; jump
    targets are left out, since an edit moves every offset after it."""
    line_at = {i: n for start, end, n in fn.__code__.co_lines() for i in range(start, end, 2)}
    out = {}
    for ins in dis.get_instructions(fn):
        jump = ins.opcode in dis.hasjrel or ins.opcode in dis.hasjabs
        out.setdefault(line_at[ins.offset], []).append((ins.opname, None if jump else ins.argval))
    return out


def test_a_mutant_method_differs_from_its_base_by_its_edit_alone():
    # `GrowthOneIsRawOne` edits the line of `_compile` that plans the growth.
    source, first = inspect.getsourcelines(Core._compile)
    edited = first + next(i for i, line in enumerate(source) if "None if growth ==" in line)
    base, got = instructions(Core._compile), instructions(GrowthOneIsRawOne._compile)
    assert {n for n in base.keys() | got.keys() if base.get(n) != got.get(n)} == {edited}


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


def overshooting_reset():
    # Frozen from certificate_search.py: decay 0.5 and threshold 0, so 5
    # spikes at once and leaves 5, which leaks to 3, and 3 + 5 = 8 wraps to
    # -8 in Q3.1.  The mutant bounds the membrane by max(0, -1) = 0.
    cfg = CoreConfig.uniform(Q3_1, (1, 1), replace(PLAIN, decay_rate=0.5, v_threshold=0.0))
    return cfg, [np.array([[5]])], np.ones((2, 1), dtype=bool), ()


def cancelling_column():
    # Frozen from certificate_search.py: the column sums to -2, which the
    # mutant takes for every activation, but lines 0 and 1 alone give -5,
    # past Q2.1's min_raw of -4.
    fmt = QFormat(2, 1)
    cfg = CoreConfig.uniform(fmt, (3, 1), replace(PLAIN, decay_rate=0.5, v_threshold=0.0))
    return cfg, [np.array([[-4], [-1], [3]])], np.array([[1, 1, 0]], dtype=bool), ()


@pytest.mark.parametrize("mutant, network, first", [
    (RasterSkipsTheLineCount, three_max_lines, [(0, 0, 0)]),
    (SignedRasterCertificate, low_end_clamp, [(0, 0, 0)]),
    (CertificateWithoutResetOvershoot, overshooting_reset, [(0, 0, 1)]),
    (CertificateFromNetColumnSums, cancelling_column, [(0, 0, 0)]),
])
def test_only_a_sampled_run_tells_each_mutant_from_the_core(mutant, network, first):
    # `run_sample` sums layer 0's raster at once and skips the fits that
    # `certified` proves needless; a `step_cycle` loop sums [M] rows only, and
    # never certifies.
    cfg, planes, stimulus, _ = network()
    assert harness.sampled(harness.loaded(cfg, planes), stimulus) == []
    for run, want in ((harness.sampled, first), (harness.checked, [])):
        assert run(harness.loaded(cfg, planes, mutant), stimulus) == want


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
    # 12.5 certifies under decay 1; decay written to 0 after the run keeps
    # the membrane, so two cycles drive it to 200, which only its fit wraps.
    cfg = CoreConfig.uniform(Q5_3, (1, 1), replace(PLAIN, decay_rate=1.0,
                                                   v_threshold=Q5_3.max_value))
    stimulus = np.ones((2, 1), dtype=bool)
    for cls, first in ((Core, []), (CertificateOutlivesTheRun, [(0, 0, 1)])):
        core = harness.loaded(cfg, [np.array([[100]])], cls)
        assert harness.sampled(core, stimulus) == []
        core.reset_state()
        assert harness.checked(core, stimulus, [(0, 0, "decay_rate", QWord(Q5_3, 0))]) == first
