"""Differential conformance: the vectorized `Core` against the scalar oracle.

Every neuron of a randomly configured core is replayed through
`neuron.step_neuron`, fed from the core's own upstream raster, and its
spike and membrane must match the core's on every cycle, also when
registers are rewritten between cycles.  A core is also the cascade of
its layers, each run alone on what it saw in the whole core.  Its drivers
agree: a `run_sample` with a `step_cycle` loop, and each row of a
`run_batch` with its own run, for the core and its float twin.  In Q2.1,
one cycle matches the oracle on every state under a slice of the register
files, and every fold of up to four words matches the ordered adds.
"""

from dataclasses import replace

import exhaustive
import harness
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from spikecore.fixedpoint import QWord
from spikecore.neuron import ResetMode
from spikecore.reference import ReferenceCore

# The slice of `exhaustive`'s sweep that Tier-1 runs: a negative, a rate, 1 and
# a growth past 1; a negative, a zero and a positive threshold; every reset mode.
SLICE = list(exhaustive.register_files(
    growths=(-1, 1, 2, 3), thresholds=(-1, 0, 3), periods=(0, 1),
    resets=((ResetMode.TO_ZERO, 0), (ResetMode.BY_SUBTRACTION, 0), (ResetMode.DEFAULT, 0),
            (ResetMode.TO_CONSTANT, 3))))

def test_every_q2_1_transition_of_a_register_slice_matches_the_scalar_oracle():
    # Every (membrane, activation) pair of Q2.1 with counters 0 and 1, the
    # counters that periods of at most 1 arm, under both policies and `_armed`
    # both ways: one cycle of the core is the oracle's on each, so by
    # induction every run of a 1-input core under these registers is.
    assert exhaustive.mismatches(SLICE, counters=(0, 1)) == []


def test_every_fold_of_up_to_four_q2_1_words_matches_the_ordered_adds():
    # Every set of active lines over every 4-word tuple of Q2.1, under both
    # policies: `_activation`'s row path (`accumulate_raw` under SATURATE),
    # on each fold alone too, and both raster kernels give the ordered adds.
    # The product sums each fold alone for four chunks of 128 tuples, whose
    # first raw words are -4, -2, 0 and 2, so that its SATURATE certificate
    # is tried on each of their folds, not only on those of 0 or 1 word.
    assert exhaustive.fold_mismatches(chunks=range(0, 32, 8)) == []


@given(net=harness.NETWORKS)
@settings(max_examples=300, deadline=None)
def test_core_matches_scalar_oracle_neuron_by_neuron(net):
    cfg, weights, stream = net
    assert harness.sampled(harness.loaded(cfg, weights), stream) == []


@given(net=harness.NETWORKS)
@settings(max_examples=100, deadline=None)
def test_a_core_is_a_cascade_of_isolated_layers(net):
    # Layers talk only in spikes: layer k alone, in a one-layer core fed what
    # it saw in the whole core, spikes and traces as it did there.
    cfg, weights, stream = net
    raster, traces = harness.loaded(cfg, weights).run_sample(stream, len(stream), watch="all")
    for k, plane in enumerate(weights):
        alone = replace(cfg, sizes=cfg.sizes[k:k + 2], connectivity=cfg.connectivity[k:k + 1],
                        registers=cfg.registers[k:k + 1])
        feed = harness.upstream(stream, raster.layers, k, cfg.layer_latency)
        spikes, vmem = harness.loaded(alone, [plane]).run_sample(feed, len(stream), watch="all")
        assert np.array_equal(spikes.layers[0], raster.layers[k]), k
        for j in range(cfg.sizes[k + 1]):
            assert np.array_equal(vmem[(0, j)], traces[(k, j)]), (k, j)


@st.composite
def register_writes(draw, fmt, n_layers, duration):
    """(cycle, layer, register, value) writes of every register, in the order
    they are made.  A growth of exactly 1.0 is drawn often, so that writes
    cross `_drive`'s skip of the product both ways."""

    def words(lo, hi):
        return st.integers(lo, hi).map(lambda raw: QWord(fmt, raw))

    values = {
        "decay_rate": words(0, min(fmt.max_raw, 1 << fmt.q)),
        "growth_rate": st.just(QWord(fmt, 1 << fmt.q)) | words(fmt.min_raw, fmt.max_raw),
        "refractory_period": st.integers(0, 3),
        "v_threshold": words(fmt.min_raw, fmt.max_raw),
        "reset_mode": st.sampled_from(ResetMode),
        "v_reset": words(fmt.min_raw, fmt.max_raw),
    }
    writes = []
    for _ in range(draw(st.integers(0, 8))):
        name = draw(st.sampled_from(sorted(values)))
        writes.append((draw(st.integers(0, duration - 1)), draw(st.integers(0, n_layers - 1)),
                       name, draw(values[name])))
    # A stable sort keeps the drawn order of the writes made before one cycle.
    return sorted(writes, key=lambda w: w[0])


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_register_writes_between_cycles_match_the_scalar_oracle(data):
    # Every register written between cycles, a period of 0 included while
    # neurons are held, takes effect in the core exactly as in the oracle
    # given the same schedule: the core's per-layer plan of its registers
    # is compiled again at each write.
    cfg, weights, stream = data.draw(harness.NETWORKS)
    writes = data.draw(register_writes(cfg.fmt, cfg.n_layers, len(stream)))
    assert harness.checked(harness.loaded(cfg, weights), stream, writes) == []


@given(net=harness.NETWORKS)
@settings(max_examples=200, deadline=None)
def test_run_sample_equals_a_step_cycle_loop(net):
    # Two drivers of the one LIF kernel: `run_sample` (the core's computes
    # layer 0's drive for every cycle up front, the twin's runs the
    # layer-major scan) and a `step_cycle` loop.  Spikes, membranes and the
    # state left behind must agree, so that one more cycle continues both
    # alike.
    cfg, weights, stream = net
    core = harness.loaded(cfg, weights)
    for make in (lambda: harness.loaded(cfg, weights), lambda: ReferenceCore(core)):
        assert harness.continued(make(), make(), stream) == []


@given(net=harness.NETWORKS, data=st.data())
@settings(max_examples=150, deadline=None)
def test_each_row_of_run_batch_equals_its_own_run(net, data):
    # The layer-major scan on [B, N] state: row i of a batch of 1-4 streams
    # is stream i's own run, spikes and membranes, through `Core.run_sample`
    # for the core and a `step_cycle` loop for its twin; and a batch leaves
    # a fresh state behind.
    cfg, weights, stream = net
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    more = data.draw(st.integers(0, 3))
    streams = [stream, *(rng.random(stream.shape) < 0.5 for _ in range(more))]
    core = harness.loaded(cfg, weights)
    assert harness.batched(lambda: harness.loaded(cfg, weights), streams, harness.sampled_run) == []
    assert harness.batched(lambda: ReferenceCore(core), streams, harness.stepped_run) == []
