"""Golden cores: five seeded cores pinned by sha256 through every driver.

Each entry of `CASES` configures a core and names the draw and the seed of
its raw weights and 40-cycle stimulus.  `DIGESTS` pins three sha256
digests per case (`harness.digest`): of the drawn weights and stimulus, of
the core's per-layer spikes and decoded membranes, and of its float
twin's.  The first three are 64-16-4 cores with the same-cycle cascade.

- `saturate` (Q5.3, SATURATE): the weights are large enough that
  activation sums clamp part way and then come back, so the case pins the
  order-sensitive saturating accumulation independently of both the
  vectorized kernel and the scalar oracle.
- `wrap` (Q5.3, WRAP): activations and membrane updates leave the
  format's range and wrap, so the case pins the bits of a datapath that
  discards the high bits after every operation, independently of where the
  vectorized core reduces modulo 2**w.
- `saturate_q97` (Q9.7, the paper's format, SATURATE): weights of +-4.0,
  except that four input lines carry +-96 to +-160.  Most activation sums
  cannot clamp, so `accumulate_raw` certifies them and takes the plain
  sum; in those with two or more heavy lines a column can leave the range
  part way and come back.  Layer 0 resets by one more leak step (DEFAULT),
  and membranes saturate at the lower bound.
- `saturate_q1715` (Q17.15, SATURATE, three layers, `layer_latency=1`):
  each layer sees the previous cycle's spikes of the one before.  Weights
  of +-4.0, except that four input lines and every weight of the two
  deeper planes carry tens of thousands, so activation sums reach the
  bounds in every layer, membrane updates clamp at both, and products of
  a register and an activation pass 2**31.
- `wrap_q97` (Q9.7, WRAP, three layers, `layer_latency=1`): input lines
  drawn as for `saturate_q97`, and every weight of the two deeper planes
  +-64 to +-160, so activation sums and membranes wrap in every layer.
  Layer 0 resets to zero with a refractory period, layer 1 to a negative
  constant, layer 2 by subtraction.

Fresh cores from the draw give the core digest through `run_sample`, row 0
of a `run_batch`, a `step_cycle` loop and a run split across the two, and
the twin digest through the first three; every case also replays through
`neuron.step_neuron` bit for bit.  A digest moves only on purpose: after a
deliberate change of the bits, each failing test prints the digest it
computed, which then takes its place in the case's entry in `DIGESTS`.
"""

from collections.abc import Callable
from dataclasses import dataclass

import harness
import numpy as np
import pytest

from spikecore.core import CoreConfig, RealRegisters
from spikecore.fixedpoint import (
    Q5_3, Q9_7, Q17_15, SATURATE, WRAP, OverflowPolicy, QFormat, saturate_raw,
)
from spikecore.neuron import ResetMode
from spikecore.reference import ReferenceCore
from spikecore.topology import Connectivity, ConnectivityKind

SIZES = (64, 16, 4)
CYCLES = 40


def uniform_draw(rng, sizes):
    """Raw weights uniform in +-64 (+-8.0 in Q5.3), every input line at rate 0.3."""
    weights = [rng.integers(-64, 64, (m, n), endpoint=True)
               for m, n in zip(sizes[:-1], sizes[1:])]
    return weights, rng.random((CYCLES, sizes[0])) < 0.3


HEAVY = 4  # input lines with large weights in the Q9.7 and Q17.15 cases


def heavy_lines_draw(rng, sizes):
    """Q9.7 raw weights within +-4.0, except that input lines 0..HEAVY-1
    carry +-96 to +-160 (two of them can clamp a sum) and spike at rate
    0.25 instead of 0.3."""
    weights = [rng.integers(-512, 512, (m, n), endpoint=True)
               for m, n in zip(sizes[:-1], sizes[1:])]
    heavy = rng.integers(96 << 7, 160 << 7, (HEAVY, sizes[1]), endpoint=True)
    weights[0][:HEAVY] = heavy * rng.choice([-1, 1], heavy.shape)
    rates = np.full(sizes[0], 0.3)
    rates[:HEAVY] = 0.25
    return weights, rng.random((CYCLES, sizes[0])) < rates


def heavy_deep_draw(rng, sizes):
    """Q17.15 raw weights within +-4.0, except that input lines
    0..HEAVY-1 carry +-40000 to +-60000 and every weight of the deeper
    planes +-20000 to +-60000 (two of them can clamp a sum); input rates
    as in `heavy_lines_draw`."""
    one = 1 << 15
    weights = [rng.integers(-4 * one, 4 * one, (m, n), endpoint=True)
               for m, n in zip(sizes[:-1], sizes[1:])]
    heavy = rng.integers(40000 * one, 60000 * one, (HEAVY, sizes[1]), endpoint=True)
    weights[0][:HEAVY] = heavy * rng.choice([-1, 1], heavy.shape)
    for k in range(1, len(weights)):
        deep = rng.integers(20000 * one, 60000 * one, weights[k].shape, endpoint=True)
        weights[k] = deep * rng.choice([-1, 1], deep.shape)
    rates = np.full(sizes[0], 0.3)
    rates[:HEAVY] = 0.25
    return weights, rng.random((CYCLES, sizes[0])) < rates


def heavy_wraps_draw(rng, sizes):
    """As `heavy_lines_draw`, and every weight of the deeper planes +-64 to
    +-160, so that two same-sign spikes can wrap a Q9.7 sum."""
    weights, stimulus = heavy_lines_draw(rng, sizes)
    for k in range(1, len(weights)):
        deep = rng.integers(64 << 7, 160 << 7, weights[k].shape, endpoint=True)
        weights[k] = deep * rng.choice([-1, 1], deep.shape)
    return weights, stimulus


@dataclass(frozen=True)
class Case:
    fmt: QFormat
    policy: OverflowPolicy
    registers: tuple[RealRegisters, ...]
    seed: int
    draw: Callable = uniform_draw  # (rng, sizes) -> (raw weights, stimulus)
    sizes: tuple[int, ...] = SIZES
    layer_latency: int = 0

    def inputs(self):
        """The raw weights and the stimulus that `draw` gives from `seed`."""
        return self.draw(np.random.default_rng(self.seed), self.sizes)

    def config(self) -> CoreConfig:
        conn = (Connectivity(ConnectivityKind.ALL_TO_ALL),) * len(self.registers)
        return CoreConfig(self.fmt, self.sizes, conn, self.registers, policy=self.policy,
                          layer_latency=self.layer_latency)


SATURATING = Case(Q5_3, SATURATE, (
    RealRegisters(decay_rate=0.25, growth_rate=1.0, v_threshold=6.0,
                  reset_mode=ResetMode.BY_SUBTRACTION, refractory_period=1),
    RealRegisters(decay_rate=0.125, growth_rate=0.5, v_threshold=3.0,
                  reset_mode=ResetMode.TO_CONSTANT, v_reset=-2.0),
), seed=20240402)

WRAPPING = Case(Q5_3, WRAP, (
    RealRegisters(decay_rate=0.25, growth_rate=1.0, v_threshold=6.0,
                  reset_mode=ResetMode.BY_SUBTRACTION, refractory_period=2),
    RealRegisters(decay_rate=0.125, growth_rate=0.75, v_threshold=3.0,
                  reset_mode=ResetMode.DEFAULT),
), seed=20240403)

SATURATING_Q97 = Case(Q9_7, SATURATE, (
    RealRegisters(decay_rate=0.25, growth_rate=1.0, v_threshold=8.0,
                  reset_mode=ResetMode.DEFAULT, refractory_period=1),
    RealRegisters(decay_rate=0.125, growth_rate=0.5, v_threshold=4.0,
                  reset_mode=ResetMode.BY_SUBTRACTION),
), seed=20240404, draw=heavy_lines_draw)

SATURATING_Q1715 = Case(Q17_15, SATURATE, (
    RealRegisters(decay_rate=0.25, growth_rate=1.0, v_threshold=8.0,
                  reset_mode=ResetMode.BY_SUBTRACTION, refractory_period=1),
    RealRegisters(decay_rate=0.125, growth_rate=0.5, v_threshold=4.0,
                  reset_mode=ResetMode.DEFAULT),
    RealRegisters(decay_rate=0.5, growth_rate=1.0, v_threshold=16.0,
                  reset_mode=ResetMode.TO_CONSTANT, v_reset=-4.0),
), seed=20240405, draw=heavy_deep_draw, sizes=(64, 16, 8, 4), layer_latency=1)

WRAPPING_Q97 = Case(Q9_7, WRAP, (
    RealRegisters(decay_rate=0.25, growth_rate=1.0, v_threshold=8.0,
                  reset_mode=ResetMode.TO_ZERO, refractory_period=2),
    RealRegisters(decay_rate=0.125, growth_rate=0.75, v_threshold=4.0,
                  reset_mode=ResetMode.TO_CONSTANT, v_reset=-6.0),
    RealRegisters(decay_rate=0.5, growth_rate=1.0, v_threshold=16.0,
                  reset_mode=ResetMode.BY_SUBTRACTION),
), seed=20240406, draw=heavy_wraps_draw, sizes=(64, 16, 8, 4), layer_latency=1)

# Every golden case, by name.
CASES = {"saturate": SATURATING, "wrap": WRAPPING, "saturate_q97": SATURATING_Q97,
         "saturate_q1715": SATURATING_Q1715, "wrap_q97": WRAPPING_Q97}

# Per case, the sha256 (`harness.digest`) of its drawn weights and stimulus,
# of its core's run and of its twin's.  The golden formats sum exactly in any
# BLAS order, so every driver of the twin gives its bits.
DIGESTS = {
    "saturate": ("d2eef7b508b08ef16601c2bdb5eb041928e8a74f0ff2193c1f4fce49614842ab",
                 "789ec12ed64fca1224bfac4f3ac384e84a903a58beaf56a945fc841d076ea73b",
                 "208819ffd230dec6e17aa2462f8b94d79c492d368963d8767e97f028dced5ae7"),
    "wrap": ("6e91239e3a5eb194c72215d1f1776ec5d53261f9269a16f3289402dbdade7755",
             "4e5d0e087bc31d6ffce79c3dae4f2352d5b8a31e6d1c0a15cec3afad3c672ad3",
             "0580a92593fd0c4bdda9960f98a850dfaedc8186cbf49535da803e1428af153f"),
    "saturate_q97": ("e08bad442845eecad348d4c9f451b253ff8afca0f7e063d455156c9adf65ec3a",
                     "ea6ee106983d1ca5948ec204386b8da489f7af28ce211a1522a42effd678438b",
                     "c7ca7544a5e57e6a12c01f9b6ceb259b093d50d24358c9d992dfe82a5ae62799"),
    "saturate_q1715": ("56579dc6153380766aeae355ff4fd30ea051a93f8ade425d7ed8e6adbb6aab63",
                       "7f7d03c9be3faac5b8ab1aba5424e32ba61367f3f29242d70a60d48ed11920c7",
                       "575dacfb07bda077586f3d8a2b1a649e178f73f1a619796c7b8c2c34070c665d"),
    "wrap_q97": ("5f87206dcf25e211cffe9c7661a5ec01d81086e87b495880196e476d1c3da008",
                 "05d087acc27f917ae9493104415aa0079f1ae7104edd075c2e630eae758f3f23",
                 "08f3041f14dd77ccf9bd69140ad11dd838aeda48d577a21ed230ffc5d3acd03c"),
}


def split_run(core, stimulus):
    """`run_sample` runs the first 20 cycles and a `step_cycle` loop the other
    20 from the state it leaves: at layer_latency 1 the latches that
    `run_sample` leaves are the ones the next `step_cycle` reads."""
    half = CYCLES // 2
    first = harness.sampled_run(core, stimulus[:half])
    rest = harness.stepped_run(core, stimulus[half:])
    return [[np.vstack(pair) for pair in zip(a, b, strict=True)] for a, b in zip(first, rest)]


def drawn(name):
    """A fresh core of case `name` and its stimulus, once the drawn weights
    and stimulus are found to give the case's inputs digest: checked first,
    so that a moved numpy `Generator` stream is not read as a moved datapath."""
    weights, stimulus = CASES[name].inputs()
    assert harness.digest(weights, [stimulus]) == DIGESTS[name][0], f"{name}: the seeded draw moved"
    return harness.loaded(CASES[name].config(), weights), stimulus


CORE_DRIVERS = {**harness.DRIVERS, "split": split_run}


@pytest.mark.parametrize("driver", CORE_DRIVERS)
@pytest.mark.parametrize("name", CASES)
def test_each_golden_core_keeps_its_digest_through_every_driver(name, driver):
    got = harness.digest(*CORE_DRIVERS[driver](*drawn(name)))
    assert got == DIGESTS[name][1], f"{name}: the core's digest through {driver} is {got}"


@pytest.mark.parametrize("driver", harness.DRIVERS)
@pytest.mark.parametrize("name", CASES)
def test_each_golden_twin_keeps_its_digest_through_every_driver(name, driver):
    core, stimulus = drawn(name)
    got = harness.digest(*harness.DRIVERS[driver](ReferenceCore(core), stimulus))
    assert got == DIGESTS[name][2], f"{name}: the twin's digest through {driver} is {got}"


@pytest.mark.parametrize("case", CASES.values(), ids=CASES)
def test_each_golden_core_matches_the_scalar_oracle(case):
    weights, stimulus = case.inputs()
    assert harness.sampled(harness.loaded(case.config(), weights), stimulus) == []


def fresh(case: Case):
    """The drawn weights and stimulus of a golden core and, per layer, the
    spikes and raw membranes of a fresh `run_sample` through them."""
    weights, stimulus = case.inputs()
    spikes, vmem = harness.sampled_run(harness.loaded(case.config(), weights), stimulus)
    return weights, stimulus, spikes, [(v / case.fmt.quantum).astype(np.int64) for v in vmem]


def test_golden_sums_clamp_mid_sum():
    # The case is only worth pinning if some layer-0 sums saturate and
    # then come back: there the ordered sum differs from clamp(plain sum).
    total, act, _, _ = harness.recount(SATURATING.config(), *fresh(SATURATING))[0]
    assert np.sum(act != saturate_raw(total, Q5_3)) > 100


def test_q97_golden_sums_mostly_certify_and_some_clamp_mid_sum():
    # A certified call is one where no column's positive terms sum past
    # max_raw nor its negative terms past min_raw: no prefix sum can clamp.
    # The case should take both paths of the saturating accumulation.
    case = SATURATING_Q97
    fmt = case.fmt
    weights, stimulus, spikes, vmem = fresh(case)
    layers = harness.recount(case.config(), weights, stimulus, spikes, vmem)
    certified = fallback = clamped_mid_sum = 0
    for k, (w, (total, act, _, _)) in enumerate(zip(weights, layers)):
        up = harness.upstream(stimulus, spikes, k, case.layer_latency).astype(np.int64)
        positive, negative = up @ np.maximum(w, 0), up @ np.minimum(w, 0)
        ok = ((positive <= fmt.max_raw) & (negative >= fmt.min_raw)).all(axis=1)
        certified += int(ok.sum())
        fallback += int((~ok).sum())
        # A certified sum cannot clamp: only the fallback sums count here.
        clamped_mid_sum += int(np.sum(act != saturate_raw(total, fmt)))
    assert (certified, fallback) == (75, 5)
    assert clamped_mid_sum > 10


def wraps(case: Case):
    """Per layer: the activation sums, and the membrane updates
    vmem - leak + drive of neurons not held, whose exact integer value
    leaves the range of `case.fmt` and wraps."""
    lo, hi = case.fmt.min_raw, case.fmt.max_raw
    acts, updates = [], []
    for total, _, update, held in harness.recount(case.config(), *fresh(case)):
        acts.append(int(np.sum((total < lo) | (total > hi))))
        updates.append(int(np.sum(~held & ((update < lo) | (update > hi)))))
    return acts, updates


def test_wrap_golden_activations_and_membranes_wrap():
    # The case is only worth pinning if the datapath wraps.
    act_wraps, membrane_wraps = wraps(WRAPPING)
    assert sum(act_wraps) > 100
    assert sum(membrane_wraps) > 50


def test_q1715_golden_sums_and_membranes_hit_the_bounds():
    # Per layer: ordered activation sums that end on a bound of Q17.15,
    # and membrane updates vmem - leak + drive of neurons not held whose
    # exact value lies above or below the range and is clamped.
    case = SATURATING_Q1715
    fmt = case.fmt
    at_bound, above, below = [], [], []
    for _, act, update, held in harness.recount(case.config(), *fresh(case)):
        at_bound.append(int(np.sum((act == fmt.min_raw) | (act == fmt.max_raw))))
        above.append(int(np.sum(~held & (update > fmt.max_raw))))
        below.append(int(np.sum(~held & (update < fmt.min_raw))))
    assert at_bound == [7, 94, 42]
    assert above == [59, 17, 0]
    assert below == [66, 18, 76]


def test_q97_wrap_golden_wraps_in_every_layer_and_every_reset_fires():
    # Activation sums and membrane updates wrap in every layer.  Each layer
    # spikes, and a spike leaves its reset value.
    case = WRAPPING_Q97
    assert wraps(case) == ([6, 59, 28], [21, 24, 9])
    _, _, spikes, vmem = fresh(case)
    modes = [r.reset_mode for r in case.registers]
    assert modes == [ResetMode.TO_ZERO, ResetMode.TO_CONSTANT, ResetMode.BY_SUBTRACTION]
    assert all(s.any() for s in spikes)
    assert (vmem[0][spikes[0]] == 0).all()
    assert (vmem[1][spikes[1]] == round(case.registers[1].v_reset / case.fmt.quantum)).all()
