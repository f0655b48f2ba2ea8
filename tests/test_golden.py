"""Frozen golden traces: five cores replayed bit for bit.

Each file under `golden/` holds the weights and a 40-cycle stimulus of one
core configured below and, per cycle, its spike raster (one bit string per
layer) and every membrane as a `QWord.to_literal` hex string (one
space-separated line per layer).  The first three are 64-16-4 cores with
the same-cycle cascade.

- `saturate_q53_64_16_4.json` (SATURATE): the weights are large enough that
  activation sums clamp part way and then come back, so the file pins the
  order-sensitive saturating accumulation independently of both the
  vectorized kernel and the scalar oracle.
- `wrap_q53_64_16_4.json` (WRAP): activations and membrane updates leave
  the format's range and wrap, so the file pins the bits of a datapath that
  discards the high bits after every operation, independently of where the
  vectorized core reduces modulo 2**w.
- `saturate_q97_64_16_4.json` (SATURATE, Q9.7, the paper's format): weights
  of +-4.0, except that four input lines carry +-96 to +-160.  Most
  activation sums cannot clamp, so `accumulate_raw` certifies them and
  takes the plain sum; in those with two or more heavy lines a column can
  leave the range part way and come back.  Layer 0 resets by one more
  leak step (DEFAULT), and membranes saturate at the lower bound.
- `saturate_q1715_64_16_8_4.json` (SATURATE, Q17.15, three layers,
  `layer_latency=1`): each layer sees the previous cycle's spikes of the
  one before.  Weights of +-4.0, except that four input lines and every
  weight of the two deeper planes carry tens of thousands, so activation
  sums reach the bounds in every layer, membrane updates clamp at both,
  and products of a register and an activation pass 2**31.
- `wrap_q97_64_16_8_4.json` (WRAP, Q9.7, three layers, `layer_latency=1`):
  input lines drawn as for the Q9.7 SATURATE file, and every weight of
  the two deeper planes +-64 to +-160, so activation sums and membranes
  wrap in every layer.  Layer 0 resets to zero with a refractory period,
  layer 1 to a negative constant, layer 2 by subtraction.

`record` replays every neuron through `neuron.step_neuron` and writes no
file on a mismatch; all five files pass.  Regenerate (only on purpose:
the point of the files is that they do not move) with `PYTHONPATH=src
python tests/test_golden.py`, which writes every entry of `CASES`, or only
the ones named after it, such as `wrap_q97`; CI runs it and fails if a
file changes.
"""

import json
import sys
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import harness
import numpy as np
import pytest

from spikecore.core import Core, CoreConfig, RealRegisters
from spikecore.fixedpoint import (
    Q5_3, Q9_7, Q17_15, SATURATE, WRAP, OverflowPolicy, QFormat, QWord, saturate_raw,
)
from spikecore.neuron import ResetMode
from spikecore.topology import Connectivity, ConnectivityKind

SIZES = (64, 16, 4)
CYCLES = 40


def uniform_draw(rng, sizes):
    """Raw weights uniform in +-64 (+-8.0 in Q5.3), every input line at rate 0.3."""
    weights = [rng.integers(-64, 64, (m, n), endpoint=True)
               for m, n in zip(sizes[:-1], sizes[1:])]
    return weights, rng.random((CYCLES, sizes[0])) < 0.3


HEAVY = 4  # input lines with large weights in the Q9.7 and Q17.15 files


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
    name: str
    fmt: QFormat
    policy: OverflowPolicy
    registers: tuple[RealRegisters, ...]
    seed: int
    draw: Callable = uniform_draw  # (rng, sizes) -> (raw weights, stimulus), to record
    sizes: tuple[int, ...] = SIZES
    layer_latency: int = 0

    @property
    def path(self) -> Path:
        fmt = f"q{self.fmt.n}{self.fmt.q}"
        sizes = "_".join(map(str, self.sizes))
        return Path(__file__).parent / "golden" / f"{self.name}_{fmt}_{sizes}.json"

    def config(self) -> CoreConfig:
        conn = (Connectivity(ConnectivityKind.ALL_TO_ALL),) * len(self.registers)
        return CoreConfig(self.fmt, self.sizes, conn, self.registers, policy=self.policy,
                          layer_latency=self.layer_latency)


SATURATING = Case("saturate", Q5_3, SATURATE, (
    RealRegisters(decay_rate=0.25, growth_rate=1.0, v_threshold=6.0,
                  reset_mode=ResetMode.BY_SUBTRACTION, refractory_period=1),
    RealRegisters(decay_rate=0.125, growth_rate=0.5, v_threshold=3.0,
                  reset_mode=ResetMode.TO_CONSTANT, v_reset=-2.0),
), seed=20240402)

WRAPPING = Case("wrap", Q5_3, WRAP, (
    RealRegisters(decay_rate=0.25, growth_rate=1.0, v_threshold=6.0,
                  reset_mode=ResetMode.BY_SUBTRACTION, refractory_period=2),
    RealRegisters(decay_rate=0.125, growth_rate=0.75, v_threshold=3.0,
                  reset_mode=ResetMode.DEFAULT),
), seed=20240403)

SATURATING_Q97 = Case("saturate", Q9_7, SATURATE, (
    RealRegisters(decay_rate=0.25, growth_rate=1.0, v_threshold=8.0,
                  reset_mode=ResetMode.DEFAULT, refractory_period=1),
    RealRegisters(decay_rate=0.125, growth_rate=0.5, v_threshold=4.0,
                  reset_mode=ResetMode.BY_SUBTRACTION),
), seed=20240404, draw=heavy_lines_draw)

SATURATING_Q1715 = Case("saturate", Q17_15, SATURATE, (
    RealRegisters(decay_rate=0.25, growth_rate=1.0, v_threshold=8.0,
                  reset_mode=ResetMode.BY_SUBTRACTION, refractory_period=1),
    RealRegisters(decay_rate=0.125, growth_rate=0.5, v_threshold=4.0,
                  reset_mode=ResetMode.DEFAULT),
    RealRegisters(decay_rate=0.5, growth_rate=1.0, v_threshold=16.0,
                  reset_mode=ResetMode.TO_CONSTANT, v_reset=-4.0),
), seed=20240405, draw=heavy_deep_draw, sizes=(64, 16, 8, 4), layer_latency=1)

WRAPPING_Q97 = Case("wrap", Q9_7, WRAP, (
    RealRegisters(decay_rate=0.25, growth_rate=1.0, v_threshold=8.0,
                  reset_mode=ResetMode.TO_ZERO, refractory_period=2),
    RealRegisters(decay_rate=0.125, growth_rate=0.75, v_threshold=4.0,
                  reset_mode=ResetMode.TO_CONSTANT, v_reset=-6.0),
    RealRegisters(decay_rate=0.5, growth_rate=1.0, v_threshold=16.0,
                  reset_mode=ResetMode.BY_SUBTRACTION),
), seed=20240406, draw=heavy_wraps_draw, sizes=(64, 16, 8, 4), layer_latency=1)

# Every golden file, by the name that regenerates it on the command line.
CASES = {"saturate": SATURATING, "wrap": WRAPPING, "saturate_q97": SATURATING_Q97,
         "saturate_q1715": SATURATING_Q1715, "wrap_q97": WRAPPING_Q97}


def bits(row) -> str:
    return "".join("1" if b else "0" for b in row)


def unbits(text: str) -> list[bool]:
    return [c == "1" for c in text]


def literal(value: float, fmt: QFormat) -> str:
    return QWord(fmt, round(value / fmt.quantum)).to_literal()


def replay(case: Case, core: Core, stimulus):
    """Per-cycle (spike bit strings, membrane literals) of a `run_sample` of `core`."""
    raster, traces = core.run_sample(stimulus, len(stimulus), watch="all")
    cycles = []
    for t in range(len(stimulus)):
        cycles.append({
            "spikes": [bits(layer[t]) for layer in raster.layers],
            "vmem": [" ".join(literal(traces[(k, j)][t], case.fmt) for j in range(n))
                     for k, n in enumerate(case.sizes[1:])],
        })
    return cycles


def decode(case: Case, cycles):
    """Per layer, the [T, N] spikes and raw membranes of recorded cycles."""
    n = len(case.registers)
    spikes = [np.array([unbits(c["spikes"][k]) for c in cycles]) for k in range(n)]
    vmem = [np.array([[QWord.from_literal(x).raw for x in c["vmem"][k].split()]
                      for c in cycles]) for k in range(n)]
    return spikes, vmem


def oracle_mismatches(case: Case, weights, stimulus, cycles) -> list[tuple[int, int, int]]:
    """`harness.mismatches` of the recorded cycles of a golden core."""
    spikes, vmem = decode(case, cycles)
    regs = [real.quantize(case.fmt) for real in case.registers]
    return harness.mismatches(case.config(), regs, weights, stimulus, spikes, vmem)


def load(case: Case):
    data = json.loads(case.path.read_text())
    weights = [np.array([[QWord.from_literal(x).raw for x in row.split()] for row in plane])
               for plane in data["weights"]]
    stimulus = np.array([unbits(row) for row in data["stimulus"]])
    return data, weights, stimulus


def check_replay(case: Case):
    data, weights, stimulus = load(case)
    assert (data["format"], data["policy"], tuple(data["sizes"])) == (
        str(case.fmt), case.policy.value, case.sizes)
    assert data["layer_latency"] == case.layer_latency
    got = replay(case, harness.loaded(case.config(), weights), stimulus)
    assert len(got) == len(data["cycles"]) == CYCLES
    for t, (g, want) in enumerate(zip(got, data["cycles"])):
        assert g == want, f"cycle {t}"


def test_golden_trace_replays_bit_for_bit():
    check_replay(SATURATING)


def test_wrap_golden_trace_replays_bit_for_bit():
    check_replay(WRAPPING)


def test_q97_saturate_golden_trace_replays_bit_for_bit():
    check_replay(SATURATING_Q97)


def test_q1715_three_layer_latency1_golden_trace_replays_bit_for_bit():
    check_replay(SATURATING_Q1715)


def test_q97_wrap_three_layer_latency1_golden_trace_replays_bit_for_bit():
    check_replay(WRAPPING_Q97)


@pytest.mark.parametrize("case", [SATURATING_Q1715, WRAPPING_Q97, SATURATING_Q97],
                         ids=lambda case: case.path.stem)
def test_a_replay_split_across_the_two_drivers_matches_the_file(case):
    # `run_sample` runs the first 20 cycles and a `step_cycle` loop the
    # other 20 from the state it leaves: at layer_latency 1 the latches
    # that `run_sample` leaves are the ones the next `step_cycle` reads.
    data, weights, stimulus = load(case)
    core, half = harness.loaded(case.config(), weights), CYCLES // 2
    assert replay(case, core, stimulus[:half]) == data["cycles"][:half]
    got, want = harness.stepped(core, stimulus[half:]), decode(case, data["cycles"][half:])
    for g, w in zip(got, want, strict=True):
        assert all(np.array_equal(a, b) for a, b in zip(g, w, strict=True))


def recounted(case: Case):
    """`harness.recount` of a golden file, and its recorded spikes and membranes."""
    data, weights, stimulus = load(case)
    spikes, vmem = decode(case, data["cycles"])
    return harness.recount(case.config(), weights, stimulus, spikes, vmem), spikes, vmem


def test_golden_sums_clamp_mid_sum():
    # The fixture is only worth freezing if some layer-0 sums saturate and
    # then come back: there the ordered sum differs from clamp(plain sum).
    total, act, _, _ = recounted(SATURATING)[0][0]
    assert np.sum(act != saturate_raw(total, Q5_3)) > 100


def test_q97_golden_sums_mostly_certify_and_some_clamp_mid_sum():
    # A certified call is one where no column's positive terms sum past
    # max_raw nor its negative terms past min_raw: no prefix sum can clamp.
    # The file should take both paths of the saturating accumulation.
    case = SATURATING_Q97
    fmt = case.fmt
    layers, spikes, _ = recounted(case)
    _, weights, stimulus = load(case)
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
    for total, _, update, held in recounted(case)[0]:
        acts.append(int(np.sum((total < lo) | (total > hi))))
        updates.append(int(np.sum(~held & ((update < lo) | (update > hi)))))
    return acts, updates


def test_wrap_golden_activations_and_membranes_wrap():
    # The fixture is only worth freezing if the datapath wraps.
    act_wraps, membrane_wraps = wraps(WRAPPING)
    assert sum(act_wraps) > 100
    assert sum(membrane_wraps) > 50


def test_q1715_golden_sums_and_membranes_hit_the_bounds():
    # Per layer: ordered activation sums that end on a bound of Q17.15,
    # and membrane updates vmem - leak + drive of neurons not held whose
    # exact value lies above or below the range and is clamped.
    fmt = SATURATING_Q1715.fmt
    at_bound, above, below = [], [], []
    for _, act, update, held in recounted(SATURATING_Q1715)[0]:
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
    _, spikes, vmem = recounted(case)
    modes = [r.reset_mode for r in case.registers]
    assert modes == [ResetMode.TO_ZERO, ResetMode.TO_CONSTANT, ResetMode.BY_SUBTRACTION]
    assert all(s.any() for s in spikes)
    assert (vmem[0][spikes[0]] == 0).all()
    assert (vmem[1][spikes[1]] == round(case.registers[1].v_reset / case.fmt.quantum)).all()


def test_q97_wrap_golden_matches_the_scalar_oracle():
    data, weights, stimulus = load(WRAPPING_Q97)
    assert oracle_mismatches(WRAPPING_Q97, weights, stimulus, data["cycles"]) == []


def record(case: Case) -> dict:
    weights, stimulus = case.draw(np.random.default_rng(case.seed), case.sizes)
    cycles = replay(case, harness.loaded(case.config(), weights), stimulus)
    bad = oracle_mismatches(case, weights, stimulus, cycles)
    if bad:
        raise AssertionError(f"{case.path.name}: core and scalar oracle differ at {bad[:5]}")
    return {
        "format": str(case.fmt),
        "policy": case.policy.value,
        "sizes": list(case.sizes),
        "layer_latency": case.layer_latency,
        "seed": case.seed,
        "weights": [[" ".join(QWord(case.fmt, int(x)).to_literal() for x in row) for row in w]
                    for w in weights],
        "stimulus": [bits(row) for row in stimulus],
        "cycles": cycles,
    }


if __name__ == "__main__":
    for name in sys.argv[1:] or CASES:
        case = CASES[name]
        case.path.parent.mkdir(exist_ok=True)
        case.path.write_text(json.dumps(record(case), indent=1) + "\n")
        print(f"wrote {case.path}")
