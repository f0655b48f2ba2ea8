"""Frozen golden traces: three 64-16-4 cores replayed bit for bit.

Each file under `golden/` holds the weights and a 40-cycle stimulus of one
core configured below and, per cycle, its spike raster (one bit string per
layer) and every membrane as a `QWord.to_literal` hex string (one
space-separated line per layer).

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

Regenerate (only on purpose: the point of the files is that they do not
move) with `PYTHONPATH=src python tests/test_golden.py {saturate,wrap,saturate_q97}`.
"""

import json
import sys
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from spikecore.core import Core, CoreConfig, RealRegisters
from spikecore.fixedpoint import (
    Q5_3, Q9_7, SATURATE, WRAP, OverflowPolicy, QFormat, QWord, add_raw, mul_raw, saturate_raw,
    wrap_raw,
)
from spikecore.neuron import ResetMode
from spikecore.topology import Connectivity, ConnectivityKind

SIZES = (64, 16, 4)
CYCLES = 40


def uniform_draw(rng):
    """Raw weights uniform in +-64 (+-8.0 in Q5.3), every input line at rate 0.3."""
    weights = [rng.integers(-64, 64, (m, n), endpoint=True)
               for m, n in zip(SIZES[:-1], SIZES[1:])]
    return weights, rng.random((CYCLES, SIZES[0])) < 0.3


HEAVY = 4  # input lines of the Q9.7 file with large weights


def heavy_lines_draw(rng):
    """Q9.7 raw weights within +-4.0, except that input lines 0..HEAVY-1
    carry +-96 to +-160 (two of them can clamp a sum) and spike at rate
    0.25 instead of 0.3."""
    weights = [rng.integers(-512, 512, (m, n), endpoint=True)
               for m, n in zip(SIZES[:-1], SIZES[1:])]
    heavy = rng.integers(96 << 7, 160 << 7, (HEAVY, SIZES[1]), endpoint=True)
    weights[0][:HEAVY] = heavy * rng.choice([-1, 1], heavy.shape)
    rates = np.full(SIZES[0], 0.3)
    rates[:HEAVY] = 0.25
    return weights, rng.random((CYCLES, SIZES[0])) < rates


@dataclass(frozen=True)
class Case:
    name: str
    fmt: QFormat
    policy: OverflowPolicy
    registers: tuple[RealRegisters, ...]
    seed: int
    draw: Callable = uniform_draw  # rng -> (raw weights, stimulus), to record

    @property
    def path(self) -> Path:
        fmt = f"q{self.fmt.n}{self.fmt.q}"
        return Path(__file__).parent / "golden" / f"{self.name}_{fmt}_64_16_4.json"

    def config(self) -> CoreConfig:
        return CoreConfig(self.fmt, SIZES, (Connectivity(ConnectivityKind.ALL_TO_ALL),) * 2,
                          self.registers, policy=self.policy)


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

# The names that regenerate each file on the command line.
CASES = {"saturate": SATURATING, "wrap": WRAPPING, "saturate_q97": SATURATING_Q97}


def bits(row) -> str:
    return "".join("1" if b else "0" for b in row)


def unbits(text: str) -> list[bool]:
    return [c == "1" for c in text]


def literal(value: float, fmt: QFormat) -> str:
    return QWord(fmt, round(value / fmt.quantum)).to_literal()


def replay(case: Case, weights, stimulus):
    """Per-cycle (spike bit strings, membrane literals) of the golden core."""
    with Core(case.config()) as core:
        for plane, w in zip(core.planes, weights):
            plane.raw[...] = w
        raster, traces = core.run_sample(stimulus, len(stimulus), watch="all")
    cycles = []
    for t in range(len(stimulus)):
        cycles.append({
            "spikes": [bits(layer[t]) for layer in raster.layers],
            "vmem": [" ".join(literal(traces[(k, j)][t], case.fmt) for j in range(n))
                     for k, n in enumerate(SIZES[1:])],
        })
    return cycles


def load(case: Case):
    data = json.loads(case.path.read_text())
    weights = [np.array([[QWord.from_literal(x).raw for x in row.split()] for row in plane])
               for plane in data["weights"]]
    stimulus = np.array([unbits(row) for row in data["stimulus"]])
    return data, weights, stimulus


def check_replay(case: Case):
    data, weights, stimulus = load(case)
    assert (data["format"], data["policy"], tuple(data["sizes"])) == (
        str(case.fmt), case.policy.value, SIZES)
    got = replay(case, weights, stimulus)
    assert len(got) == len(data["cycles"]) == CYCLES
    for t, (g, want) in enumerate(zip(got, data["cycles"])):
        assert g == want, f"cycle {t}"


def test_golden_trace_replays_bit_for_bit():
    check_replay(SATURATING)


def test_wrap_golden_trace_replays_bit_for_bit():
    check_replay(WRAPPING)


def test_q97_saturate_golden_trace_replays_bit_for_bit():
    check_replay(SATURATING_Q97)


def test_golden_sums_clamp_mid_sum():
    # The fixture is only worth freezing if some layer-0 sums saturate and
    # then come back: there the ordered sum differs from clamp(plain sum).
    _, weights, stimulus = load(SATURATING)
    w = weights[0]
    differs = 0
    for row in stimulus:
        active = w[np.flatnonzero(row)]
        acc = np.zeros(w.shape[1], dtype=np.int64)
        for r in active:
            acc = add_raw(acc, r, Q5_3, SATURATE)
        differs += int(np.sum(acc != saturate_raw(active.sum(axis=0), Q5_3)))
    assert differs > 100


def test_q97_golden_sums_mostly_certify_and_some_clamp_mid_sum():
    # A certified call is one where no column's positive terms sum past
    # max_raw nor its negative terms past min_raw: no prefix sum can clamp.
    # The file should take both paths of the saturating accumulation.
    data, weights, stimulus = load(SATURATING_Q97)
    fmt = SATURATING_Q97.fmt
    layer0 = np.array([unbits(c["spikes"][0]) for c in data["cycles"]])
    certified = fallback = clamped_mid_sum = 0
    for w, upstream in zip(weights, (stimulus, layer0)):
        for row in upstream:
            active = w[np.flatnonzero(row)]
            positive, negative = np.maximum(active, 0).sum(0), np.minimum(active, 0).sum(0)
            if (positive <= fmt.max_raw).all() and (negative >= fmt.min_raw).all():
                certified += 1
                continue
            fallback += 1
            acc = np.zeros(w.shape[1], dtype=np.int64)
            for r in active:
                acc = add_raw(acc, r, fmt, SATURATE)
            clamped_mid_sum += int(np.sum(acc != saturate_raw(active.sum(axis=0), fmt)))
    assert (certified, fallback) == (75, 5)
    assert clamped_mid_sum > 10


def test_wrap_golden_activations_and_membranes_wrap():
    # The fixture is only worth freezing if the datapath wraps: count the
    # activation sums, and the membrane updates vmem - leak + drive of
    # neurons not held, whose exact integer value leaves the Q5.3 range.
    data, weights, stimulus = load(WRAPPING)
    lo, hi = Q5_3.min_raw, Q5_3.max_raw
    spikes = [np.array([unbits(c["spikes"][k]) for c in data["cycles"]]) for k in range(2)]
    vmem = [np.array([[QWord.from_literal(x).raw for x in c["vmem"][k].split()]
                      for c in data["cycles"]]) for k in range(2)]
    act_wraps = membrane_wraps = 0
    for k, (w, regs) in enumerate(zip(weights, WRAPPING.registers)):
        upstream = stimulus if k == 0 else spikes[k - 1]
        decay, growth = (round(x / Q5_3.quantum) for x in (regs.decay_rate, regs.growth_rate))
        prev = np.zeros(w.shape[1], dtype=np.int64)
        for t, row in enumerate(upstream):
            total = w[np.flatnonzero(row)].sum(axis=0)
            act_wraps += int(np.sum((total < lo) | (total > hi)))
            update = prev - mul_raw(decay, prev, Q5_3) + mul_raw(growth, wrap_raw(total, Q5_3),
                                                                  Q5_3)
            held = spikes[k][max(t - regs.refractory_period, 0):t].any(axis=0)
            membrane_wraps += int(np.sum(~held & ((update < lo) | (update > hi))))
            prev = vmem[k][t]
    assert act_wraps > 100
    assert membrane_wraps > 50


def record(case: Case) -> dict:
    weights, stimulus = case.draw(np.random.default_rng(case.seed))
    return {
        "format": str(case.fmt),
        "policy": case.policy.value,
        "sizes": list(SIZES),
        "seed": case.seed,
        "weights": [[" ".join(QWord(case.fmt, int(x)).to_literal() for x in row) for row in w]
                    for w in weights],
        "stimulus": [bits(row) for row in stimulus],
        "cycles": replay(case, weights, stimulus),
    }


if __name__ == "__main__":
    for name in sys.argv[1:]:
        case = CASES[name]
        case.path.parent.mkdir(exist_ok=True)
        case.path.write_text(json.dumps(record(case), indent=1) + "\n")
        print(f"wrote {case.path}")
