"""Frozen golden traces: two 64-16-4 Q5.3 cores replayed bit for bit.

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

Regenerate (only on purpose: the point of the files is that they do not
move) with `PYTHONPATH=src python tests/test_golden.py {saturate,wrap}`.
"""

import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from spikecore.core import Core, CoreConfig, RealRegisters
from spikecore.fixedpoint import (
    Q5_3, SATURATE, WRAP, OverflowPolicy, QWord, add_raw, mul_raw, saturate_raw, wrap_raw,
)
from spikecore.neuron import ResetMode
from spikecore.topology import Connectivity, ConnectivityKind

SIZES = (64, 16, 4)
CYCLES = 40


@dataclass(frozen=True)
class Case:
    name: str
    policy: OverflowPolicy
    registers: tuple[RealRegisters, ...]
    seed: int

    @property
    def path(self) -> Path:
        return Path(__file__).parent / "golden" / f"{self.name}_q53_64_16_4.json"

    def config(self) -> CoreConfig:
        return CoreConfig(Q5_3, SIZES, (Connectivity(ConnectivityKind.ALL_TO_ALL),) * 2,
                          self.registers, policy=self.policy)


SATURATING = Case("saturate", SATURATE, (
    RealRegisters(decay_rate=0.25, growth_rate=1.0, v_threshold=6.0,
                  reset_mode=ResetMode.BY_SUBTRACTION, refractory_period=1),
    RealRegisters(decay_rate=0.125, growth_rate=0.5, v_threshold=3.0,
                  reset_mode=ResetMode.TO_CONSTANT, v_reset=-2.0),
), seed=20240402)

WRAPPING = Case("wrap", WRAP, (
    RealRegisters(decay_rate=0.25, growth_rate=1.0, v_threshold=6.0,
                  reset_mode=ResetMode.BY_SUBTRACTION, refractory_period=2),
    RealRegisters(decay_rate=0.125, growth_rate=0.75, v_threshold=3.0,
                  reset_mode=ResetMode.DEFAULT),
), seed=20240403)


def bits(row) -> str:
    return "".join("1" if b else "0" for b in row)


def unbits(text: str) -> list[bool]:
    return [c == "1" for c in text]


def literal(value: float) -> str:
    return QWord(Q5_3, round(value / Q5_3.quantum)).to_literal()


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
            "vmem": [" ".join(literal(traces[(k, j)][t]) for j in range(n))
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
        "Q5.3", case.policy.value, SIZES)
    got = replay(case, weights, stimulus)
    assert len(got) == len(data["cycles"]) == CYCLES
    for t, (g, want) in enumerate(zip(got, data["cycles"])):
        assert g == want, f"cycle {t}"


def test_golden_trace_replays_bit_for_bit():
    check_replay(SATURATING)


def test_wrap_golden_trace_replays_bit_for_bit():
    check_replay(WRAPPING)


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
    rng = np.random.default_rng(case.seed)
    weights = [rng.integers(-64, 64, (m, n), endpoint=True)  # +-8.0 in Q5.3
               for m, n in zip(SIZES[:-1], SIZES[1:])]
    stimulus = rng.random((CYCLES, SIZES[0])) < 0.3
    return {
        "format": str(Q5_3),
        "policy": case.policy.value,
        "sizes": list(SIZES),
        "seed": case.seed,
        "weights": [[" ".join(QWord(Q5_3, int(x)).to_literal() for x in row) for row in w]
                    for w in weights],
        "stimulus": [bits(row) for row in stimulus],
        "cycles": replay(case, weights, stimulus),
    }


if __name__ == "__main__":
    for case in (SATURATING, WRAPPING):
        if case.name in sys.argv[1:]:
            case.path.parent.mkdir(exist_ok=True)
            case.path.write_text(json.dumps(record(case), indent=1) + "\n")
            print(f"wrote {case.path}")
