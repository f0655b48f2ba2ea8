"""Frozen golden trace: a wide-input SATURATE core replayed bit for bit.

`golden/saturate_q53_64_16_4.json` holds the weights and a 40-cycle
stimulus of the 64-16-4 Q5.3 SATURATE core configured below and, per
cycle, its spike
raster (one bit string per layer) and every membrane as a
`QWord.to_literal` hex string (one space-separated line per layer).  The
weights are large enough that activation sums clamp part way and then come
back, so the file pins the order-sensitive saturating accumulation
independently of both the vectorized kernel and the scalar oracle.

Regenerate (only on purpose: the point of the file is that it does not
move) with `PYTHONPATH=src python tests/test_golden.py`.
"""

import json
from pathlib import Path

import numpy as np

from spikecore.core import Core, CoreConfig, RealRegisters
from spikecore.fixedpoint import SATURATE, Q5_3, QWord, add_raw, saturate_raw
from spikecore.neuron import ResetMode
from spikecore.topology import Connectivity, ConnectivityKind

GOLDEN = Path(__file__).parent / "golden" / "saturate_q53_64_16_4.json"
SIZES = (64, 16, 4)
CYCLES = 40
SEED = 20240402
REGISTERS = (
    RealRegisters(decay_rate=0.25, growth_rate=1.0, v_threshold=6.0,
                  reset_mode=ResetMode.BY_SUBTRACTION, refractory_period=1),
    RealRegisters(decay_rate=0.125, growth_rate=0.5, v_threshold=3.0,
                  reset_mode=ResetMode.TO_CONSTANT, v_reset=-2.0),
)


def golden_config() -> CoreConfig:
    return CoreConfig(Q5_3, SIZES, (Connectivity(ConnectivityKind.ALL_TO_ALL),) * 2,
                      REGISTERS, policy=SATURATE)


def bits(row) -> str:
    return "".join("1" if b else "0" for b in row)


def unbits(text: str) -> list[bool]:
    return [c == "1" for c in text]


def literal(value: float) -> str:
    return QWord(Q5_3, round(value / Q5_3.quantum)).to_literal()


def replay(weights, stimulus):
    """Per-cycle (spike bit strings, membrane literals) of the golden core."""
    with Core(golden_config()) as core:
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


def load():
    data = json.loads(GOLDEN.read_text())
    weights = [np.array([[QWord.from_literal(x).raw for x in row.split()] for row in plane])
               for plane in data["weights"]]
    stimulus = np.array([unbits(row) for row in data["stimulus"]])
    return data, weights, stimulus


def test_golden_trace_replays_bit_for_bit():
    data, weights, stimulus = load()
    assert (data["format"], data["policy"], tuple(data["sizes"])) == ("Q5.3", "saturate", SIZES)
    got = replay(weights, stimulus)
    assert len(got) == len(data["cycles"]) == CYCLES
    for t, (g, want) in enumerate(zip(got, data["cycles"])):
        assert g == want, f"cycle {t}"


def test_golden_sums_clamp_mid_sum():
    # The fixture is only worth freezing if some layer-0 sums saturate and
    # then come back: there the ordered sum differs from clamp(plain sum).
    _, weights, stimulus = load()
    w = weights[0]
    differs = 0
    for row in stimulus:
        active = w[np.flatnonzero(row)]
        acc = np.zeros(w.shape[1], dtype=np.int64)
        for r in active:
            acc = add_raw(acc, r, Q5_3, SATURATE)
        differs += int(np.sum(acc != saturate_raw(active.sum(axis=0), Q5_3)))
    assert differs > 100


def record() -> dict:
    rng = np.random.default_rng(SEED)
    weights = [rng.integers(-64, 64, (m, n), endpoint=True)  # +-8.0 in Q5.3
               for m, n in zip(SIZES[:-1], SIZES[1:])]
    stimulus = rng.random((CYCLES, SIZES[0])) < 0.3
    return {
        "format": str(Q5_3),
        "policy": SATURATE.value,
        "sizes": list(SIZES),
        "seed": SEED,
        "weights": [[" ".join(QWord(Q5_3, int(x)).to_literal() for x in row) for row in w]
                    for w in weights],
        "stimulus": [bits(row) for row in stimulus],
        "cycles": replay(weights, stimulus),
    }


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(record(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
