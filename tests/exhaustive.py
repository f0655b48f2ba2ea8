"""Bounded-exhaustive equivalence of the vectorized cycle and the scalar oracle in Q2.1.

A neuron's state is its (membrane, refractory counter), and one cycle is a
function of that state, its activation and its layer's register file; the
layer's `_armed` flag is state on top, False only while every counter is 0.
If one `step_cycle` of `Core` equals `neuron.step_neuron` on every such input
of a format, then by induction every run in that format does.  `mismatches`
steps, per register file and policy, a 1-input core whose neurons hold every
(membrane, activation, counter) triple, once with `_armed` True and once
False, and compares each neuron's spike, membrane and counter with the
oracle's.

The activation is the ordered fold of the active weight rows.
`fold_mismatches` checks every fold of up to 4 Q2.1 words under both
policies against `harness.fold`, through `_activation`'s row path
(`accumulate_raw` under SATURATE) and both its raster kernels, on a
4-line core whose 4096 columns hold every 4-word tuple under a raster of
every set of active lines.  The columns of one call share a certificate,
which fails for every fold of 2 words or more, so the row path also sums
each fold alone, in a 1-column core, and so does the raster product:
chunks of tuples sit on a block-diagonal plane, 4 lines and a column per
tuple, under a raster whose row (tuple, set of lines) activates only that
tuple's lines, so that the certificate of each row sees one fold.

`tests/test_conformance.py` sweeps every fold, the raster product's folds
alone of a slice of the chunks, and a reduced register grid with counters
and periods 0 and 1.  Run as a script, this sweeps every fold, each alone
through every chunk, and the full Q2.1 register grid (every decay in
[0, 1], growth, threshold, reset mode and TO_CONSTANT value) with counters
and periods 0 to 2, and exits 1 on a mismatch.

Run: PYTHONPATH=src python tests/exhaustive.py
"""

import itertools
import sys
from unittest import mock

import harness
import numpy as np

from spikecore import core as core_module
from spikecore.core import Core, CoreConfig, RealRegisters
from spikecore.fixedpoint import SATURATE, WRAP, QFormat, QWord
from spikecore.neuron import NeuronState, ResetMode, step_neuron
from spikecore.topology import Connectivity

Q2_1 = QFormat(2, 1)
WORDS = range(Q2_1.min_raw, Q2_1.max_raw + 1)  # every raw payload of Q2.1
RATES = range(0, (1 << Q2_1.q) + 1)  # the decays, rates in [0, 1]
RESETS = ((ResetMode.TO_ZERO, 0), (ResetMode.BY_SUBTRACTION, 0), (ResetMode.DEFAULT, 0),
          *((ResetMode.TO_CONSTANT, after) for after in WORDS))
ALL = Connectivity("all")
TUPLES = np.array(list(itertools.product(WORDS, repeat=4))).T  # [4, 4096]: a tuple per column
SUBSETS = np.array(list(itertools.product((False, True), repeat=4)))  # [16, 4] active lines
CHUNK = 128  # tuples per block-diagonal plane of `fold_mismatches`


def register_files(decays=RATES, growths=WORDS, thresholds=WORDS, resets=RESETS, periods=(0,)):
    """One Q2.1 register file per combination of the raw words, (mode, v_reset)
    pairs and refractory periods given."""
    q = Q2_1.quantum
    for d, g, vth, (mode, after), period in itertools.product(
            decays, growths, thresholds, resets, periods):
        yield RealRegisters(d * q, g * q, vth * q, mode, after * q, period)


def mismatches(files, counters=(0,)):
    """Every transition of one `Core` cycle that differs from the oracle's, as
    (policy, registers, armed, membrane, activation, counter) in raw words."""
    v, a, c = (x.ravel() for x in np.meshgrid(WORDS, WORDS, counters, indexing="ij"))
    states = [(vj, aj, cj) for vj in WORDS for aj in WORDS for cj in {0, *counters}]
    bad = []
    for regs, policy in itertools.product(files, (WRAP, SATURATE)):
        core = Core(CoreConfig(Q2_1, (1, len(v)), (ALL,), (regs,), policy=policy))
        core.planes[0].raw[0] = a  # neuron j's activation when the line spikes
        regs = core.registers(0)
        oracle = {}
        for vj, aj, cj in states:
            state = NeuronState(QWord(Q2_1, vj), cj)
            fired = step_neuron(state, regs, [1], [QWord(Q2_1, aj)], policy)
            oracle[vj, aj, cj] = (fired, state.vmem.raw, state.refractory_counter)
        for armed in (True, False):
            counter = c if armed else np.zeros_like(c)
            core._vmem[0], core._refr[0], core._armed[0] = v.copy(), counter.copy(), armed
            got = np.stack([core.step_cycle([1])[0], core._vmem[0], core._refr[0]], axis=1)
            want = np.array([oracle[key] for key in zip(v.tolist(), a.tolist(), counter.tolist())])
            for j in np.flatnonzero((got != want).any(axis=1)):
                bad.append((policy, regs, armed, int(v[j]), int(a[j]), int(counter[j])))
    return bad


def fold_mismatches(chunks=range(TUPLES.shape[1] // CHUNK)):
    """Every fold of `TUPLES` under `SUBSETS` that a summing path gives otherwise
    than `harness.fold`, as (policy, path, active lines, words), the raster
    product's folds alone for the given chunks of `CHUNK` tuples only.  Under
    WRAP the core's unreduced sums are compared after its `_fit`."""
    bad = []
    regs = RealRegisters(decay_rate=0.0, growth_rate=1.0, v_threshold=0.0)
    eye, own = np.eye(CHUNK, dtype=bool), np.arange(CHUNK)
    # Row (tuple j, set i) activates lines 4j + l of set i, which only column j weighs.
    raster = (eye[:, None, :, None] & SUBSETS[None, :, None, :]).reshape(-1, 4 * CHUNK)
    for policy in (WRAP, SATURATE):
        core, alone, block = (Core(CoreConfig(Q2_1, shape, (ALL,), (regs,), policy=policy))
                              for shape in ((4, TUPLES.shape[1]), (4, 1), (4 * CHUNK, CHUNK)))
        core.planes[0].raw[...] = TUPLES
        want = np.array([harness.fold(TUPLES[lines], Q2_1, policy) for lines in SUBSETS])
        paths = {"row": np.array([core._activation(0, lines) for lines in SUBSETS])}
        for gathers in (False, True):  # the raster's product, then its per-cycle gathers
            with mock.patch.object(core_module, "_gathers", lambda *shape: gathers):
                paths["gathers" if gathers else "product"] = core._activation(0, SUBSETS)
        if policy is WRAP:
            paths = {path: core._fit(got) for path, got in paths.items()}
        for path, got in paths.items():
            bad += [(policy, path, SUBSETS[i], TUPLES[:, j]) for i, j in np.argwhere(got != want)]
        for i, lines in enumerate(SUBSETS):  # each fold alone, once: its inactive words min_raw
            for j in np.flatnonzero((TUPLES[~lines] == Q2_1.min_raw).all(axis=0)):
                alone.planes[0].raw[:, 0] = TUPLES[:, j]
                got = alone._activation(0, lines)
                if (alone._fit(got) if policy is WRAP else got)[0] != want[i, j]:
                    bad.append((policy, "row alone", lines, TUPLES[:, j]))
        for c in chunks:  # each fold alone through the raster product, on a block-diagonal plane
            cols = slice(c * CHUNK, (c + 1) * CHUNK)
            plane = eye[:, None, :] * TUPLES[:, cols].T[:, :, None]  # [tuple, line, column]
            block.planes[0].raw[...] = plane.reshape(4 * CHUNK, CHUNK)
            with mock.patch.object(core_module, "_gathers", lambda *shape: False):
                got = block._activation(0, raster)
            got = (block._fit(got) if policy is WRAP else got).reshape(CHUNK, -1, CHUNK)
            bad += [(policy, "product alone", SUBSETS[i], TUPLES[:, c * CHUNK + j])
                    for j, i in np.argwhere(got[own, :, own] != want[:, cols].T)]
    return bad


def main() -> int:
    periods = counters = (0, 1, 2)
    files = list(register_files(periods=periods))
    bad = mismatches(files, counters)
    print(f"{len(files) * 2} register files x policies, {len(WORDS) ** 2 * len(counters)} "
          f"(membrane, activation, counter) states, _armed both ways: {len(bad)} mismatches")
    for policy, regs, armed, v, a, c in bad[:10]:
        print(f"MISMATCH: {policy.name} {regs} armed={armed}: membrane {v}, activation {a}, "
              f"counter {c}")
    folds = fold_mismatches()
    print(f"{TUPLES.shape[1]} 4-word tuples x {len(SUBSETS)} sets of active lines x policies, "
          f"through every summing path, and each alone: {len(folds)} fold mismatches")
    for policy, path, lines, words in folds[:10]:
        print(f"MISMATCH: {policy.name} {path}: active lines {np.flatnonzero(lines).tolist()} "
              f"of words {words.tolist()}")
    return 1 if bad or folds else 0


if __name__ == "__main__":
    sys.exit(main())
