"""Output checks: sample digests and the scalar-oracle spot check."""

from __future__ import annotations

import hashlib

import numpy as np

from spikecore.neuron import NeuronState, step_neuron


def digest(raster, traces=None) -> str:
    """sha256 over every LIF layer's spikes and, if given, a [T, n] trace."""
    h = hashlib.sha256()
    for layer in raster.layers:
        h.update(np.packbits(layer).tobytes())
    if traces is not None:
        h.update(np.ascontiguousarray(traces, dtype=np.float64).tobytes())
    return h.hexdigest()


def oracle_check(core, raster, traces, picks) -> list[tuple[int, int, int]]:
    """Replay picked neurons through `neuron.step_neuron`.

    Each picked (layer, neuron) is fed from the raster's own upstream
    spikes (the stimulus for layer 0); its spike, and its membrane when
    `traces` (a (layer, neuron) -> float[T] dict) is given, must match the
    core's output on every cycle.  Returns the mismatching
    (layer, neuron, cycle) triples; the first per neuron is enough.
    """
    bad = []
    for k, j in picks:
        regs = core.registers(k)
        weights = core.planes[k].presynaptic_weights(j)
        upstream = raster.input_spikes if k == 0 else raster.layers[k - 1]
        fired = raster.layers[k][:, j]
        state = NeuronState.zero(core.fmt)
        for t, spikes in enumerate(upstream.tolist()):
            spike = step_neuron(state, regs, spikes, weights, core.policy)
            if spike != fired[t] or (traces is not None
                                     and state.vmem.value != traces[(k, j)][t]):
                bad.append((k, j, t))
                break
    return bad
