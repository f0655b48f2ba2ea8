"""The no-overflow certificate, `Core.certified`: which layers of the bench
networks it proves, that it is sound on drawn networks through both drivers,
that it holds only for a run and sees every write of the planes, and its
scope.  `certificate_search.py` checks its soundness exhaustively on small
formats, and `test_mutants.py` holds its mutants, a `raw` write between two
runs among them."""

import functools
import sys
from dataclasses import replace
from pathlib import Path

import harness
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikecore.core import Core, CoreConfig, RealRegisters
from spikecore.fixedpoint import Q5_3, fit_raw
from spikecore.neuron import ResetMode
from spikecore.reference import ReferenceCore
from spikecore.topology import Connectivity

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import workloads  # noqa: E402

# Decay 1, growth 1, threshold max_value, reset by subtraction: in Q5.3 a
# membrane is its cycle's activation until it reaches max_value.
LEAKY = RealRegisters(decay_rate=1.0, growth_rate=1.0, v_threshold=Q5_3.max_value)


def one_layer(plane, regs=LEAKY):
    """A Q5.3 WRAP core of one layer that holds the raw `plane`, a nested list."""
    return harness.loaded(CoreConfig.uniform(Q5_3, np.shape(plane), regs), [plane])


@pytest.mark.parametrize("name, want", [
    ("mlp256_wrap", [True, True]),        # updates within [-59.7, 104.8] in [-256, 256)
    ("deep1024_wrap", [True, True, True]),
    ("qerr256_saturate", [False, False]),  # bounds near [-312, 407] against [-16, 16)
])
def test_which_layers_of_the_bench_networks_certify(name, want):
    # The certificate's fast path runs on the WRAP workloads and not on
    # qerr256_saturate, which means to saturate.
    wl = workloads.WORKLOADS[name]
    core, _ = workloads.build(wl, workloads.network_weights(wl))
    assert [core.certified(k) for k in range(core.cfg.n_layers)] == want


def test_a_run_skips_the_fit_of_a_certified_layer_and_a_step_cycle_does_not(monkeypatch):
    # Layer 0 (two lines of 1.0) certifies, layer 1 (growth 0.5) does not.
    cfg = CoreConfig(Q5_3, (2, 1, 1), (Connectivity("all"),) * 2,
                     (LEAKY, replace(LEAKY, growth_rate=0.5)))
    core = harness.loaded(cfg, [np.full((2, 1), 8), np.full((1, 1), 8)])
    assert [core.certified(0), core.certified(1)] == [True, False]
    calls, fit = [], Core._fit
    monkeypatch.setattr(Core, "_fit", lambda self, x: calls.append(x) or fit(self, x))
    stimulus = np.ones((3, 2), dtype=bool)
    core.run_sample(stimulus, 3)
    assert len(calls) == 2 * 3  # layer 1's drive and membrane, each cycle
    calls.clear()
    core.run_batch([stimulus], 3)
    assert len(calls) == 1 + 3  # layer 1's drive over the raster, then its membrane
    calls.clear()
    core.step_cycle(stimulus[0])
    assert len(calls) == 3


@pytest.mark.parametrize("change", [
    {"growth_rate": 0.5}, {"decay_rate": 0.0}, {"v_threshold": -1.0},
    {"reset_mode": ResetMode.DEFAULT}, {"reset_mode": ResetMode.TO_ZERO},
    {"reset_mode": ResetMode.TO_CONSTANT, "v_reset": 1.0},
])
def test_a_layer_outside_the_certificates_scope_is_never_certified(change):
    core = one_layer([[0]], regs=replace(LEAKY, **change))
    assert core.certified(0) is False
    assert one_layer([[0]]).certified(0) is True


def test_the_certificate_reads_the_registers_and_planes_as_they_are_now():
    # Two lines of 1.0 sum to 16 raw; with decay 1 the update bound is
    # hi + 1 <= max_raw = 127, so 63 + 63 certifies and 63 + 64 does not.
    core = one_layer([[8], [8]])
    assert core.certified(0)
    core.write_weight(0, 0, 0, 63 / 8)
    core.write_weight(0, 1, 0, 63 / 8)
    assert core.certified(0)
    core.write_weight(0, 1, 0, 8.0)
    assert not core.certified(0)
    core.planes[0].raw[1, 0] = 63
    assert core.certified(0)
    core.write_register(0, "reset_mode", "zero")
    assert not core.certified(0)
    with pytest.raises(IndexError, match="layer 1"):
        core.certified(1)


def test_a_raw_array_held_across_a_run_is_read_only_until_fetched_again():
    core = one_layer([[8], [8]])
    held = core.planes[0].raw
    core.run_sample(np.ones((1, 2), dtype=bool), 1)
    with pytest.raises(ValueError, match="read-only"):
        held[0, 0] = 100
    core.planes[0].raw[0, 0] = 120  # 120 + 8 > 126: no longer certified
    assert held[0, 0] == 120 and not core.certified(0)


def test_a_twin_certifies_nothing_and_leaves_its_planes_writable():
    twin = ReferenceCore(one_layer([[8], [8]]))
    held = twin.planes[0].raw
    twin.run_sample(np.ones((1, 2), dtype=bool), 1)
    assert twin.certified(0) is False
    held[0, 0] = 100


@functools.cache
def certifiable_registers(fmt):
    """A register file of the certificate's scope, decay drawn over its raw
    range, or one of `harness.drawn_registers`; `aimed` redraws the threshold."""
    scoped = st.builds(
        RealRegisters,
        decay_rate=harness.raw_values(fmt, 1, min(fmt.max_raw, 1 << fmt.q)),
        growth_rate=st.just(1.0),
        v_threshold=st.just(0.0),
        refractory_period=st.integers(0, 3),
    )
    return scoped | scoped | harness.drawn_registers(fmt)


def shrunk_weights(rng, fmt, shape):
    """Half the planes: raw words uniform over the range shifted right by 0 to
    w - 1 bits, so that small planes, which certify, are drawn as often as
    large ones.  The other half: words in [0, max_raw // M], whose column sums
    stay in range and can come near its top.  A layer of decay d certifies
    only if no column's negative words pass d x min_raw, so only a plane with
    few of them drives a slowly leaking membrane to the bound."""
    if rng.random() < 0.5:
        return rng.integers(0, fmt.max_raw // shape[0], shape, endpoint=True)
    shift = int(rng.integers(fmt.width))
    return rng.integers(fmt.min_raw >> shift, fmt.max_raw >> shift, shape, endpoint=True)


@st.composite
def aimed(draw, nets):
    """A network of `nets` with each layer's v_threshold redrawn from [0, A+],
    A+ its plane's largest positive column sum (at most max_raw).  A column's
    activations can then pass the threshold, and a reset by subtraction
    leaves u - v_threshold, which can exceed it and build up under the leak."""
    cfg, planes, stream = draw(nets)
    regs = []
    for real, plane in zip(cfg.registers, planes):
        top = min(int(np.maximum(plane, 0).sum(axis=0).max()), cfg.fmt.max_raw)
        regs.append(replace(real, v_threshold=draw(harness.raw_values(cfg.fmt, 0, top))))
    return replace(cfg, registers=tuple(regs)), planes, stream


# About two examples in five certify at least one layer; about two in three
# certified layers spike, so that their resets run.
CERTIFIABLE = aimed(harness.networks(harness.FORMATS, certifiable_registers, shrunk_weights,
                                     max_cycles=12))


def updates_in_range(core, planes, stream, spikes, vmem):
    """Per layer, whether `harness.recount`'s membrane updates of a run, before
    their fit, are all their own fit: no fit could change them."""
    fmt, cfg = core.cfg.fmt, core.cfg
    raw = [np.rint(v * (1 << fmt.q)).astype(np.int64) for v in vmem]
    return [np.array_equal(fit_raw(update, fmt, cfg.policy), update)
            for _, _, update, _ in harness.recount(cfg, planes, stream, spikes, raw)]


@given(net=CERTIFIABLE)
@settings(max_examples=200, deadline=None)
def test_a_certified_layer_needs_no_membrane_fit_through_either_driver(net):
    cfg, planes, stream = net
    core = harness.loaded(cfg, planes)
    sure = [core.certified(k) for k in range(cfg.n_layers)]
    runs = [harness.sampled_run(core, stream), harness.batch_row_run(core, stream)]
    for spikes, vmem in runs:
        fits = updates_in_range(core, planes, stream, spikes, vmem)
        assert all(fit for fit, certified in zip(fits, sure) if certified)
    assert harness.sampled(harness.loaded(cfg, planes), stream) == []
