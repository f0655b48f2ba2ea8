"""Tests of the benchmark's own machinery (not of spikecore)."""

import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import clock  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_self_times_on_hand_built_span_tree():
    root = spans.Span("run", 0.0, 10.0)
    a = spans.Span("a", 1.0, 4.0, root)
    b = spans.Span("b", 3.0, 6.0, root)      # overlaps a, as a second worker would
    leaf = spans.Span("leaf", 2.0, 3.0, a)
    late = spans.Span("late", 9.0, 12.0, root)  # runs past its parent's end
    assert spans.self_times([root, a, b, leaf, late]) == [
        10.0 - (6.0 - 1.0) - (10.0 - 9.0), 3.0 - 1.0, 3.0, 1.0, 3.0]


def test_tracer_flush_accumulates_per_phase():
    tracer = spans.Tracer()
    outer = tracer.wrap("outer", lambda: inner())
    inner = tracer.wrap("inner", lambda: None)
    outer()
    outer()
    tracer.flush()
    calls, total, own = tracer.get("outer")
    assert calls == 2 and 0.0 <= own <= total
    assert tracer.get("inner", ("setup",))[0] == 2
    assert tracer.get("inner", ("loop",)) == (0, 0.0, 0.0)


def test_timer_scales_by_the_nearest_yardstick_readings(monkeypatch):
    # Yardstick readings 1, 2, 4, 3 s around three calls of 6 s each.
    ticks = iter([0, 1, 1, 7, 7, 9, 9, 15, 15, 19, 19, 25, 25, 28])
    monkeypatch.setattr(clock, "host_clock", lambda: next(ticks))
    timer = clock.Timer()
    assert [timer(lambda x: x + 1, k) for k in range(3)] == [1, 2, 3]
    assert timer.raw == [6, 6, 6] and timer.yard == [1, 2, 4, 3]
    ref = clock.REFERENCE_S
    assert timer.scaled() == [6 * ref / 2, 6 * ref / 2.5, 6 * ref / 3]


def _small(name, pool=2):
    wl = replace(workloads.WORKLOADS[name], pool=pool)
    core, ref = workloads.build(wl, workloads.network_weights(wl))
    pool = [workloads.sample_stream(wl, workloads.GOLDEN_SEED, i) for i in range(wl.pool)]
    return wl, core, ref, pool


def test_oracle_check_catches_one_flipped_spike():
    wl, core, _, pool = _small("mlp256_wrap", pool=1)
    raster, traces = core.run_sample(pool[0], wl.cycles, watch="all")
    j = int(np.argmax(raster.layers[1].sum(axis=0)))
    assert checks.oracle_check(core, raster, traces, [(0, 3), (1, j)]) == []
    t = int(np.flatnonzero(raster.layers[1][:, j])[0])
    flipped = replace(raster, layers=[a.copy() for a in raster.layers])
    flipped.layers[1][t, j] = False
    assert checks.oracle_check(core, flipped, None, [(1, j)]) == [(1, j, t)]
    assert checks.digest(flipped) != checks.digest(raster)


def test_traced_and_untraced_runs_give_identical_digests():
    wl, core, ref, pool = _small("qerr256_saturate")
    try:
        plain = workloads.gate(wl, core, ref, pool, workloads.GOLDEN_SEED)
        tracer = spans.Tracer()
        with spans.instrument(tracer):
            traced = workloads.gate(wl, core, ref, pool, workloads.GOLDEN_SEED)
            tracer.begin("loop")
            times, _, failed, _ = workloads.timed_loop(wl, core, ref, pool, plain, 0.2, 2, tracer)
    finally:
        core.close()
    assert plain.failed == traced.failed == failed == 0
    assert plain.expected == traced.expected
    assert plain.layers == traced.layers
    assert len(times) >= 2
    assert tracer.get("core.step_cycle", ("loop",))[0] == len(times) * wl.cycles
    assert "traced" not in workloads.Core.run_sample.__code__.co_name  # wrappers removed
