"""The benchmark's workloads and the closed loop that times them.

A run is: build the network and program it several times (set-up), make a
pool of input samples from the seed, run every pool sample once untimed
(the correctness gate, accuracy figures and sanity checks), one untimed
warm-up, then the timed loop.  The loop is closed: a single caller steps
one sample after another, cycling through the pool, with nothing else
running.  Every timed sample's output is compared with the gate's.
"""

from __future__ import annotations

import contextlib
import json
import resource
import statistics
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from spikecore import reference
from spikecore.core import Core, CoreConfig, RealRegisters
from spikecore.fixedpoint import Q5_3, Q9_7, SATURATE, WRAP, OverflowPolicy, QFormat

import checks
import clock
import spans

GOLDEN = Path(__file__).with_name("golden.json")
GOLDEN_SEED = 0
MIN_SAMPLES = 100          # so that p90 has at least ten samples beyond it ...
STRETCH = 3                # ... if that fits in STRETCH x --seconds
MIN_TRACE_SAMPLES = 10     # per half of a traced run
SETUP_REPEATS = 9
RATES = (0.02, 0.18)       # per-line spike probability per cycle, drawn per sample
MAX_LAYERS = 3             # layer metrics are reported for layers 0..2


class WorkloadError(RuntimeError):
    """The workload does not exercise what it is meant to; nothing was timed."""


@dataclass(frozen=True)
class Workload:
    name: str
    fmt: QFormat
    policy: OverflowPolicy
    sizes: tuple[int, ...]
    threads: int
    cycles: int                  # spike-clock cycles per sample
    v_threshold: float
    gain: float                  # weights are (bias_j + N(0, 1)) * gain / sqrt(fan_in)
    bias: tuple[float, float]    # range of the per-post-neuron bias_j
    raw_planes: tuple[int, ...]  # planes written as raw payloads, not per synapse
    with_reference: bool         # each sample also runs the float twin and rmse
    pool: int                    # distinct input samples the timed loop cycles through

    def config(self) -> CoreConfig:
        regs = RealRegisters(decay_rate=0.2, growth_rate=1.0, v_threshold=self.v_threshold)
        return CoreConfig.uniform(self.fmt, self.sizes, regs, policy=self.policy)


WORKLOADS = {w.name: w for w in (
    Workload("mlp256_wrap", Q9_7, WRAP, (256, 128, 10), threads=1, cycles=100,
             v_threshold=4.0, gain=1.0, bias=(-0.5, 1.5), raw_planes=(),
             with_reference=False, pool=32),
    Workload("deep1024_wrap", Q9_7, WRAP, (1024, 1024, 1024, 10), threads=2, cycles=20,
             v_threshold=3.0, gain=1.0, bias=(-0.75, 0.75), raw_planes=(0, 1),
             with_reference=False, pool=8),
    Workload("qerr256_saturate", Q5_3, SATURATE, (256, 128, 10), threads=1, cycles=100,
             v_threshold=10.0, gain=4.0, bias=(0.0, 1.0), raw_planes=(),
             with_reference=True, pool=32),
)}


# -- inputs -------------------------------------------------------------------

def network_weights(wl: Workload) -> list[np.ndarray]:
    """Real weights per plane; fixed per workload, independent of the seed."""
    rng = np.random.default_rng(zlib.crc32(wl.name.encode()))
    planes = []
    for m, n in zip(wl.sizes[:-1], wl.sizes[1:]):
        bias = rng.uniform(*wl.bias, size=n)
        w = (bias + rng.standard_normal((m, n))) * (wl.gain / np.sqrt(m))
        if w.min() < wl.fmt.min_value or w.max() > wl.fmt.max_value:
            raise WorkloadError(f"{wl.name}: weights exceed the {wl.fmt} range")
        planes.append(w)
    return planes


def sample_stream(wl: Workload, seed: int, index: int) -> np.ndarray:
    """Rate-coded [T, N0] stimulus; each line's rate is drawn per sample."""
    rng = np.random.default_rng([seed, index])
    rates = rng.uniform(*RATES, size=wl.sizes[0])
    return rng.random((wl.cycles, wl.sizes[0])) < rates


# -- the program's calls --------------------------------------------------------

def build(wl: Workload, weights) -> tuple[Core, reference.ReferenceCore | None]:
    """Set-up: construct the core, program it, and derive its float twin."""
    core = Core(wl.config(), threads=wl.threads)
    scale = 1 << wl.fmt.q
    for k, w in enumerate(weights):
        if k in wl.raw_planes:
            core.planes[k].raw[...] = np.floor(w * scale)
        else:
            for i, row in enumerate(w.tolist()):
                for j, value in enumerate(row):
                    core.write_weight(k, i, j, value)
    ref = reference.matched_reference(core) if wl.with_reference else None
    return core, ref


def accuracy_step(core: Core, ref, stream, cycles: int):
    """Core and float twin on one sample, scored as in the paper's experiment."""
    raster, traces = core.run_sample(stream, cycles, watch="all")
    ref_raster, ref_traces = ref.run_sample(stream, cycles, watch="all")
    pair = reference.TracePair(reference.stack_traces(traces), reference.stack_traces(ref_traces))
    mismatches = sum(int(np.count_nonzero(a != b))
                     for a, b in zip(raster.layers, ref_raster.layers))
    return raster, traces, pair, reference.rmse(pair), mismatches


def timed_step(wl: Workload, core: Core, ref, stream):
    if wl.with_reference:
        return accuracy_step(core, ref, stream, wl.cycles)
    return core.run_sample(stream, wl.cycles)


def fingerprint(wl: Workload, out):
    """What must repeat exactly for a sample: digest, and the error figures."""
    if wl.with_reference:
        raster, _, pair, err, mismatches = out
        return checks.digest(raster, pair.quantized), err, mismatches
    return checks.digest(out[0])


# -- correctness gate -------------------------------------------------------------

@dataclass
class Gate:
    expected: list             # fingerprint per pool sample
    events: list[int]          # synaptic events per pool sample
    failed: int
    golden: list               # [digest, spike mismatches, rmse] per pool sample
    rmse_mean: float
    mismatch_frac: float
    layers: list[dict]         # per LIF layer: counts per cycle over the pool


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def _layer_columns(wl: Workload, k: int) -> slice:
    """Columns of layer k in a stacked watch="all" trace (keys sort by layer)."""
    start = sum(wl.sizes[1:k + 1])
    return slice(start, start + wl.sizes[k + 1])


def gate(wl: Workload, core: Core, ref, pool, seed: int) -> Gate:
    """Run every pool sample once, untimed, and check it: against the digests
    committed for the default seed, against the scalar oracle on a few
    neurons per layer, and for the conditions the workload is meant to hold."""
    golden = load_golden().get(wl.name, []) if seed == GOLDEN_SEED else []
    rng = np.random.default_rng([seed, len(pool)])
    fanout = [plane.mask.sum(axis=1) for plane in core.planes]
    weights = core.decoded_weights()
    growth = [r.growth_rate for r in core.decoded_registers()]
    counts = np.zeros((len(fanout), 3), dtype=np.int64)  # active inputs, events, spikes
    expected, events, record = [], [], []
    failed = 0
    headroom, ref_lo, ref_hi = 0.0, np.inf, -np.inf
    for i, stream in enumerate(pool):
        out = accuracy_step(core, ref, stream, wl.cycles)
        raster, traces, pair, err, mismatches = out
        expected.append(fingerprint(wl, out))
        record.append([expected[-1][0] if wl.with_reference else expected[-1], mismatches, err])
        picks = []
        for k, layer in enumerate(raster.layers):
            picks += [(k, int(np.argmax(layer.sum(axis=0)))),
                      (k, int(rng.integers(layer.shape[1])))]
        bad = checks.oracle_check(core, raster, traces, picks)
        if bad or (i < len(golden) and not _same_record(record[-1], golden[i])):
            failed += 1
        upstream = [raster.input_spikes, *raster.layers[:-1]]
        syn = [int((up @ f).sum()) for up, f in zip(upstream, fanout)]
        events.append(sum(syn))
        for k, up in enumerate(upstream):
            counts[k] += (up.sum(), syn[k], raster.layers[k].sum())
            drive = growth[k] * np.abs(up @ weights[k]).max()
            headroom = max(headroom, np.abs(pair.quantized[:, _layer_columns(wl, k)]).max() + drive)
        ref_lo = min(ref_lo, pair.reference.min())
        ref_hi = max(ref_hi, pair.reference.max())

    cells = len(pool) * wl.cycles
    layers = []
    for k, (active, syn, spikes) in enumerate(counts.tolist()):
        m, n = wl.sizes[k], wl.sizes[k + 1]
        rate = spikes / (cells * n)
        if not 0.0 < rate < 0.5:
            raise WorkloadError(f"{wl.name}: layer {k} spike rate {rate:.3f} is outside (0, 0.5)")
        layers.append({
            "input_density": active / (cells * m),
            "syn_events_per_cycle": syn / cells,
            "spikes_per_cycle": spikes / cells,
            "dense_macs_per_cycle": float(m * n),
            "useful_mac_frac": syn / (cells * m * n),
            "weight_bytes": float(core.planes[k].raw.nbytes),
        })
    if wl.policy is WRAP and headroom > wl.fmt.max_value:
        raise WorkloadError(f"{wl.name}: |vmem| + |drive| reaches {headroom:.2f}, beyond "
                            f"{wl.fmt}; the datapath may wrap")
    if wl.policy is SATURATE and wl.fmt.min_value <= ref_lo and ref_hi <= wl.fmt.max_value:
        raise WorkloadError(f"{wl.name}: the reference membrane stays inside {wl.fmt}, "
                            "so saturation is never exercised")
    return Gate(expected, events, failed, record,
                statistics.fmean(r[2] for r in record),
                sum(r[1] for r in record) / (cells * sum(wl.sizes[1:])), layers)


def _same_record(got, want) -> bool:
    # The float twin's rmse is a float reduction; allow for summation order.
    return got[:2] == want[:2] and abs(got[2] - want[2]) <= 1e-12 * abs(want[2])


# -- timing -------------------------------------------------------------------------

def timed_loop(wl: Workload, core: Core, ref, pool, g: Gate, seconds: float,
               min_samples: int, tracer: spans.Tracer):
    """Closed loop over the pool for `seconds`, longer if needed to reach
    `min_samples` (both in wall seconds); returns per-sample host seconds
    at the reference speed and raw CPU seconds (see clock.py), failures and
    synaptic events.  Only the program's calls are inside the timer."""
    timer, failed, events = clock.Timer(), 0, 0
    start = time.perf_counter()
    while (elapsed := time.perf_counter() - start) < seconds or (
            len(timer.raw) < min_samples and elapsed < STRETCH * seconds):
        p = len(timer.raw) % len(pool)
        out = timer(timed_step, wl, core, ref, pool[p])
        tracer.flush()
        failed += fingerprint(wl, out) != g.expected[p]
        events += g.events[p]
    return timer.scaled(), timer.raw, failed, events


def _instrumented(tracer, on: bool):
    return spans.instrument(tracer) if on else contextlib.nullcontext()


@dataclass
class Result:
    metrics: dict              # name -> (value, unit)
    attempted: int
    failed: int
    samples: int               # timed samples behind the timing metrics
    golden: list
    cpu: dict                  # raw CPU-time medians, printed beside the result


def run(name: str, seed: int, seconds: float, trace: bool) -> Result:
    wl = WORKLOADS[name]
    weights = network_weights(wl)
    pool = [sample_stream(wl, seed, i) for i in range(wl.pool)]
    tracer = spans.Tracer()
    setup = clock.Timer()
    with _instrumented(tracer, trace):
        for r in range(SETUP_REPEATS):
            if r:
                core.close()
                del core, ref
            core, ref = setup(build, wl, weights)
            tracer.flush()
    try:
        with _instrumented(tracer, trace):
            tracer.begin("check")
            g = gate(wl, core, ref or reference.matched_reference(core), pool, seed)
            failed = g.failed + (fingerprint(wl, timed_step(wl, core, ref, pool[0]))
                                 != g.expected[0])
        attempted = len(pool) + 1  # the gate's samples and the warm-up
        if not trace:
            times, raw, loop_failed, events = timed_loop(wl, core, ref, pool, g, seconds,
                                                         MIN_SAMPLES, tracer)
            metrics = end_to_end(times, events, setup.scaled(), g)
        else:
            plain, _, loop_failed, _ = timed_loop(wl, core, ref, pool, g, seconds / 2,
                                                  MIN_TRACE_SAMPLES, tracer)
            attempted += len(plain)
            with spans.instrument(tracer):
                tracer.begin("loop")
                times, raw, traced_failed, _ = timed_loop(wl, core, ref, pool, g,
                                                          seconds / 2, MIN_TRACE_SAMPLES,
                                                          tracer)
            loop_failed += traced_failed
            overhead = statistics.median(times) / statistics.median(plain) - 1.0
            metrics = per_layer(tracer, g, len(times) * wl.cycles, overhead)
    finally:
        core.close()
    cpu = {"sample_ms_p50": statistics.median(raw) * 1e3,
           "setup_s": statistics.median(setup.raw)}
    return Result(metrics, attempted + len(times), failed + loop_failed, len(times),
                  g.golden, cpu)


# -- metrics ------------------------------------------------------------------------

def end_to_end(times, events: int, setup_s, g: Gate) -> dict:
    busy = sum(times)
    return {
        "samples_per_s": (len(times) / busy, "1/s"),
        "sample_ms_p50": (statistics.median(times) * 1e3, "ms"),
        "sample_ms_p90": (float(np.percentile(times, 90)) * 1e3, "ms"),
        "syn_events_per_s": (events / busy, "1/s"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "rmse_mean": (g.rmse_mean, "mV"),
        "spike_mismatch_frac": (g.mismatch_frac, "frac"),
    }


def per_layer(tracer: spans.Tracer, g: Gate, loop_cycles: int,
              overhead: float) -> dict:
    loop, setup = ("loop",), ("setup",)

    def per_call(name, phases=None, scale=1e6):
        calls, total, _ = tracer.get(name, phases)
        return total / calls * scale if calls else 0.0

    m = {}
    for name in ("core.step_cycle", "core.run_sample"):
        m[f"{name}.self_us_per_cycle"] = (tracer.get(name, loop)[2] / loop_cycles * 1e6, "us/cycle")
    for fn in ("add_raw", "sub_raw", "mul_raw", "fit_raw"):
        calls, total, _ = tracer.get(f"fixedpoint.{fn}", loop)
        m[f"fixedpoint.{fn}.calls_per_cycle"] = (calls / loop_cycles, "calls/cycle")
        m[f"fixedpoint.{fn}.us_per_cycle"] = (total / loop_cycles * 1e6, "us/cycle")
    m["core.write_weight.us_per_call"] = (per_call("core.write_weight", setup), "us/call")
    m["topology.WeightMemory.write.us_per_call"] = (
        per_call("topology.WeightMemory.write", setup), "us/call")
    m["fixedpoint.encode_raw.calls"] = (
        tracer.get("fixedpoint.encode_raw", setup)[0] / SETUP_REPEATS, "calls")
    m["topology.build_mask.s"] = (tracer.get("topology.build_mask", setup)[1] / SETUP_REPEATS, "s")
    m["core.Core.ctor_s"] = (per_call("core.Core.ctor", setup, 1.0), "s")
    # The float twin runs in the timed loop only on qerr; elsewhere these
    # figures come from the correctness gate, which runs it on every workload.
    ref_cycles = tracer.get("reference.ReferenceCore.step_cycle")[0]
    m["reference.ReferenceCore.run_sample.self_us_per_cycle"] = (
        tracer.get("reference.ReferenceCore.run_sample")[2] / max(ref_cycles, 1) * 1e6, "us/cycle")
    m["reference.ReferenceCore.step_cycle.us_per_cycle"] = (
        per_call("reference.ReferenceCore.step_cycle"), "us/cycle")
    m["reference.stack_traces.us_per_call"] = (per_call("reference.stack_traces"), "us/call")
    m["reference.rmse.us_per_call"] = (per_call("reference.rmse"), "us/call")
    m["reference.matched_reference.s"] = (per_call("reference.matched_reference", None, 1.0), "s")
    units = {"input_density": "frac", "syn_events_per_cycle": "events/cycle",
             "spikes_per_cycle": "spikes/cycle", "dense_macs_per_cycle": "macs/cycle",
             "useful_mac_frac": "frac", "weight_bytes": "bytes"}
    for k in range(MAX_LAYERS):
        # A network with fewer LIF layers reports 0 for the missing ones.
        stats = g.layers[k] if k < len(g.layers) else dict.fromkeys(units, 0.0)
        for key, unit in units.items():
            m[f"core.layer{k}.{key}"] = (stats[key], unit)
    m["trace.overhead_frac"] = (overhead, "frac")
    return m
