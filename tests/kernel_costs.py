"""What the two raster kernels of `core._Cycle._activation` cost on the
benchmark's networks: the dense product of a [T, M] input raster with its
[M, N] float plane, and per-cycle gathers of the active rows.

For each layer of the three bench networks, the input rasters of the pool
samples at seed 0 are summed by each kernel, forced by replacing
`core._gathers`, in alternating rounds timed with `time.process_time`.  Per
layer it prints T, M and N, the mean active (cycle, line) pairs E per raster,
the median microseconds per raster of each kernel, their ratio (gathers
over product) and how many rasters the rule sends to the gathers.  Last,
the costs fitted over every layer, minimising relative error: the
product's nanoseconds per multiply-add, and the gathers' per gathered word
and per cycle, also in multiply-adds of the product, the units of the
rule's constants.

Then what programming a plane costs, per synapse: on mlp256_wrap's layer 0,
a [256, 128] Q9.7 plane, the median nanoseconds per call of
`Core.write_weight` with each real weight, of `WeightMemory.write` with its
raw payload, and of `encode_raw` alone, in alternating rounds.  These are
the calls of the benchmark's set-up.

Run with BLAS on one thread, as the benchmark does:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/kernel_costs.py [rounds]

It times, so it is not a test: pytest does not collect it.  CI runs one
round as a smoke run, so that an edit of `harness` or `bench/workloads.py`
that breaks it shows; its figures there are not read.
"""

import os
import statistics
import sys
import time
from pathlib import Path

import harness
import numpy as np

from spikecore import core as core_module
from spikecore.fixedpoint import encode_raw

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import workloads  # noqa: E402

NETWORKS = ("mlp256_wrap", "deep1024_wrap", "qerr256_saturate")
SEED = 0


def layer_rasters(wl):
    """The core of `wl` and, per layer, the input rasters of its pool samples."""
    core, _ = workloads.build(wl, workloads.network_weights(wl))
    per_layer = [[] for _ in range(core.cfg.n_layers)]
    for i in range(wl.pool):
        stream = workloads.sample_stream(wl, SEED, i)
        raster, _ = core.run_sample(stream, wl.cycles)
        for k, rasters in enumerate(per_layer):
            rasters.append(harness.upstream(stream, raster.layers, k, core.cfg.layer_latency))
    return core, per_layer


def seconds(core, k, rasters, gathers: bool) -> float:
    """CPU seconds to sum every raster of `rasters` with one kernel forced."""
    rule = core_module._gathers
    core_module._gathers = lambda *_: gathers
    try:
        start = time.process_time()
        for raster in rasters:
            core._activation(k, raster)
        return time.process_time() - start
    finally:
        core_module._gathers = rule


def medians(core, k, rasters, rounds: int):
    """Median microseconds per raster of the product and of the gathers."""
    times = {False: [], True: []}
    for r in range(rounds):
        for gathers in (r % 2 == 0, r % 2 == 1):  # alternate which kernel runs first
            times[gathers].append(seconds(core, k, rasters, gathers))
    return [statistics.median(times[g]) / len(rasters) * 1e6 for g in (False, True)]


def fit(features, us):
    """Least-squares costs of `features` that give `us`, in relative error."""
    return np.linalg.lstsq(np.stack(features, axis=1) / us[:, None], np.ones(len(us)), rcond=None)


def main(rounds: int) -> int:
    print(f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')}  rounds={rounds}")
    print(f"{'layer':<20}{'T':>4}{'M':>6}{'N':>6}{'E':>8}{'product us':>12}{'gathers us':>12}"
          f"{'ratio':>8}  picked gathers")
    rows = []  # (T M N, E N, T, product us, gathers us)
    for name in NETWORKS:
        wl = workloads.WORKLOADS[name]
        core, per_layer = layer_rasters(wl)
        for k, rasters in enumerate(per_layer):
            (t, m), n = rasters[0].shape, core.planes[k].raw.shape[1]
            events = [int(np.count_nonzero(r)) for r in rasters]
            e = statistics.fmean(events)
            product, gathers = medians(core, k, rasters, rounds)
            picked = sum(core_module._gathers(m, n, t, ev) for ev in events)
            print(f"{name + '/' + str(k):<20}{t:>4}{m:>6}{n:>6}{e:>8.0f}{product:>12.1f}"
                  f"{gathers:>12.1f}{gathers / product:>8.3f}  {picked}/{len(rasters)}")
            rows.append((t * m * n, e * n, t, product, gathers))
    macs, words, cycles, product, gathers = np.array(rows).T
    (per_mac,), *_ = fit([macs], product)
    (per_word, per_cycle), *_ = fit([words, cycles], gathers)
    print(f"fit: product {per_mac * 1e3:.4f} ns per multiply-add; gathers "
          f"{per_word * 1e3:.4f} ns per word = {per_word / per_mac:.1f} multiply-adds, "
          f"{per_cycle:.2f} us per cycle = {per_cycle / per_mac:.0f} multiply-adds")
    write_costs(rounds)
    return 0


def write_costs(rounds: int) -> None:
    """Median ns per call of each step of programming mlp256_wrap's layer 0."""
    wl = workloads.WORKLOADS["mlp256_wrap"]
    core = core_module.Core(wl.config(), threads=wl.threads)
    reals = [(i, j, v) for i, row in enumerate(workloads.network_weights(wl)[0].tolist())
             for j, v in enumerate(row)]
    calls = {
        "Core.write_weight": (lambda i, j, v: core.write_weight(0, i, j, v), reals),
        "WeightMemory.write": (core.planes[0].write,
                               [(i, j, encode_raw(v, core.fmt)) for i, j, v in reals]),
        "encode_raw": (encode_raw, [(v, core.fmt) for _, _, v in reals]),
    }
    times = {name: [] for name in calls}
    for r in range(rounds + 1):  # round 0, untimed, touches the plane's pages first
        names = list(calls)
        for name in names[r % 3:] + names[:r % 3]:  # each runs first in turn
            call, args = calls[name]
            start = time.process_time()
            for a in args:
                call(*a)
            if r:
                times[name].append(time.process_time() - start)
    print(f"programming {wl.name}/0 ({len(reals)} synapses), ns per call: " + ", ".join(
        f"{name} {statistics.median(t) / len(reals) * 1e9:.0f}" for name, t in times.items()))


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 15))
