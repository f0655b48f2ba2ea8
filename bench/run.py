"""spikecore benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload mlp256_wrap --seed 0 --seconds 20 --trace 0

Run from the root of a source tree; the package is imported from `src/`
there and nowhere else.  `--trace 0` reports the end-to-end metrics,
`--trace 1` the per-layer ones (see bench/README.md).  The last line of
standard output is the result object; the exit code is 0 only if every
sample matched its expected output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_package() -> None:
    """Put the tree's own `src/` first on the path; refuse any other copy.

    BLAS runs on one thread unless the caller says otherwise: the loop has
    a single caller, and an idle BLAS worker spins on the CPU that the
    samples are timed on.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    src = ROOT / "src"
    if not (src / "spikecore" / "__init__.py").is_file():
        raise SystemExit(f"error: no spikecore sources under {src}")
    sys.path.insert(0, str(src))
    import spikecore

    if Path(spikecore.__file__).resolve().parent != (src / "spikecore").resolve():
        raise SystemExit(f"error: imported spikecore from {spikecore.__file__}, not {src}")


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
    }


def main(argv=None) -> int:
    load_package()
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.GOLDEN_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-golden", action="store_true",
                    help="store this run's per-sample digests as the committed "
                         "expectation (default seed only)")
    args = ap.parse_args(argv)

    try:
        res = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    except workloads.WorkloadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.write_golden:
        if args.seed != workloads.GOLDEN_SEED:
            print(f"error: golden digests are for seed {workloads.GOLDEN_SEED}", file=sys.stderr)
            return 1
        golden = workloads.load_golden()
        golden[args.workload] = res.golden
        workloads.GOLDEN.write_text("{\n" + ",\n".join(
            f" {json.dumps(name)}: [\n" + ",\n".join(f"  {json.dumps(r)}" for r in records) + "\n ]"
            for name, records in sorted(golden.items())) + "\n}\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"timed samples {res.samples}  attempted {res.attempted}  failed {res.failed}")
    for name, (value, unit) in res.metrics.items():
        print(f"  {name:<52} {value:>16.6g} {unit}")
    print("raw CPU time (not scaled to the reference speed): "
          + "  ".join(f"{k} {v:.6g}" for k, v in res.cpu.items()))
    print("env " + json.dumps(environment(), sort_keys=True))
    print(json.dumps({
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in res.metrics.items()},
    }))
    return 0 if res.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
