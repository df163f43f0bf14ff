#!/usr/bin/env python3
"""Run one benchmark workload against the satira sources of this checkout.

    python3 perfbench/run.py --workload analysis --seed 1 --seconds 35 --trace 0

Run from the root of a checkout that holds ``src/satira``, ``lexicons/`` and
``BENCHMARK.json``. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``. A traced run also writes its spans to
``.perfbench_out/<workload>-<seed>-trace1/trace.jsonl``. Exit code 2 means
the checkout is incomplete, 1 that no pass of the workload succeeded.
"""

import argparse
import json
import os
import sys
from pathlib import Path

# BLAS threads are pinned before numpy loads; 1 <= nproc on any machine,
# and one thread keeps the timings steady on a shared host
BLAS_THREADS = 1
ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    missing = [p for p in ("src/satira/__init__.py", "lexicons", "BENCHMARK.json") if not (ROOT / p).exists()]
    if missing:
        print(f"not a satira checkout: {ROOT} lacks {', '.join(missing)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    import satira

    if Path(satira.__file__).resolve().parent != ROOT / "src" / "satira":
        print(f"imported satira from {satira.__file__}, not from this checkout", file=sys.stderr)
        return 2
    from harness import BenchmarkError, run
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    out = ROOT / ".perfbench_out" / f"{args.workload}-{args.seed}-trace{args.trace}"
    try:
        result = run(WORKLOADS[args.workload], ROOT, out, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(exc, file=sys.stderr)
        return 1
    if set(result["metrics"]) != set(units):
        print(f"metrics {sorted(result['metrics'])} do not match BENCHMARK.json {sorted(units)}", file=sys.stderr)
        return 1
    refs = ",".join(f"{kind}:{ms:.3f}" for kind, ms in result["reference_ms"].items())
    print(f"# workload={args.workload} seed={args.seed} passes={result['passes']} "
          f"reference_ms={refs} blas_threads={BLAS_THREADS} "
          f"nproc={len(os.sched_getaffinity(0))}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": result["metrics"][name], "unit": units[name]} for name in units
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
