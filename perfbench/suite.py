#!/usr/bin/env python3
"""Run every workload untraced and traced, one process at a time, and print
every metric with its unit, the failed-operation ratio, the tracing
overhead and each layer's share of the traced self time.

    python3 perfbench/suite.py --seed 1

The combined results go to ``.perfbench_out/results.json``.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from tracing import layer_self_times, overhead_report, read_jsonl

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 300


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} (trace {trace}) exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()

    results = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        plain = run_one(workload, args.seed, args.seconds, 0)
        traced = run_one(workload, args.seed, args.seconds, 1)
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
        spans = read_jsonl(ROOT / ".perfbench_out" / f"{workload}-{args.seed}-trace1" / "trace.jsonl")
        layers = layer_self_times([s for s in spans if s["name"] != "pass"])
        total = sum(seconds for seconds, _ in layers.values())
        results[workload] = {"untraced": plain, "traced": traced, "failed_op_ratio": failed / attempted}

        print(f"== {workload} (seed {args.seed}, {args.seconds} s per run)")
        for name, m in {**plain["metrics"], **traced["metrics"]}.items():
            if m["value"] != 0:
                print(f"  {name:32s} {m['value']:14.6g} {m['unit']}")
        print(f"  {'failed_op_ratio':32s} {failed / attempted:14.6g} ({failed} of {attempted})")
        print("  " + overhead_report(plain["metrics"]["wall_s"]["value"], traced["metrics"]["trace.wall_s"]["value"]))
        print("  self time by layer, share of all wrapped calls:")
        for layer, (seconds, calls) in sorted(layers.items(), key=lambda kv: -kv[1][0]):
            print(f"    {layer:16s} {100 * seconds / total:6.2f}%  {calls} calls")

    out = ROOT / ".perfbench_out" / "results.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")
    print(f"results written to {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
