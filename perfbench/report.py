"""Run every workload and print the benchmark's report.

    python3 perfbench/report.py [--runs 5] [--seconds 22] [--workload NAME ...]

Run from the root of a checkout. Each workload gets ``--runs`` untraced runs
of ``perfbench/run.py`` (seeds 1..runs) and one traced run (seed 1). The
report has one row per workload and end-to-end metric with the median,
quartiles and sample count over the runs, the output checks as failed_frac,
and the traced run's per-layer table beside it with the tracing overhead.
It is also written to ``.perfbench_out/report.json``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import OUT, quartiles  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def bench(workload, seed, seconds, trace):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description="zoptim benchmark report")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=22)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    names = args.workload or list(WORKLOADS)

    report = {}
    for name in names:
        runs = [bench(name, seed, args.seconds, 0) for seed in range(1, args.runs + 1)]
        traced = bench(name, 1, args.seconds, 1)
        attempted = sum(r["attempted"] for r in runs) + traced["attempted"]
        failed = sum(r["failed"] for r in runs) + traced["failed"]
        rows = {}
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, q3 = quartiles(values)
            rows[metric] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                            "n": len(values), "unit": runs[0]["metrics"][metric]["unit"]}
        report[name] = {"end_to_end": rows, "failed_frac": failed / attempted,
                        "attempted": attempted, "per_layer": traced["metrics"]}

    print(f"end to end: median [q1, q3] over n runs of {args.seconds:g} s, untraced")
    for name in names:
        r = report[name]
        print(f"\n{name}  failed_frac {r['failed_frac']:.4g} of {r['attempted']} checks")
        for metric, row in r["end_to_end"].items():
            print(f"  {metric:<24} {row['median']:>12.6g}  [{row['q1']:.6g}, {row['q3']:.6g}]"
                  f"  n={row['n']}  {row['unit']}")
    print("\nper layer: one traced run per workload; "
          "trace.overhead_frac = traced / untraced wall - 1")
    print(f"  {'metric':<36}" + "".join(f"{name:>16}" for name in names) + "  unit")
    for metric, first in report[names[0]]["per_layer"].items():
        cells = "".join(f"{report[name]['per_layer'][metric]['value']:>16.6g}" for name in names)
        print(f"  {metric:<36}{cells}  {first['unit']}")
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "report.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
