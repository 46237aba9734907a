"""Record the reference that the benchmark's output checks compare against.

    python3 perfbench/record_reference.py [--invocations N]

Run from the root of a checkout. Runs the first N invocations of every
workload at seed 0 inside this process, requires every output check to pass,
and writes ``perfbench/reference.json``: for each output statistic, the
median over the invocations and the relative tolerance within which the
median of a benchmark run must stay. The statistics depend on the random
streams, so the tolerances are wide enough for another draw of inputs (or
another stream design) and narrow enough to catch a changed algorithm.
"""

import argparse
import json
import os
import shutil
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from run import HERE, OUT, load_program, run_in_process  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

REFERENCE_SEED = 0

# About 1.5 times the largest deviation of a single invocation from the
# median seen at this commit, so that even a one-invocation run passes.
TOLERANCE = {
    "bcgd-sweep": {"coarse_reaching_threshold": 0.7},
    "collapse-d1024": {"zo-adam_terminal_spread": 0.75, "zo-adam_final_loss": 0.15,
                       "meazo_final_loss": 0.2},
    "chain-grouped": {"final_loss": 0.5},
    "verify": {"meazo_empirical_mean": 0.2, "zo-sgd_empirical_mean": 0.1},
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--invocations", type=int, default=12)
    args = parser.parse_args(argv)
    cli = load_program()
    reference = {}
    for name, workload in WORKLOADS.items():
        values = {}
        for k in range(args.invocations):
            work = os.path.join(OUT, "reference", name, f"inv{k}")
            inv = workload.invocation(REFERENCE_SEED, k, work)
            codes, _ = run_in_process(cli, inv, "")
            outcome = workload.outcome(inv, codes)
            failed = [c for c, ok in outcome.checks if not ok]
            if failed:
                raise SystemExit(f"{name} invocation {k} failed its checks: {failed}")
            for stat, value in outcome.stats.items():
                values.setdefault(stat, []).append(value)
            shutil.rmtree(work)
        reference[name] = {
            stat: {"value": statistics.median(values[stat]), "rel_tol": tol,
                   "min": min(values[stat]), "max": max(values[stat])}
            for stat, tol in TOLERANCE[name].items()
        }
        print(name, json.dumps(reference[name]))
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump({"seed": REFERENCE_SEED, "invocations": args.invocations,
                   "workloads": reference}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
