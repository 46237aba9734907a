"""Per-call cost of the prefix-cached grouped chain evaluation, parent vs change.

    PYTHONPATH=src python bench/chain_eval_micro.py --parent <checkout> \\
        [--p 8 --q 4 --width 16] [--rounds 6] [--repeats 7] [--out BENCH_11.json]

``<checkout>`` is a second checkout of the commit to compare against (for
example made with ``git archive``); the change side is the tree this script
lives in. Each round starts one child process per tree, with that tree's
``src`` first on ``PYTHONPATH`` and the first side alternating. A child
times ``efficient_grouped_eval`` on one chain of p blocks of one width, one
start and one (q, d) direction block drawn before the clock starts, so the
time is the evaluation alone. It reports the mean per-call time of each of
``--repeats`` repeats and a digest of the estimate. Per side the summary
gives the minimum over every repeat of every round and the median of the
round medians; the digests must agree. The result goes under
``chain_eval_micro`` in the output file, next to the machine facts; other
keys already in the file are kept.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))
from setup_child import facts  # noqa: E402  (Python, numpy, BLAS build and thread count)

CHANGE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CHILD = r"""
import hashlib, json, sys, time
import numpy as np
from zoptim import LayeredChain, PerturbationSpec, efficient_grouped_eval, step_directions
p, q, width, repeats = map(int, sys.argv[1:5])
chain = LayeredChain(p, width, seed=0)
spec = PerturbationSpec(distribution="gaussian", epsilon=1e-4, base_seed=1)
x = np.random.default_rng(0).standard_normal(chain.d) * 0.1
dirs = step_directions(spec, 0, q, chain.d)
est, scalars = efficient_grouped_eval(chain, x, spec, q, 0, None, dirs)
digest = hashlib.sha256(est.tobytes() + scalars.tobytes()).hexdigest()
number = 1
while True:
    started = time.perf_counter()
    for _ in range(number):
        efficient_grouped_eval(chain, x, spec, q, 0, None, dirs)
    if time.perf_counter() - started > 0.05:
        break
    number *= 2
us = []
for _ in range(repeats):
    started = time.perf_counter()
    for _ in range(number):
        efficient_grouped_eval(chain, x, spec, q, 0, None, dirs)
    us.append((time.perf_counter() - started) / number * 1e6)
print(json.dumps({"d": chain.d, "calls_per_repeat": number, "us": us, "digest": digest}))
"""


def run_side(tree, args):
    env = {**os.environ, "PYTHONPATH": os.path.join(os.path.abspath(tree), "src")}
    argv = [sys.executable, "-c", CHILD, str(args.p), str(args.q), str(args.width),
            str(args.repeats)]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the commit to compare against")
    parser.add_argument("--p", type=int, default=8)
    parser.add_argument("--q", type=int, default=4)
    parser.add_argument("--width", type=int, default=16)
    parser.add_argument("--rounds", type=int, default=6)
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--out", default="BENCH_11.json")
    args = parser.parse_args()

    sides = {"parent": args.parent, "change": CHANGE}
    rounds = {side: [] for side in sides}
    for i in range(args.rounds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            rounds[side].append(run_side(sides[side], args))
        print(f"round {i}: min us parent {min(rounds['parent'][-1]['us']):.1f} "
              f"change {min(rounds['change'][-1]['us']):.1f}", file=sys.stderr, flush=True)

    digests = {r["digest"] for runs in rounds.values() for r in runs}
    if len(digests) != 1:
        raise SystemExit(f"the estimates differ between the trees: {sorted(digests)}")
    summary = {
        side: {"us_min": min(min(r["us"]) for r in runs),
               "us_median_of_round_medians": statistics.median(
                   statistics.median(r["us"]) for r in runs),
               "rounds_us": [r["us"] for r in runs]}
        for side, runs in rounds.items()
    }
    result = {"p": args.p, "q": args.q, "width": args.width, "d": rounds["change"][0]["d"],
              "rounds": args.rounds, "repeats": args.repeats, "estimates_identical": True,
              **summary,
              "speedup_min": summary["parent"]["us_min"] / summary["change"]["us_min"]}
    print(json.dumps({k: v for k, v in result.items() if k not in sides}))

    payload = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            payload = json.load(fh)
    payload["machine"] = {**{k: v for k, v in facts().items() if k != "zoptim_path"},
                          "nproc": os.cpu_count()}
    payload["chain_eval_micro"] = result
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
