"""Per-call cost of the prefix-cached grouped chain evaluation, parent vs change.

    python bench/chain_eval_micro.py --parent <checkout> \\
        [--p 8 --q 4 --width 16] [--rounds 6] [--repeats 7] [--out BENCH_11.json]

``<checkout>`` is a second checkout of the commit to compare against; each
round runs one child per tree as ``bench/ab.py`` sets out. A child times
``efficient_grouped_eval`` on one chain of p blocks of one width, one start
and one (q, d) direction block drawn before the clock starts, so the time is
the evaluation alone. It reports the mean per-call time of each of
``--repeats`` repeats and a digest of the (q, p) scalars. Per side the summary
gives the minimum over every repeat of every round and the median of the
round medians; the digests must agree. The result goes under
``chain_eval_micro`` in the output file.
"""

import argparse
import hashlib
import json
import statistics
import sys

import ab


def child(args):
    """Time the evaluation on the zoptim found on sys.path; print one JSON line."""
    import numpy as np

    from zoptim import LayeredChain, PerturbationSpec, efficient_grouped_eval, step_directions

    chain = LayeredChain(args.p, args.width, seed=0)
    spec = PerturbationSpec(distribution="gaussian", epsilon=1e-4, base_seed=1)
    x = np.random.default_rng(0).standard_normal(chain.d) * 0.1
    dirs = step_directions(spec, 0, args.q, chain.d)

    def call():
        return efficient_grouped_eval(chain, x, spec, args.q, 0, None, dirs)

    digest = hashlib.sha256(call().tobytes()).hexdigest()
    number = ab.calibrate(lambda n: ab.timed(call, n))
    us = [ab.timed(call, number) / number * 1e6 for _ in range(args.repeats)]
    print(json.dumps({"d": chain.d, "calls_per_repeat": number, "us": us, "digest": digest}))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", help="checkout of the commit to compare against")
    parser.add_argument("--p", type=int, default=8)
    parser.add_argument("--q", type=int, default=4)
    parser.add_argument("--width", type=int, default=16)
    parser.add_argument("--rounds", type=int, default=6)
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--out", default="BENCH_11.json")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        child(args)
        return
    if args.parent is None:
        parser.error("--parent is required")

    trees = ab.sides(args.parent)

    def run(side, i):
        r = ab.run_json(trees[side], [__file__, "--child", "--p", str(args.p), "--q", str(args.q),
                                      "--width", str(args.width), "--repeats", str(args.repeats)])
        print(f"round {i} {side}: min us {min(r['us']):.1f}", file=sys.stderr, flush=True)
        return r

    rounds = ab.alternate(args.rounds, run)
    digests = {r["digest"] for runs in rounds.values() for r in runs}
    if len(digests) != 1:
        raise SystemExit(f"the scalars differ between the trees: {sorted(digests)}")
    summary = {
        side: {"us_min": min(min(r["us"]) for r in runs),
               "us_median_of_round_medians": statistics.median(
                   statistics.median(r["us"]) for r in runs),
               "rounds_us": [r["us"] for r in runs]}
        for side, runs in rounds.items()
    }
    result = {"p": args.p, "q": args.q, "width": args.width, "d": rounds["change"][0]["d"],
              "rounds": args.rounds, "repeats": args.repeats, "scalars_identical": True,
              **summary,
              "speedup_min": summary["parent"]["us_min"] / summary["change"]["us_min"]}
    print(json.dumps({k: v for k, v in result.items() if k not in ab.SIDES}))
    ab.merge(args.out, result, "chain_eval_micro")


if __name__ == "__main__":
    main()
