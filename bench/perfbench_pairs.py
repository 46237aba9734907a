"""Alternating parent/change pairs of perfbench runs, summarised into a BENCH file.

    python bench/perfbench_pairs.py --parent <checkout> --workload collapse-d1024 \\
        --pairs 10 --seed 100 [--seconds 22] [--out BENCH_2.json]

``<checkout>`` is a second checkout of the commit to compare against; the
change side is the tree this script lives in. Pair i runs
``perfbench/run.py --workload W --seed (seed + i) --trace 0`` once on each
side, in each side's own directory, as ``bench/ab.py`` sets out: the parent
first on even pairs and the change first on odd ones, and each side with its
own bytecode cache, so ``setup_s`` and ``peak_rss_mb`` leave out compiling
zoptim. For every end-to-end metric of BENCHMARK.json the summary gives each
side's median and quartiles over the pairs, the pairs the change won (ties
count for neither side), and the failed checks. The per-pair values are kept
too. The result goes under ``perfbench.<workload>`` in the output file.

With ``--traced`` it instead runs ``--trace 1`` once per side (parent first)
with seed ``--seed`` and stores both sides' per-layer metrics under
``perfbench_traced.<workload>``.
"""

import argparse
import json
import os
import statistics
import sys

import ab


def run_side(tree, workload, seed, seconds, trace=0):
    result = ab.run_json(tree, ["perfbench/run.py", "--workload", workload, "--seed", str(seed),
                                "--seconds", str(seconds), "--trace", str(trace)], cwd=tree)
    return {"failed": result["failed"], "attempted": result["attempted"],
            **{name: m["value"] for name, m in result["metrics"].items()}}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarise(runs, metrics):
    out = {}
    for metric in metrics:
        name = metric["name"]
        sign = 1 if metric["better"] == "lower" else -1
        row = {}
        for side in ab.SIDES:
            values = [r[side][name] for r in runs]
            q1, q3 = quartiles(values)
            row[side] = {"median": statistics.median(values), "q1": q1, "q3": q3}
        gains = [sign * (r["parent"][name] - r["change"][name]) for r in runs]
        parent, change = row["parent"], row["change"]
        row.update({
            "change_wins": sum(g > 0 for g in gains),
            "change_losses": sum(g < 0 for g in gains),
            "pairs": len(runs),
            "median_gap": abs(parent["median"] - change["median"]),
            "parent_iqr": parent["q3"] - parent["q1"],
            "change_vs_parent": change["median"] / parent["median"] - 1.0
            if parent["median"] else None,
            "bound": metric["bound"],
        })
        out[name] = row
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the commit to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--seconds", type=float, default=22)
    parser.add_argument("--out", default="BENCH_2.json")
    parser.add_argument("--traced", action="store_true",
                        help="one --trace 1 run per side instead of --trace 0 pairs")
    args = parser.parse_args()

    with open(os.path.join(ab.CHANGE, "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]
    trees = ab.sides(args.parent)
    if args.traced:
        ab.merge(args.out, {
            "command": f"perfbench/run.py --workload {args.workload} --seed {args.seed} "
                       f"--seconds {args.seconds} --trace 1",
            **{side: run_side(tree, args.workload, args.seed, args.seconds, trace=1)
               for side, tree in trees.items()},
        }, "perfbench_traced", args.workload)
        return

    def run(side, i):
        r = run_side(trees[side], args.workload, args.seed + i, args.seconds)
        print(f"pair {i} seed {args.seed + i} {side}: wall_s {r['wall_s']:.4g}",
              file=sys.stderr, flush=True)
        return r

    sides = ab.alternate(args.pairs, run)
    runs = [{"seed": args.seed + i, "first": ab.SIDES[i % 2], "parent": parent, "change": change}
            for i, (parent, change) in enumerate(zip(sides["parent"], sides["change"]))]
    ab.merge(args.out, {
        "command": f"perfbench/run.py --workload {args.workload} --seconds {args.seconds} "
                   "--trace 0",
        "seeds": [r["seed"] for r in runs],
        "failed": {side: sum(r[side]["failed"] for r in runs) for side in ab.SIDES},
        "summary": summarise(runs, metrics),
        "pairs": runs,
    }, "perfbench", args.workload)


if __name__ == "__main__":
    main()
