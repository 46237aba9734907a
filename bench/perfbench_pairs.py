"""Alternating parent/change pairs of perfbench runs, summarised into a BENCH file.

    python bench/perfbench_pairs.py --parent <checkout> --workload collapse-d1024 \\
        --pairs 10 --seed 100 [--seconds 22] [--out BENCH_2.json]

``<checkout>`` is a second checkout of the commit to compare against (for
example made with ``git archive``); the change side is the current
directory. Pair i runs ``perfbench/run.py --workload W --seed (seed + i)
--trace 0`` once on each side, in each side's own directory, with the
parent first on even pairs and the change first on odd ones. For every
end-to-end metric of BENCHMARK.json the summary gives each side's median
and quartiles over the pairs, the pairs the change won (ties count for
neither side), and the failed checks. The per-pair values are kept too.
The result goes under ``perfbench.<workload>`` in the output file; other
keys already in it are kept.

Each side runs with its own bytecode cache, ``PYTHONPYCACHEPREFIX`` set to
``.perfbench_out/pycache`` in that side's directory, so a ``__pycache__``
left in one tree cannot make that side start faster. The sides write that
cache even when ``PYTHONDONTWRITEBYTECODE`` is inherited: the prefix hides
every other cache, numpy's included, so without writing, each child would
compile numpy from source (about 0.5 s of CPU and 3.5 MB of peak RSS per
start on a 2-core VM). Both sides then start from warm caches of their own,
so ``setup_s`` and ``peak_rss_mb`` leave out compiling zoptim. The file's
``machine`` facts record the prefix and the inherited
``PYTHONDONTWRITEBYTECODE``.

With ``--traced`` it instead runs ``--trace 1`` once per side (parent first)
with seed ``--seed`` and stores both sides' per-layer metrics under
``perfbench_traced.<workload>``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

PYCACHE = os.path.join(".perfbench_out", "pycache")


def run_side(cwd, workload, seed, seconds, trace=0):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    env = {**os.environ, "PYTHONPYCACHEPREFIX": os.path.join(cwd, PYCACHE)}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    proc = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
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
        for side in ("parent", "change"):
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

    with open("BENCHMARK.json") as fh:
        metrics = json.load(fh)["end_to_end"]
    sides = {"parent": os.path.abspath(args.parent), "change": os.getcwd()}
    if args.traced:
        store(args.out, "perfbench_traced", args.workload, {
            "command": f"perfbench/run.py --workload {args.workload} --seed {args.seed} "
                       f"--seconds {args.seconds} --trace 1",
            **{side: run_side(root, args.workload, args.seed, args.seconds, trace=1)
               for side, root in sides.items()},
        })
        return

    runs = []
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_side(sides[side], args.workload, seed, args.seconds)
        runs.append(pair)
        print(f"pair {i} seed {seed}: wall_s parent {pair['parent']['wall_s']:.4g} "
              f"change {pair['change']['wall_s']:.4g}", file=sys.stderr, flush=True)

    store(args.out, "perfbench", args.workload, {
        "command": f"perfbench/run.py --workload {args.workload} --seconds {args.seconds} "
                   "--trace 0",
        "seeds": [r["seed"] for r in runs],
        "failed": {side: sum(r[side]["failed"] for r in runs) for side in sides},
        "summary": summarise(runs, metrics),
        "pairs": runs,
    })


def store(path, key, workload, result):
    """Put result under key.workload in the JSON file at path, with the bytecode
    settings of the runs among its machine facts, keeping other keys."""
    payload = {}
    if os.path.exists(path):
        with open(path) as fh:
            payload = json.load(fh)
    payload.setdefault("machine", {}).update({
        "pycache_prefix": os.path.join("<side>", PYCACHE),
        "PYTHONDONTWRITEBYTECODE_inherited": os.environ.get("PYTHONDONTWRITEBYTECODE"),
    })
    payload.setdefault(key, {})[workload] = result
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
