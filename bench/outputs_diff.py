"""Differential check of `zoptim run` outputs between two source trees.

    python bench/outputs_diff.py --parent <checkout> --configs 1000 --seed 0

``<checkout>`` is a second checkout of the commit to compare against; the
change side is the tree this script lives in. A seeded generator writes
``--configs`` experiment configs over all six optimizers, both objectives
(chains of 1 to 8 blocks, with one width or one per layer), observation
noise, partitions, ``eval_every``, ``stop_at_threshold`` and step sizes up
to 1e3. Every fifth config is also
swept: without its ``eta`` and with a ``coarse_grid`` of two or three
neighbouring step sizes of the 1-5 ladder from 1e-6 to 5e2, drawn by a
second generator so that the run configs do not depend on the sweeps. One
child process per tree, run as ``bench/ab.py`` sets out, runs every config
through ``zoptim.cli.main(["run", ...])`` and every swept one through
``main(["sweep", ...])``.

Every run (config, seed) whose trace CSV bytes or ``summary.json`` entry
(without ``wall_time_s``) differ is listed with the parent's final loss and
divergence sentinel, every sweep whose ``sweep.json`` or winner trace CSVs
differ is listed with the differing files, and every config whose exit
code differs is listed too. The last line is a JSON summary;
``parent_final_off`` counts the differing runs whose parent final loss was
non-finite or above its sentinel.
"""

import argparse
import json
import math
import os
import random
import tempfile

import ab

OPTIMIZERS = ("zo-sgd", "zo-adam", "radazo", "meazo", "meazo-grouped", "fzoo")
DISTRIBUTIONS = ("gaussian", "uniform", "rademacher", "ternary")
LADDER = [float(f"{m}e{k}") for k in range(-6, 3) for m in (1, 5)]
SWEEP_EVERY = 5

# Runs every config file of a directory, in name order: a sweep config
# (named s*.json) through sweep, any other through run. An exception that
# escapes main is recorded by name instead of ending the loop.
CHILD = r"""
import json, os, sys
from zoptim import cli, harness
configs, outputs = sys.argv[1], sys.argv[2]
codes = {}
for name in sorted(os.listdir(configs)):
    out = os.path.join(outputs, name[:-5])
    command = "sweep" if name.startswith("s") else "run"
    try:
        codes[name] = cli.main([command, "--config", os.path.join(configs, name), "--out", out])
    except Exception as exc:
        codes[name] = f"uncaught {type(exc).__name__}"
print(json.dumps({"codes": codes, "factor": harness.DIVERGENCE_FACTOR}))
"""


def make_config(rng):
    """One valid experiment config; most runs are short, many diverge."""
    name = rng.choice(OPTIMIZERS)
    if rng.random() < 0.5:
        d = rng.choice((1, 4, 9, 16))
        objective = {"kind": "quadratic", "d": d, "seed": rng.randrange(4),
                     "regime": rng.choice(("heterogeneous", "homogeneous"))}
        if rng.random() < 0.3:
            objective.update(sigma=10.0 ** rng.uniform(-6, -1), noise_seed=rng.randrange(4))
        cuts = sorted(rng.sample(range(1, d), min(rng.randint(0, 2), d - 1)))
        partition = [list(r) for r in zip([0, *cuts], [*cuts, d])]
        x0 = rng.choice(({"mode": "gaussian", "scale": rng.choice((0.1, 1.0))},
                         {"mode": "equal_energy", "f0": rng.uniform(0.1, 10.0)}))
    else:
        p = rng.randint(1, 8)
        widths = (rng.randint(1, 3) if rng.random() < 0.5
                  else [rng.randint(1, 4) for _ in range(p + 1)])
        objective = {"kind": "chain", "p": p, "widths": widths, "seed": rng.randrange(4)}
        partition = f"layers:{p}"
        x0 = {"mode": "gaussian", "scale": rng.choice((0.1, 1.0))}
    grouped = name == "meazo-grouped" or (name in OPTIMIZERS[:3] and rng.random() < 0.3)
    config = {
        "objective": objective,
        "optimizer": {"name": name, "eta": 10.0 ** rng.uniform(-6, 3)},
        "T": rng.randint(1, 40),
        "q": rng.randint(2 if name == "fzoo" else 1, 3),
        "epsilon": rng.choice((1e-6, 1e-4)),
        "distribution": rng.choice(DISTRIBUTIONS),
        "seeds": rng.randint(1, 3),
        "eval_every": rng.choice((1, 1, 2, 5)),
        "threshold": rng.choice((1e-3, 1e-1, 1.0)),
        "stop_at_threshold": rng.random() < 0.3,
        "x0": x0,
    }
    if grouped:
        config["partition"] = partition
        if objective["kind"] == "chain" and rng.random() < 0.5:
            config["grouped_eval"] = "efficient"
    return config


def make_sweep(config, rng):
    """The config searched over two or three step sizes among four ladder neighbours."""
    start = rng.randrange(len(LADDER) - 3)
    grid = sorted(rng.sample(LADDER[start:start + 4], rng.randint(2, 3)))
    optimizer = {k: v for k, v in config["optimizer"].items() if k != "eta"}
    return {**config, "optimizer": optimizer, "coarse_grid": grid}


def read_outputs(directory):
    """{seed: (trace CSV bytes, summary entry text without wall_time_s, entry)}
    of one config's run; the text is compared, so NaN equals NaN."""
    runs = {}
    if not os.path.isdir(directory):
        return runs
    with open(os.path.join(directory, "summary.json")) as fh:
        for entry in json.load(fh)["runs"]:
            entry.pop("wall_time_s")
            with open(os.path.join(directory, f"trace_seed{entry['seed']}.csv"), "rb") as csv:
                runs[entry["seed"]] = (csv.read(), json.dumps(entry, sort_keys=True), entry)
    return runs


def read_files(directory):
    """{file name: bytes} of one output directory; empty if it was not made."""
    if not os.path.isdir(directory):
        return {}
    out = {}
    for name in os.listdir(directory):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the commit to compare with")
    parser.add_argument("--configs", type=int, default=1000, help="number of generated configs")
    parser.add_argument("--seed", type=int, default=0, help="seed of the config generator")
    args = parser.parse_args()

    rng, sweep_rng = random.Random(args.seed), random.Random(f"{args.seed} sweep")
    with tempfile.TemporaryDirectory() as tmp:
        configs = os.path.join(tmp, "configs")
        os.makedirs(configs)
        for i in range(args.configs):
            config = make_config(rng)
            with open(os.path.join(configs, f"c{i:05d}.json"), "w") as fh:
                json.dump(config, fh)
            if i % SWEEP_EVERY == 0:
                with open(os.path.join(configs, f"s{i:05d}.json"), "w") as fh:
                    json.dump(make_sweep(config, sweep_rng), fh)
        sides = {}
        for side, tree in ab.sides(args.parent).items():
            os.makedirs(os.path.join(tmp, side))
            sides[side] = ab.run_json(tree, ["-c", CHILD, configs, os.path.join(tmp, side)],
                                      cwd=os.path.join(tmp, side))

        factor = sides["parent"]["factor"]
        n_runs = differing = off = n_sweeps = differing_sweeps = 0
        codes_moved = {}
        for name in sorted(os.listdir(configs)):
            codes = [sides[side]["codes"][name] for side in ("parent", "change")]
            if codes[0] != codes[1]:
                key = f"{codes[0]} -> {codes[1]}"
                codes_moved[key] = codes_moved.get(key, 0) + 1
                print(f"{name}: exit code {key}")
            if name.startswith("s"):
                parent, change = (read_files(os.path.join(tmp, side, name[:-5]))
                                  for side in ("parent", "change"))
                n_sweeps += 1
                files = sorted(f for f in set(parent) | set(change)
                               if parent.get(f) != change.get(f))
                if files:
                    differing_sweeps += 1
                    print(f"{name}: {', '.join(files)} differ")
                continue
            parent, change = (read_outputs(os.path.join(tmp, side, name[:-5]))
                              for side in ("parent", "change"))
            n_runs += len(parent)
            for seed in sorted(set(parent) | set(change)):
                if seed in parent and seed in change and parent[seed][:2] == change[seed][:2]:
                    continue
                differing += 1
                what = [part for part, i in (("csv", 0), ("summary", 1))
                        if seed not in parent or seed not in change
                        or parent[seed][i] != change[seed][i]]
                entry = parent[seed][2] if seed in parent else {}
                final = entry.get("final_loss", math.nan)
                sentinel = factor * max(entry.get("initial_loss", math.nan), 1e-300)
                final_off = bool(entry) and (not math.isfinite(final) or final > sentinel)
                off += final_off
                print(f"{name} seed {seed}: {'+'.join(what)} differ; parent final_loss "
                      f"{final!r}, sentinel {sentinel!r}, off {final_off}")
    print(json.dumps({"configs": args.configs, "seed": args.seed, "parent_runs": n_runs,
                      "differing_runs": differing, "parent_final_off": off,
                      "sweeps": n_sweeps, "differing_sweeps": differing_sweeps,
                      "exit_codes_moved": codes_moved}))


if __name__ == "__main__":
    main()
