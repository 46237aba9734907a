"""Differential check of every `zoptim` subcommand's outputs between two source trees.

    python bench/outputs_diff.py --parent <checkout> --configs 1000 --seed 0

``<checkout>`` is a second checkout of the commit to compare against; the
change side is the tree this script lives in. A seeded generator writes
``--configs`` experiment configs over all six optimizers, both objectives
(chains of 1 to 8 blocks, with one width or one per layer), observation
noise, partitions, ``eval_every``, ``stop_at_threshold`` and step sizes up
to 1e3. Every fifth config is also
swept: without its ``eta`` and with a ``coarse_grid`` of two or three
neighbouring step sizes of the 1-5 ladder from 1e-6 to 5e2, drawn by a
second generator so that the run configs do not depend on the sweeps.
Beside each run config it writes one small config of another subcommand,
in turn ``robustness`` (a sweep config of its own), ``fig2``,
``verify-moments`` and ``verify-bounds``: d <= 25, T and max_steps <= 50,
n <= 20000, each subcommand from its own generator. A third of these carry
one or two faults from a mutation generator: a value outside its field's
domain or kind, an unknown key or a missing key, at any depth. One fig2
config in twenty takes a step size of 1e200, and one moment case in twenty
a g entry near 1e200, so that inputs that overflow float64 are diffed too.
The first three run configs are also run once more each with a file-level
fault: the config path is a directory, the config is UTF-16 text with a
byte-order mark (not UTF-8), or ``--out`` is an existing file.

One child process per tree, run as ``bench/ab.py`` sets out, runs every
config through ``zoptim.cli.main`` in this process with its standard error
captured. Every config whose exit code or first standard-error line
differs is listed, and so is every config whose output files differ
(JSON files compared without ``wall_time_s``). For run configs, every
(config, seed) whose trace CSV bytes or ``summary.json`` entry differ is
listed with the parent's final loss and divergence sentinel. The last line
is a JSON summary; ``parent_final_off`` counts the differing runs whose
parent final loss was non-finite or above its sentinel.
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
OTHERS = ("robustness", "fig2", "verify-moments", "verify-bounds")
MUTATE_EVERY = 3
# Values a mutated field takes: out of most domains, or of the wrong JSON kind.
POOL = (-1, 0, 0.5, 1, 1.5, 2, 10**30, -0.1, math.nan, math.inf, "x", True, None, [], {})

FILE_FAULTS = ("config-dir", "config-utf16", "out-file")
# Share of fig2 configs whose step size overflows the iterate within a step
# or two, and of moment cases with one g entry whose square overflows float64.
BLOWUP_SHARE = 0.05
BLOWUP_ETA = 1e200

# Runs every config file of a directory, in name order, through the subcommand
# its name carries (<index>.<command>.json, or <index>.<command>.<fault>.json
# with a file fault), and records its exit code and the first line it wrote to
# standard error. An exception that escapes main is recorded by name instead
# of ending the loop. Each --out is relative to the working directory, so
# that a message naming it reads the same on both sides.
CHILD = r"""
import contextlib, io, json, os, sys
from zoptim import cli, harness
configs = sys.argv[1]
codes, messages = {}, {}
for name in sorted(os.listdir(configs)):
    command, fault = name.split(".")[1:3]
    if fault == "out-file":
        open(name[:-5], "w").close()
    err = io.StringIO()
    argv = [command, "--config", os.path.join(configs, name), "--out", name[:-5]]
    try:
        with contextlib.redirect_stderr(err):
            codes[name] = cli.main(argv)
    except Exception as exc:
        codes[name] = f"uncaught {type(exc).__name__}"
    messages[name] = (err.getvalue().splitlines() or [""])[0]
print(json.dumps({"codes": codes, "messages": messages, "factor": harness.DIVERGENCE_FACTOR}))
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


def _some(rng, fields):
    """fields with each key kept at even odds."""
    return {k: v for k, v in fields.items() if rng.random() < 0.5}


def make_fig2(rng):
    """A small collapse study; a non-square d or an optimizer without a second moment fails."""
    names = ("fo-adam", "zo-adam", "radazo", "meazo", "meazo-grouped", "zo-sgd", "fzoo")
    return {
        "dims": rng.sample((1, 4, 9, 16, 25), rng.randint(1, 3))
        + ([10] if rng.random() < 0.1 else []),
        "optimizers": rng.sample(names[:4], rng.randint(1, 3))
        + ([rng.choice(names[4:])] if rng.random() < 0.1 else []),
        "eta": BLOWUP_ETA if rng.random() < BLOWUP_SHARE else 10.0 ** rng.uniform(-4, -1),
        "max_steps": rng.randint(1, 50),
        **_some(rng, {
            "q": rng.randint(1, 4), "threshold": rng.choice((1e-3, 1e-1)),
            "beta1": rng.choice((0.0, 0.9)), "beta2": rng.choice((0.9, 0.999)),
            "zeta": rng.choice((1e-8, 1e-3)), "epsilon": rng.choice((1e-6, 1e-4)),
            "distribution": rng.choice(("gaussian", "uniform")), "x0_norm": rng.uniform(0.1, 1.0),
            "seed": rng.randrange(4), "tail": rng.randint(1, 10),
            "regime": rng.choice(("heterogeneous", "homogeneous")), "quad_seed": rng.randrange(4),
            "series": rng.random() < 0.5,
        }),
    }


def make_moments(rng):
    """One to three moment cases of d <= 25 and n <= 20000."""
    cases = []
    for _ in range(rng.randint(1, 3)):
        d = rng.randint(1, 25)
        g = [rng.gauss(0.0, 1.0) for _ in range(d)]
        if rng.random() < BLOWUP_SHARE:
            g[rng.randrange(d)] = 1e200 * rng.uniform(0.5, 2.0)
        cases.append({"g": g, **_some(rng, {
            "q": rng.randint(1, 4), "distribution": rng.choice(("gaussian", "uniform")),
            "n": rng.randint(1, 20_000), "tol": rng.choice((0.0, 0.05, 0.5)),
            "seed": rng.randrange(4)})})
    return {"cases": cases}


def make_bounds(rng):
    """A verify-bounds config of d <= 25 and T <= 50; most meet the MEAZO step-size
    condition and run, as the README's example does, and the rest exit 3 before any run."""
    d = rng.choice((1, 4, 9, 16, 25))
    beta = 0.999999985 if rng.random() < 0.8 else rng.choice((0.9, 0.999))
    return {
        "d": d, "f0": rng.uniform(0.01, 0.1), "radius": rng.uniform(0.2, 0.6),
        "meazo": {"eta": 10.0 ** rng.uniform(-5, -3), "T": rng.randint(1, 50), "beta": beta,
                  **_some(rng, {"zeta": rng.uniform(0.5, 1.0)})},
        "zosgd": {"eta": 10.0 ** rng.uniform(-5, -2), "T": rng.randint(1, 50)},
        "reduction": {"d": d, "q": rng.choice((1.0, 1e9)), "epsilon": rng.choice((1e-12, 1e-6)),
                      "L": rng.uniform(1.0, 1000.0), "sigma": rng.choice((0.0, 0.1)),
                      "eta": 10.0 ** rng.uniform(-6, -3), "T": rng.randint(1, 1000),
                      "f0": 1.0, **_some(rng, {"tol": rng.choice((1e-6, 0.5))})},
        **_some(rng, {
            "regime": rng.choice(("heterogeneous", "homogeneous")), "quad_seed": rng.randrange(4),
            "q": rng.randint(4, 10), "epsilon": rng.choice((1e-6, 1e-4)),
            "distribution": rng.choice(DISTRIBUTIONS), "sigma": rng.choice((0.0, 0.01)),
            "noise_seed": rng.randrange(4), "seeds": rng.randint(1, 3)}),
    }


def make_other(command, config, rng):
    """One config of command; a robustness config is a sweep of config's problem."""
    if command == "robustness":
        return make_sweep(config, rng)
    return {"fig2": make_fig2, "verify-moments": make_moments,
            "verify-bounds": make_bounds}[command](rng)


def _objects(node):
    """Every JSON object within node, node included, in document order."""
    if isinstance(node, dict):
        yield node
        children = node.values()
    elif isinstance(node, list):
        children = node
    else:
        return
    for child in children:
        yield from _objects(child)


def mutate(config, rng):
    """config with one or two faults, each in an object at any depth: a key set to
    a pool value, an unknown key added or a key removed."""
    config = json.loads(json.dumps(config))
    for _ in range(rng.randint(1, 2)):
        node = rng.choice(list(_objects(config)))
        fault = rng.choice(("value", "value", "unknown", "missing") if node else ("unknown",))
        if fault == "unknown":
            node["unexpected"] = 1
        elif fault == "missing":
            del node[rng.choice(sorted(node))]
        else:
            node[rng.choice(sorted(node))] = rng.choice(POOL)
    return config


def _without_wall_time(value):
    if isinstance(value, dict):
        return {k: _without_wall_time(v) for k, v in value.items() if k != "wall_time_s"}
    if isinstance(value, list):
        return [_without_wall_time(v) for v in value]
    return value


def read_files(directory):
    """{file name: bytes} of one output directory, JSON files re-dumped without
    wall_time_s (as text, so NaN equals NaN); empty if it was not made."""
    if not os.path.isdir(directory):
        return {}
    out = {}
    for name in os.listdir(directory):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
        if name.endswith(".json"):
            out[name] = json.dumps(_without_wall_time(json.loads(out[name]))).encode()
    return out


def read_runs(directory):
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


def write_configs(directory, n, seed):
    """Write the generated configs; returns {command: count}."""
    rng, sweep_rng = random.Random(seed), random.Random(f"{seed} sweep")
    other_rngs = {command: random.Random(f"{seed} {command}") for command in OTHERS}
    mutate_rng = random.Random(f"{seed} mutate")
    counts = dict.fromkeys(("run", "sweep", *OTHERS), 0)

    def write(i, command, config, fault=None):
        counts[command] += 1
        name = f"{i:05d}.{command}.json" if fault is None else f"{i:05d}.{command}.{fault}.json"
        path = os.path.join(directory, name)
        if fault == "config-dir":
            os.makedirs(path)
            return
        with open(path, "w", encoding="utf-16" if fault == "config-utf16" else "utf-8") as fh:
            json.dump(config, fh)

    for i in range(n):
        config = make_config(rng)
        write(i, "run", config)
        if i < len(FILE_FAULTS):
            write(i, "run", config, FILE_FAULTS[i])
        if i % SWEEP_EVERY == 0:
            write(i, "sweep", make_sweep(config, sweep_rng))
        command = OTHERS[i % len(OTHERS)]
        other = make_other(command, config, other_rngs[command])
        if i % MUTATE_EVERY == 0:
            other = mutate(other, mutate_rng)
        write(i, command, other)
    return counts


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the commit to compare with")
    parser.add_argument("--configs", type=int, default=1000, help="number of generated run configs")
    parser.add_argument("--seed", type=int, default=0, help="seed of the config generators")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        configs = os.path.join(tmp, "configs")
        os.makedirs(configs)
        counts = write_configs(configs, args.configs, args.seed)
        sides = {}
        for side, tree in ab.sides(args.parent).items():
            os.makedirs(os.path.join(tmp, side))
            sides[side] = ab.run_json(tree, ["-c", CHILD, configs], cwd=os.path.join(tmp, side))

        factor = sides["parent"]["factor"]
        n_runs = differing = off = 0
        codes_moved, messages_moved, outputs_moved, parent_codes = {}, {}, {}, {}
        for name in sorted(os.listdir(configs)):
            command = name.split(".")[1]
            codes = [sides[side]["codes"][name] for side in ("parent", "change")]
            by_code = parent_codes.setdefault(command, {})
            by_code[str(codes[0])] = by_code.get(str(codes[0]), 0) + 1
            if codes[0] != codes[1]:
                key = f"{codes[0]} -> {codes[1]}"
                codes_moved[key] = codes_moved.get(key, 0) + 1
                print(f"{name}: exit code {key}")
            messages = [sides[side]["messages"][name] for side in ("parent", "change")]
            if messages[0] != messages[1]:
                messages_moved[command] = messages_moved.get(command, 0) + 1
                print(f"{name}: first stderr line {messages[0]!r} -> {messages[1]!r}")
            parent, change = (read_files(os.path.join(tmp, side, name[:-5]))
                              for side in ("parent", "change"))
            files = sorted(f for f in set(parent) | set(change) if parent.get(f) != change.get(f))
            if files:
                outputs_moved[command] = outputs_moved.get(command, 0) + 1
                print(f"{name}: {', '.join(files)} differ")
            if command != "run":
                continue
            parent, change = (read_runs(os.path.join(tmp, side, name[:-5]))
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
    print(json.dumps({"configs": args.configs, "seed": args.seed,
                      "configs_run": sum(counts.values()), "by_command": counts,
                      "parent_exit_codes": parent_codes, "parent_runs": n_runs,
                      "differing_runs": differing, "parent_final_off": off,
                      "differing_outputs": outputs_moved, "differing_messages": messages_moved,
                      "exit_codes_moved": codes_moved}))


if __name__ == "__main__":
    main()
