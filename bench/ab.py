"""How a bench script runs a side of a parent/change comparison.

The change side is the checkout this file lives in; the parent side is a
second checkout of the commit to compare against (for example made with
``git archive``). Every measurement runs in a child process whose
environment ``env`` builds from the tree it measures:

- that tree's ``src`` is the ``PYTHONPATH``, so the child imports its zoptim;
- the BLAS thread variables are cleared, as ``perfbench/run.py`` clears them
  for its children, so both sides run the library's default threading;
- bytecode goes to the tree's own cache, ``<tree>/.perfbench_out/pycache``,
  with writes allowed even when ``PYTHONDONTWRITEBYTECODE`` is inherited.
  The prefix hides every other cache, numpy's included, so without writes
  each child would compile numpy from source (about 0.5 s of CPU and 3.5 MB
  of peak RSS per start on a 2-core VM); with them, a ``__pycache__`` left in
  one tree cannot move that side's start-up time or peak RSS.

Rounds alternate which side runs first, the parent on even rounds. A child
reports by printing one JSON object as the last line of its standard
output. ``summarise`` is the one A/B summary of the paired values, and
``merge`` puts a result into a ``BENCH_*.json`` file next to the
machine facts, which one ``perfbench/setup_child.py facts`` child reads in
the change side's environment; other keys of the file are kept.
"""

import json
import os
import statistics
import subprocess
import sys

CHANGE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PYCACHE = os.path.join(".perfbench_out", "pycache")


def sides(parent):
    """{side: tree} for a parent checkout and this one."""
    return {"parent": os.path.abspath(parent), "change": CHANGE}


def env(tree):
    """The environment of a child that measures tree."""
    tree = os.path.abspath(tree)
    out = {k: v for k, v in os.environ.items() if k not in BLAS_ENV}
    out.pop("PYTHONDONTWRITEBYTECODE", None)
    out.update(PYTHONPATH=os.path.join(tree, "src"),
               PYTHONPYCACHEPREFIX=os.path.join(tree, PYCACHE))
    return out


def run_json(tree, args, cwd=None):
    """The last standard-output line, read as JSON, of ``python *args`` run in
    tree's environment; a child that fails ends the script with its stderr."""
    proc = subprocess.run([sys.executable, *args], env=env(tree), cwd=cwd, capture_output=True,
                          text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(args)} on {tree} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def alternate(rounds, run):
    """{side: [run(side, i) for every round i]}, the parent first on even rounds."""
    out = {side: [] for side in SIDES}
    for i in range(rounds):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            out[side].append(run(side, i))
    return out


def summarise(values, better="lower"):
    """The A/B summary of {side: [value of round i]}: each side's median,
    quartiles and minimum, the pairs the change won and lost (ties count for
    neither), the median gap, the parent's IQR and change/parent - 1."""
    row = {}
    for side in SIDES:
        v = values[side]
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else v * 3
        row[side] = {"median": statistics.median(v), "q1": q1, "q3": q3, "min": min(v)}
    sign = 1 if better == "lower" else -1
    gains = [sign * (p - c) for p, c in zip(values["parent"], values["change"])]
    parent, change = row["parent"]["median"], row["change"]["median"]
    row.update(pairs=len(gains), change_wins=sum(g > 0 for g in gains),
               change_losses=sum(g < 0 for g in gains), median_gap=abs(parent - change),
               parent_iqr=row["parent"]["q3"] - row["parent"]["q1"],
               change_vs_parent=change / parent - 1.0 if parent else None)
    return row


def machine():
    """Python, numpy, BLAS build and thread count as the change side's children
    see them, the core count, and the environment rules above."""
    facts = run_json(CHANGE, [os.path.join(CHANGE, "perfbench", "setup_child.py"), "facts"])
    del facts["zoptim_path"]
    return {**facts, "nproc": os.cpu_count(),
            "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
            "pycache_prefix": os.path.join("<side>", PYCACHE),
            "PYTHONDONTWRITEBYTECODE_inherited": os.environ.get("PYTHONDONTWRITEBYTECODE")}


def merge(path, entry, *keys):
    """Put entry under keys (outermost first) in the JSON file at path, with the
    machine facts under "machine"; the file's other keys are kept."""
    payload = {}
    if os.path.exists(path):
        with open(path) as fh:
            payload = json.load(fh)
    payload["machine"] = machine()
    node = payload
    for key in keys[:-1]:
        node = node.setdefault(key, {})
    node[keys[-1]] = entry
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
