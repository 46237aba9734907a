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
output. ``merge`` puts a result into a ``BENCH_*.json`` file next to the
machine facts, which one ``perfbench/setup_child.py facts`` child reads in
the change side's environment; other keys of the file are kept.
"""

import json
import os
import subprocess
import sys
import time

CHANGE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PYCACHE = os.path.join(".perfbench_out", "pycache")
TARGET_S = 0.05  # the wall time of one calibrated repeat


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


def timed(fn, number):
    """Wall seconds of number calls of fn()."""
    started = time.perf_counter()
    for _ in range(number):
        fn()
    return time.perf_counter() - started


def calibrate(seconds):
    """Calls per repeat: four times the first power of 4 whose seconds(calls)
    reaches a quarter of TARGET_S, so a repeat takes at least TARGET_S."""
    number = 1
    while seconds(number) < TARGET_S / 4:
        number *= 4
    return number * 4


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
