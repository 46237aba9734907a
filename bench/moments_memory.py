"""Peak memory and time of verify-moments, parent vs change, in fresh processes.

    python bench/moments_memory.py --parent <checkout> [--rounds 3] [--seed 900] \\
        [--out BENCH_12.json]

``<checkout>`` is a second checkout of the commit to compare against (for
example made with ``git archive``); the change side is the tree this script
lives in. Three configs are run:

- ``verify``: the moment cases of the perfbench verify workload, invocation 0
  of ``--seed``;
- ``readme-q10-d32``: four cases of q 10, d 32 and n 65536 (the README's
  memory example);
- ``d1024-q10``: one case of d 1024, q 10 and n 40000.

Each round runs ``python -m zoptim.cli verify-moments`` once per tree and
config, with that tree's ``src`` on ``PYTHONPATH``, the BLAS thread variables
cleared as perfbench does, and the first side alternating. For every run it
records the wait4 peak RSS, wall time, user+sys CPU time and exit code, and
whether ``moments.json`` equals the other tree's byte for byte. Per side and
config the summary gives the median and the range of each measure. The
result goes under ``moments_memory`` in the output file, next to the machine
facts; other keys already in the file are kept.
"""

import argparse
import hashlib
import json
import math
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))
from setup_child import facts  # noqa: E402  (Python, numpy, BLAS build and thread count)
from workloads import _verify_inputs  # noqa: E402  (the verify workload's configs)

CHANGE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _unit(rng, d):
    g = [rng.gauss(0.0, 1.0) for _ in range(d)]
    norm = math.sqrt(sum(v * v for v in g))
    return [v / norm for v in g]


def configs(seed, work):
    """name -> path of a verify-moments config."""
    os.makedirs(os.path.join(work, "verify"))
    _verify_inputs(seed, 0, os.path.join(work, "verify"))
    rng = random.Random(seed)
    readme = [{"g": _unit(rng, 32), "q": 10, "distribution": dist, "n": 65536, "tol": 0.05,
               "seed": i} for i, dist in enumerate(("gaussian", "uniform") * 2)]
    wide = [{"g": _unit(rng, 1024), "q": 10, "distribution": "gaussian", "n": 40000,
             "tol": 0.05, "seed": 0}]
    paths = {"verify": os.path.join(work, "verify", "moments.json")}
    for name, cases in (("readme-q10-d32", readme), ("d1024-q10", wide)):
        paths[name] = os.path.join(work, f"{name}.json")
        with open(paths[name], "w") as fh:
            json.dump({"cases": cases}, fh)
    return paths


def run_side(tree, config, out):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_ENV}
    env.update(PYTHONPATH=os.path.join(os.path.abspath(tree), "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "zoptim.cli", "verify-moments", "--config", config,
            "--out", out]
    started = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    digest = None
    if os.path.exists(os.path.join(out, "moments.json")):
        with open(os.path.join(out, "moments.json"), "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
    return {"exit_code": proc.returncode, "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime, "digest": digest}


def summarise(runs):
    out = {}
    for measure in ("peak_rss_mb", "wall_s", "cpu_s"):
        values = [r[measure] for r in runs]
        out[measure] = {"median": statistics.median(values), "min": min(values),
                        "max": max(values)}
    out["exit_codes"] = sorted({r["exit_code"] for r in runs})
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the commit to compare against")
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--seed", type=int, default=900, help="perfbench verify workload seed")
    parser.add_argument("--out", default="BENCH_12.json")
    args = parser.parse_args()

    sides = {"parent": args.parent, "change": CHANGE}
    result = {}
    with tempfile.TemporaryDirectory() as work:
        for name, config in configs(args.seed, work).items():
            runs = {side: [] for side in sides}
            identical = []
            for i in range(args.rounds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    runs[side].append(run_side(sides[side], config,
                                               os.path.join(work, f"{name}-{side}-{i}")))
                identical.append(runs["parent"][-1]["digest"] is not None
                                 and runs["parent"][-1]["digest"] == runs["change"][-1]["digest"])
                print(f"{name} round {i}: peak MB parent {runs['parent'][-1]['peak_rss_mb']:.1f} "
                      f"change {runs['change'][-1]['peak_rss_mb']:.1f}, identical {identical[-1]}",
                      file=sys.stderr, flush=True)
            result[name] = {"rounds": args.rounds, "moments_json_identical": identical,
                            **{side: {**summarise(r), "runs": r} for side, r in runs.items()}}
    print(json.dumps({name: {side: r[side]["peak_rss_mb"]["median"] for side in sides}
                      for name, r in result.items()}))

    payload = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            payload = json.load(fh)
    payload["machine"] = {**{k: v for k, v in facts().items() if k != "zoptim_path"},
                          "nproc": os.cpu_count()}
    payload["moments_memory"] = {"seed": args.seed, **result}
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
