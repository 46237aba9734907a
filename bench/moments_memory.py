"""Peak memory and time of verify-moments, parent vs change, in fresh processes.

    python bench/moments_memory.py --parent <checkout> [--rounds 3] [--seed 900] \\
        [--out BENCH_12.json]

``<checkout>`` is a second checkout of the commit to compare against; the
change side is the tree this script lives in. Three configs are run:

- ``verify``: the moment cases of the perfbench verify workload, invocation 0
  of ``--seed``;
- ``readme-q10-d32``: four cases of q 10, d 32 and n 65536 (the README's
  memory example);
- ``d1024-q10``: one case of d 1024, q 10 and n 40000.

Each round runs ``python -m zoptim.cli verify-moments`` once per tree and
config, as ``bench/ab.py`` sets out. For every run it records the wait4 peak
RSS, wall time, user+sys CPU time and exit code, and whether
``moments.json`` equals the other tree's byte for byte. Per config each
measure is summarised by ``ab.summarise`` over the rounds, and each side's exit
codes are listed. The result goes under ``moments_memory`` in the output file.
"""

import argparse
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import time

import ab

sys.path.insert(0, os.path.join(ab.CHANGE, "perfbench"))
from workloads import _verify_inputs  # noqa: E402  (the verify workload's configs)

MEASURES = ("peak_rss_mb", "wall_s", "cpu_s")


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
    argv = [sys.executable, "-m", "zoptim.cli", "verify-moments", "--config", config,
            "--out", out]
    started = time.perf_counter()
    proc = subprocess.Popen(argv, env=ab.env(tree), stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    digest = None
    if os.path.exists(os.path.join(out, "moments.json")):
        with open(os.path.join(out, "moments.json"), "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
    return {"exit_code": proc.returncode, "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime, "digest": digest}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the commit to compare against")
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--seed", type=int, default=900, help="perfbench verify workload seed")
    parser.add_argument("--out", default="BENCH_12.json")
    args = parser.parse_args()

    trees = ab.sides(args.parent)
    result = {}
    with tempfile.TemporaryDirectory() as work:
        for name, config in configs(args.seed, work).items():
            def run(side, i):
                r = run_side(trees[side], config, os.path.join(work, f"{name}-{side}-{i}"))
                print(f"{name} round {i} {side}: peak MB {r['peak_rss_mb']:.1f}",
                      file=sys.stderr, flush=True)
                return r

            runs = ab.alternate(args.rounds, run)
            identical = [p["digest"] is not None and p["digest"] == c["digest"]
                         for p, c in zip(runs["parent"], runs["change"])]
            result[name] = {
                "rounds": args.rounds, "moments_json_identical": identical,
                "exit_codes": {side: sorted({r["exit_code"] for r in rs})
                               for side, rs in runs.items()},
                **{measure: ab.summarise({side: [r[measure] for r in rs]
                                          for side, rs in runs.items()})
                   for measure in MEASURES},
                "runs": runs}
    print(json.dumps({name: {side: r["peak_rss_mb"][side]["median"] for side in ab.SIDES}
                      for name, r in result.items()}))
    ab.merge(args.out, {"seed": args.seed, **result}, "moments_memory")

if __name__ == "__main__":
    main()
