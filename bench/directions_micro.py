"""Per-direction cost of replay-keyed direction draws: parent checkout vs this tree.

    python bench/directions_micro.py --parent <checkout> [--repeats 5] [--out BENCH_3.json]

For each distribution, d in {9, 100, 1024, 10**4} and q in {1, 10} it times
drawing the q directions of consecutive steps 0, 1, 2, ... the way a run
does: ``step_directions(spec, t, q, d)`` where the tree has it, else the
parent's ``replay_directions`` generator. Each side runs in its own child
process with ``PYTHONPATH=<side>/src``; the sides alternate, the parent first
on even repeats. An entry is the median (and minimum) over the repeats of the
mean microseconds per direction of one repeat. The result goes under
``directions_micro`` in the output file, next to the machine facts; other
keys already in the file are kept. ``<checkout>`` is a second checkout of the
commit to compare against (for example made with ``git archive``).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

DIMS = (9, 100, 1024, 10_000)
QS = (1, 10)
TARGET_S = 0.05


def child():
    """Time every case on the zoptim found on sys.path; print one JSON line."""
    from zoptim import perturb

    draw_step = getattr(perturb, "step_directions", None)
    if draw_step is None:
        def draw_step(spec, t, q, d):
            return list(perturb.replay_directions(spec, t, q, d))

    def per_direction_us(spec, q, d, steps, first):
        started = time.perf_counter()
        for t in range(first, first + steps):
            draw_step(spec, t, q, d)
        return (time.perf_counter() - started) / (steps * q) * 1e6

    # One untimed draw first: the first draw of a process pays one-off costs
    # (loading numpy.random, making the generator) that would skew calibration.
    draw_step(perturb.PerturbationSpec(perturb.GAUSSIAN, 1e-6, 0), 0, 1, 1)
    rows = []
    for distribution in perturb.DISTRIBUTIONS:
        spec = perturb.PerturbationSpec(distribution=distribution, epsilon=1e-6, base_seed=7)
        for d in DIMS:
            for q in QS:
                steps = 1
                while per_direction_us(spec, q, d, steps, 0) * steps * q < TARGET_S * 1e6 / 4:
                    steps *= 4
                steps *= 4
                # Fresh step numbers, so no side reuses keys it derived while calibrating.
                us = per_direction_us(spec, q, d, steps, 1_000_000)
                rows.append({"distribution": distribution, "d": d, "q": q,
                             "steps": steps, "us_per_direction": us})
    print(json.dumps(rows))


def run_side(root):
    env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--child"],
                          cwd=root, env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine():
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
    sys.path[:0] = [os.path.join(root, "perfbench"), os.path.join(root, "src")]
    from setup_child import facts  # Python, numpy, BLAS build and thread count

    out = {k: v for k, v in facts().items() if k != "zoptim_path"}
    out["nproc"] = os.cpu_count()
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", help="checkout of the commit to compare against")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", default="BENCH_3.json")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        child()
        return
    if args.parent is None:
        parser.error("--parent is required")

    sides = {"parent": os.path.abspath(args.parent), "change": os.getcwd()}
    samples = {side: [] for side in sides}
    for r in range(args.repeats):
        order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
        for side in order:
            samples[side].append(run_side(sides[side]))

    rows = []
    for i, case in enumerate(samples["change"][0]):
        row = {k: case[k] for k in ("distribution", "d", "q")}
        for side in sides:
            values = [rep[i]["us_per_direction"] for rep in samples[side]]
            row[f"{side}_us_median"] = statistics.median(values)
            row[f"{side}_us_min"] = min(values)
        row["speedup_median"] = row["parent_us_median"] / row["change_us_median"]
        rows.append(row)
        print(f"{row['distribution']:<10} d={row['d']:<6} q={row['q']:<3} parent "
              f"{row['parent_us_median']:8.2f} us  change {row['change_us_median']:8.2f} us  "
              f"x{row['speedup_median']:.2f}")

    payload = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            payload = json.load(fh)
    payload["machine"] = machine()
    payload["directions_micro"] = {"repeats": args.repeats, "rows": rows}
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
