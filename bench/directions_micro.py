"""Per-direction cost of replay-keyed direction draws: parent checkout vs this tree.

    python bench/directions_micro.py --parent <checkout> [--repeats 5] [--out BENCH_3.json]

For each distribution, d in {9, 100, 1024, 10**4} and q in {1, 10} it times
drawing the q directions of consecutive steps 0, 1, 2, ... the way a run
does, with ``step_directions(spec, t, q, d)``. Each repeat runs one child per
tree as ``bench/ab.py`` sets out. An entry is the median (and minimum) over
the repeats of the mean microseconds per direction of one repeat. The result
goes under ``directions_micro`` in the output file. ``<checkout>`` is a
second checkout of the commit to compare against.
"""

import argparse
import itertools
import json
import statistics

import ab

DIMS = (9, 100, 1024, 10_000)
QS = (1, 10)


def child():
    """Time every case on the zoptim found on sys.path; print one JSON line."""
    from zoptim.perturb import DISTRIBUTIONS, GAUSSIAN, PerturbationSpec, step_directions

    # One untimed draw first: the first draw of a process pays one-off costs
    # (loading numpy.random, making the generator) that would skew calibration.
    step_directions(PerturbationSpec(GAUSSIAN, 1e-6, 0), 0, 1, 1)

    def draws(spec, q, d, first):
        """One call draws the directions of the next step from step first on."""
        steps = itertools.count(first)
        return lambda: step_directions(spec, next(steps), q, d)

    rows = []
    for distribution in DISTRIBUTIONS:
        spec = PerturbationSpec(distribution=distribution, epsilon=1e-6, base_seed=7)
        for d in DIMS:
            for q in QS:
                calls = ab.calibrate(lambda n: ab.timed(draws(spec, q, d, 0), n))
                # Fresh step numbers, so no side reuses keys it derived while calibrating.
                seconds = ab.timed(draws(spec, q, d, 1_000_000), calls)
                rows.append({"distribution": distribution, "d": d, "q": q, "steps": calls,
                             "us_per_direction": seconds / (calls * q) * 1e6})
    print(json.dumps(rows))


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

    trees = ab.sides(args.parent)
    samples = ab.alternate(args.repeats, lambda side, i: ab.run_json(trees[side],
                                                                     [__file__, "--child"]))
    rows = []
    for i, case in enumerate(samples["change"][0]):
        row = {k: case[k] for k in ("distribution", "d", "q")}
        for side in ab.SIDES:
            values = [rep[i]["us_per_direction"] for rep in samples[side]]
            row[f"{side}_us_median"] = statistics.median(values)
            row[f"{side}_us_min"] = min(values)
        row["speedup_median"] = row["parent_us_median"] / row["change_us_median"]
        rows.append(row)
        print(f"{row['distribution']:<10} d={row['d']:<6} q={row['q']:<3} parent "
              f"{row['parent_us_median']:8.2f} us  change {row['change_us_median']:8.2f} us  "
              f"x{row['speedup_median']:.2f}")
    ab.merge(args.out, {"repeats": args.repeats, "rows": rows}, "directions_micro")


if __name__ == "__main__":
    main()
