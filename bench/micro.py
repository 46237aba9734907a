"""Per-call cost of library calls, parent vs change, in alternating child processes.

    python bench/micro.py CASE --parent <checkout> [--rounds 6] [--repeats 7] \\
        [--out BENCH_micro.json]

``<checkout>`` is a second checkout of the commit to compare against; each
round runs one child per tree as ``bench/ab.py`` sets out. A case is a
function of the child's zoptim that yields rows ``(label, units, call)``:
``call(i)`` makes one call on inputs numbered i and does ``units`` units of
work. For each row the child first digests the result of ``call(0)``, then
calibrates once and times ``--repeats`` repeats, every call on an input
number not used before, so a draw never repeats a step it drew while
calibrating. A pair's value is the round's minimum microseconds per unit, and
each row is summarised by ``ab.summarise`` over the rounds, under ``rows``.
The case is also summarised as one row, ``pooled``, whose value for a round
is the geometric mean over the rows of that round's values. The result goes
under ``micro.<case>`` in the output file. A row whose digest differs between
rounds or trees is recorded with ``digests_equal`` false, and the script then
exits non-zero naming it.
"""

import argparse
import hashlib
import itertools
import json
import math
import sys
import time

import numpy as np

import ab

LAWS = ("gaussian", "uniform", "rademacher", "ternary")
POOL = 8  # input sets a case cycles through
TARGET_S = 0.05  # the least wall time of one repeat


# Each row is timed before its case builds the next, so a call may close over
# the loop's variables.
def directions(z):
    """step_directions of consecutive steps, per direction."""
    for law, d, q in itertools.product(LAWS, (9, 100, 1024, 10_000), (1, 10)):
        spec = z.PerturbationSpec(law, 1e-6, 7)
        yield f"{law} d={d} q={q}", q, lambda t: z.step_directions(spec, t, q, d)


def oracle(z):
    """BlockQuadratic.value and gradient on the heterogeneous regime."""
    for d in (1, 9, 100, 1024):
        quad = z.BlockQuadratic(d, "heterogeneous", 0)
        xs = np.random.default_rng(d).standard_normal((POOL, d))
        for name in ("value", "gradient"):
            fn = getattr(quad, name)
            yield f"{name} d={d}", 1, lambda i: fn(xs[i % POOL])


def chain(z):
    """efficient_grouped_eval on a chain of 8 blocks of width 16, q 4, with
    each step's directions drawn before the clock."""
    net = z.LayeredChain(8, 16, seed=0)
    spec = z.PerturbationSpec("gaussian", 1e-4, 1)
    x = np.random.default_rng(0).standard_normal(net.d) * 0.1
    dirs = [z.step_directions(spec, t, 4, net.d) for t in range(POOL)]
    yield "p=8 q=4 width=16", 1, lambda i: z.efficient_grouped_eval(
        net, x, spec, 4, i % POOL, None, dirs[i % POOL])


def estimator(z):
    """zo_gradient on BlockQuadratic.value at fresh steps."""
    spec = z.PerturbationSpec("gaussian", 1e-4, 1)
    for q, d in ((1, 9), (10, 1024)):
        quad = z.BlockQuadratic(d, "heterogeneous", 0)
        x = np.random.default_rng(d).standard_normal(d)
        yield f"q={q} d={d}", 1, lambda t: z.zo_gradient(quad.value, x, spec, q, t)


def tilt(z):
    """NoisySample.tilt, the per-step keyed noise draw, at fresh steps."""
    yield "d=9", 1, z.NoisySample(z.BlockQuadratic(9, "heterogeneous", 0), 2e-6, 12345).tilt


def step(z):
    """Method.step on BlockQuadratic.value at fresh steps of one Method, at
    bcgd-sweep's shape (d=9, q=1; fzoo at q=2) and collapse-d1024's (d=1024, q=10)."""
    spec = z.PerturbationSpec("gaussian", 1e-6, 7)
    thirds = z.Partition.from_ranges(9, [[0, 3], [3, 6], [6, 9]])
    for name, d, q, partition in (("zo-sgd", 9, 1, None), ("zo-adam", 9, 1, None),
                                  ("radazo", 9, 1, None), ("meazo", 9, 1, None),
                                  ("fzoo", 9, 2, None), ("meazo-grouped", 9, 1, thirds),
                                  ("zo-adam", 1024, 10, None), ("meazo", 1024, 10, None)):
        quad = z.BlockQuadratic(d, "heterogeneous", 0)
        x = np.random.default_rng(d).standard_normal(d) * 0.1
        method = z.Method(name, 1e-3, spec, q, d, partition=partition)
        yield f"{name} d={d} q={q}", 1, lambda t: method.step(quad.value, x, t)


CASES = {case.__name__: case for case in (directions, oracle, chain, estimator, tilt, step)}


def digest(result):
    """sha256 of a call's result: an array, a float, or a tuple of them."""
    h = hashlib.sha256()
    for part in result if isinstance(result, tuple) else (result,):
        h.update(np.asarray(part).tobytes())
    return h.hexdigest()


def timed(call, inputs, number):
    """Wall seconds of call(i) for the next number inputs i."""
    started = time.perf_counter()
    for i in itertools.islice(inputs, number):
        call(i)
    return time.perf_counter() - started


def child(case, repeats):
    """Time every row of case on the zoptim found on sys.path; print one JSON line."""
    import zoptim

    rows = []
    for label, units, call in CASES[case](zoptim):
        first = digest(call(0))
        fresh = itertools.count(1)
        # Calls per repeat: four times the first power of 4 whose calls take a
        # quarter of TARGET_S.
        number = 1
        while timed(call, fresh, number) < TARGET_S / 4:
            number *= 4
        number *= 4
        us = [timed(call, fresh, number) / (number * units) * 1e6 for _ in range(repeats)]
        rows.append({"row": label, "calls": number, "us": us, "digest": first})
    print(json.dumps(rows))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("case", choices=CASES)
    parser.add_argument("--parent", help="checkout of the commit to compare against")
    parser.add_argument("--rounds", type=int, default=6)
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--out", default="BENCH_micro.json")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        child(args.case, args.repeats)
        return
    if args.parent is None:
        parser.error("--parent is required")

    trees = ab.sides(args.parent)
    rounds = ab.alternate(args.rounds, lambda side, i: ab.run_json(
        trees[side], [__file__, args.case, "--child", "--repeats", str(args.repeats)]))
    rows, refused = {}, []
    for k, label in enumerate(r["row"] for r in rounds["change"][0]):
        runs = {side: [rs[k] for rs in side_rounds] for side, side_rounds in rounds.items()}
        values = {side: [min(r["us"]) for r in rs] for side, rs in runs.items()}
        equal = len({r["digest"] for rs in runs.values() for r in rs}) == 1
        rows[label] = {**ab.summarise(values), "pairs_us": values,
                       "calls": runs["change"][0]["calls"], "digests_equal": equal}
        if not equal:
            refused.append(label)
        print(f"{label}: {values}, digests equal: {equal}", file=sys.stderr)
    # Hosts swing whole rounds at once, so one value per round, the geometric
    # mean over the rows, is steadier than any single row.
    pooled = {side: [math.prod(row["pairs_us"][side][i] ** (1 / len(rows))
                               for row in rows.values()) for i in range(args.rounds)]
              for side in ab.SIDES}
    summary = ab.summarise(pooled)
    print(f"pooled: {pooled}, medians: parent {summary['parent']['median']}, "
          f"change {summary['change']['median']}, parent IQR {summary['parent_iqr']}",
          file=sys.stderr)
    ab.merge(args.out, {"rounds": args.rounds, "repeats": args.repeats,
                        "pooled": {**summary, "pairs_us": pooled}, "rows": rows},
             "micro", args.case)
    if refused:
        raise SystemExit(f"the results differ between rounds or trees on: {', '.join(refused)}")


if __name__ == "__main__":
    main()
