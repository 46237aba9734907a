"""Traced peak memory of one optimizer step, per method and block count.

    python bench/step_memory.py [--parent <checkout>] [--out BENCH_16.json]

For zo-sgd, meazo, zo-adam and meazo-grouped over P contiguous blocks, it
builds ``Method`` on ``BlockQuadratic(D)`` with Q Gaussian directions, takes
one warm-up step, and then reports the ``tracemalloc`` peak of one more
``Method.step`` (the bytes Python allocates during the step, not RSS), the
bytes of the arrays the state carries from step to step, and the chunks one
step's points are built in (its ``estimators._evaluate`` calls, counted on a
third, untraced step): the p = 8 and p = 32 rows go through the chunk loop.
One throwaway traced step runs before the first row, so that row is a
steady-state peak too, not one that includes the process's first traced
allocations.

Each tree is measured in a child process run as ``bench/ab.py`` sets out.
Without ``--parent`` it measures the tree this script lives in and prints a
table. With ``--parent``, a second checkout of the commit to compare
against, both tables go under ``step_memory`` in the file ``--out`` names.
"""

import argparse
import json
import tracemalloc

import ab

D, Q, P = 1024, 10, (1, 8, 32)


def step_peak(method, f, x):
    """tracemalloc peak of one Method.step after a warm-up step."""
    x = method.step(f, x, 0)
    tracemalloc.start()
    try:
        method.step(f, x, 1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def step_chunks(method, f, x):
    """The chunks of points one Method.step evaluates: its estimators._evaluate calls."""
    from zoptim import estimators

    evaluate, calls = estimators._evaluate, []
    estimators._evaluate = lambda *args: calls.append(1) or evaluate(*args)
    try:
        method.step(f, x, 2)
    finally:
        estimators._evaluate = evaluate
    return len(calls)


def measure():
    """{label: {"step_peak_bytes", "state_bytes", "chunks"}} for one tree (the zoptim
    on sys.path)."""
    import numpy as np

    from zoptim import BlockQuadratic, PerturbationSpec
    from zoptim.estimators import Partition
    from zoptim.optimizers import Method

    quad = BlockQuadratic(d=D, regime="heterogeneous", seed=0)
    spec = PerturbationSpec(distribution="gaussian", epsilon=1e-6, base_seed=0)
    x0 = np.random.default_rng(0).standard_normal(D) * 0.1
    cases = [(name, name, None) for name in ("zo-sgd", "meazo", "zo-adam")]
    cases += [(f"meazo-grouped p={p}", "meazo-grouped", Partition.contiguous(D, p)) for p in P]
    step_peak(Method("zo-sgd", 1e-4, spec, Q, D), quad.value, x0)  # the throwaway step
    out = {}
    for label, name, partition in cases:
        method = Method(name, 1e-4, spec, Q, D, partition=partition)
        peak = step_peak(method, quad.value, x0)
        state = sum(v.nbytes for v in vars(method.state).values() if isinstance(v, np.ndarray))
        out[label] = {"step_peak_bytes": peak, "state_bytes": state,
                      "chunks": step_chunks(method, quad.value, x0)}
    return out


def _kib(n):
    return f"{n / 1024:.1f} KiB" if n < 1 << 20 else f"{n / 2**20:.2f} MiB"


def table(rows):
    lines = ["| method | step peak | state arrays | chunks |", "|---|---|---|---|"]
    for label, r in rows.items():
        lines.append(f"| {label} | {_kib(r['step_peak_bytes'])} | {r['state_bytes']} B "
                     f"| {r['chunks']} |")
    return "\n".join(lines)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", help="checkout of the commit to compare against")
    parser.add_argument("--out", default="BENCH_16.json")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.child:
        print(json.dumps(measure()))
        return
    if args.parent is None:
        print(table(ab.run_json(ab.CHANGE, [__file__, "--child"])))
        return

    result = {"d": D, "q": Q}
    for side, tree in ab.sides(args.parent).items():
        result[side] = ab.run_json(tree, [__file__, "--child"])
        print(f"{side}:\n{table(result[side])}")
    ab.merge(args.out, result, "step_memory")


if __name__ == "__main__":
    main()
