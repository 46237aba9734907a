"""Per-call cost of the BlockQuadratic oracles: dense d x d formula vs block stack.

    python bench/oracle_micro.py [--repeats 9] [--out BENCH_2.json]

For d in {1, 9, 100, 1024} it times ``value`` and ``gradient`` two ways: the
earlier dense formulas ``0.5 * x @ (H @ x)`` / ``H @ x`` on the d x d
Hessian rebuilt here from ``quad.hessian``, and the program's own
block-stacked oracles, in one child run on this tree as ``bench/ab.py`` sets
out. Dense and stacked repeats alternate so host drift hits both alike. Each
entry is the median (and minimum) over the repeats of the mean per-call time
of one repeat. The result goes under ``oracle_micro`` in the output file.
"""

import argparse
import functools
import json
import statistics

import numpy as np

import ab

DIMS = (1, 9, 100, 1024)


def time_pair(dense, stacked, x, repeats):
    sides = {"dense": functools.partial(dense, x), "stacked": functools.partial(stacked, x)}
    numbers = {side: ab.calibrate(functools.partial(ab.timed, fn)) for side, fn in sides.items()}
    samples = {side: [] for side in sides}
    for _ in range(repeats):
        for side, fn in sides.items():
            samples[side].append(ab.timed(fn, numbers[side]) / numbers[side] * 1e6)
    out = {}
    for side, values in samples.items():
        out[f"{side}_calls_per_repeat"] = numbers[side]
        out[f"{side}_us_median"] = statistics.median(values)
        out[f"{side}_us_min"] = min(values)
    out["speedup_median"] = out["dense_us_median"] / out["stacked_us_median"]
    return out


class DenseOracle:
    """The dense d x d oracles BlockQuadratic had before the block stack."""

    def __init__(self, quad):
        self.hessian = quad.hessian

    def value(self, x):
        x = np.asarray(x, dtype=np.float64)
        return float(0.5 * x @ (self.hessian @ x))

    def gradient(self, x):
        x = np.asarray(x, dtype=np.float64)
        return self.hessian @ x


def measure(repeats):
    from zoptim import BlockQuadratic

    rows = []
    for d in DIMS:
        quad = BlockQuadratic(d, "heterogeneous", 0)
        dense = DenseOracle(quad)
        x = np.random.default_rng(d).standard_normal(d)
        value_ref = dense.value(x)
        grad_ref = dense.gradient(x)
        rows.append({
            "d": d,
            "value": time_pair(dense.value, quad.value, x, repeats),
            "gradient": time_pair(dense.gradient, quad.gradient, x, repeats),
            "value_rel_diff": abs(quad.value(x) - value_ref) / abs(value_ref),
            "gradient_rel_diff": float(np.linalg.norm(quad.gradient(x) - grad_ref)
                                       / np.linalg.norm(grad_ref)),
        })
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeats", type=int, default=9)
    parser.add_argument("--out", default="BENCH_2.json")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        print(json.dumps(measure(args.repeats)))
        return

    rows = ab.run_json(ab.CHANGE, [__file__, "--child", "--repeats", str(args.repeats)])
    for row in rows:
        print(f"d={row['d']:<5} value dense {row['value']['dense_us_median']:9.2f} us  "
              f"stacked {row['value']['stacked_us_median']:7.2f} us   gradient dense "
              f"{row['gradient']['dense_us_median']:9.2f} us  stacked "
              f"{row['gradient']['stacked_us_median']:7.2f} us")
    ab.merge(args.out, {"repeats": args.repeats, "rows": rows}, "oracle_micro")


if __name__ == "__main__":
    main()
