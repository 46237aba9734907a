"""Per-call cost of the BlockQuadratic oracles: dense d x d formula vs block stack.

    PYTHONPATH=src python bench/oracle_micro.py [--repeats 9] [--out BENCH_2.json]

For d in {1, 9, 100, 1024} it times ``value`` and ``gradient`` two ways: the
earlier dense formulas ``0.5 * x @ (H @ x)`` / ``H @ x`` on the d x d
Hessian rebuilt here from ``quad.hessian``, and the program's own
block-stacked oracles.
Dense and stacked repeats alternate so host drift hits both alike. Each
entry is the median (and minimum) over the repeats of the mean per-call time
of one repeat. The result goes under ``oracle_micro`` in the output file,
next to the machine facts; other keys already in the file are kept.
"""

import argparse
import json
import os
import statistics
import sys
import time

import numpy as np

from zoptim import BlockQuadratic

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))
from setup_child import facts  # noqa: E402  (Python, numpy, BLAS build and thread count)

DIMS = (1, 9, 100, 1024)
TARGET_S = 0.05


def per_call_us(fn, x, number):
    started = time.perf_counter()
    for _ in range(number):
        fn(x)
    return (time.perf_counter() - started) / number * 1e6


def calibrate(fn, x):
    """Calls per repeat so that one repeat takes about TARGET_S."""
    number = 1
    while per_call_us(fn, x, number) * number < TARGET_S * 1e6 / 4:
        number *= 4
    return number * 4


def time_pair(dense, stacked, x, repeats):
    sides = {"dense": dense, "stacked": stacked}
    numbers = {side: calibrate(fn, x) for side, fn in sides.items()}
    samples = {side: [] for side in sides}
    for _ in range(repeats):
        for side, fn in sides.items():
            samples[side].append(per_call_us(fn, x, numbers[side]))
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


def machine():
    out = {k: v for k, v in facts().items() if k != "zoptim_path"}
    out["nproc"] = os.cpu_count()
    out["blas_env"] = {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeats", type=int, default=9)
    parser.add_argument("--out", default="BENCH_2.json")
    args = parser.parse_args()

    rows = measure(args.repeats)
    for row in rows:
        print(f"d={row['d']:<5} value dense {row['value']['dense_us_median']:9.2f} us  "
              f"stacked {row['value']['stacked_us_median']:7.2f} us   gradient dense "
              f"{row['gradient']['dense_us_median']:9.2f} us  stacked "
              f"{row['gradient']['stacked_us_median']:7.2f} us")

    payload = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            payload = json.load(fh)
    payload["machine"] = machine()
    payload["oracle_micro"] = {"repeats": args.repeats, "rows": rows}
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
