"""Collapse of coordinate-wise adaptivity as dimension grows.

ZO-Adam keeps one second-moment accumulator per coordinate. Because the
two-point estimator's noise couples every coordinate to the full gradient
norm, those accumulators converge to a common value as d grows: the spread
(max - min)/mean of the bias-corrected second moments shrinks, and each
coordinate approaches ||grad||^2 / q. A first-order Adam run on the same
objective keeps a large spread, showing the collapse is a property of the
estimator, not the objective.

Run: python3 demos/dimension_collapse.py   (about 5 s on a 2-core VM)
"""

import numpy as np

from zoptim import collapse_study


def main():
    dims = (9, 25, 49, 100)
    rows = collapse_study(
        dims=dims,
        optimizers=("zo-adam",),
        eta=1e-4,
        q=10,
        threshold=1e-3,
        max_steps=4000,
        tail=100,
        x0_norm=1.0,
        seed=1,
    )
    print("ZO-Adam terminal second-moment spread by dimension (q=10):")
    print(f"{'d':>6s} {'spread':>10s}")
    for row in rows:
        print(f"{row['d']:>6d} {row['terminal_spread']:>10.4f}")
    print("(at d=1024 and a 20k-step budget the spread falls below 0.3 and every")
    print(" coordinate lands within 25% of ||grad||^2/q - the regime the test")
    print(" suite checks; this demo stops at d=100 to stay fast)")

    fo = collapse_study(
        dims=(100,),
        optimizers=("fo-adam",),
        eta=1e-4,
        q=10,
        threshold=1e-3,
        max_steps=4000,
        tail=100,
        x0_norm=1.0,
        seed=1,
    )[0]
    zo_100 = [r for r in rows if r["d"] == 100][0]
    print(f"\nAt d=100, first-order Adam's spread is {fo['terminal_spread']:.2f} "
          f"vs ZO-Adam's {zo_100['terminal_spread']:.2f} "
          f"({fo['terminal_spread'] / zo_100['terminal_spread']:.0f}x larger):")
    print("the gradient's coordinates stay heterogeneous; only the zeroth-order")
    print("estimate's squared moments collapse. Once they collapse, per-coordinate")
    print("state buys nothing - one scalar accumulator does the same job.")


if __name__ == "__main__":
    main()
