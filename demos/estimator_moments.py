"""Closed-form second moments of the two-point gradient estimator vs Monte Carlo.

The q-sample estimator built from Gaussian (or scaled uniform-sphere)
directions has a per-coordinate second moment with a closed form. This demo
prints the prediction next to a seeded Monte Carlo estimate for a few small
cases, including the two hand-checkable uniform cases in d=2.

Run: python3 demos/estimator_moments.py
"""

import numpy as np

from zoptim import mc_squared_moment, predicted_squared_moment


def show(g, q, distribution, n=200_000):
    predicted = predicted_squared_moment(g, q, distribution)
    empirical, se = mc_squared_moment(g, q, distribution, n=n, seed=0)
    rel = np.max(np.abs(empirical - predicted) / predicted)
    print(f"{distribution:>10s}  d={len(g)} q={q}")
    print(f"  predicted  {np.array2string(predicted, precision=4)}")
    print(f"  empirical  {np.array2string(empirical, precision=4)}  "
          f"(n={n}, max rel err {rel:.3%})")


def main():
    print("Hand cases, uniform directions on the sphere, g=(1,0):")
    for q, want in [(1, (1.5, 0.5)), (2, (1.25, 0.25))]:
        got = predicted_squared_moment(np.array([1.0, 0.0]), q, "uniform")
        print(f"  q={q}: closed form {tuple(got.tolist())}  expected {want}")
    print()

    rng = np.random.default_rng(7)
    for d, q in [(2, 1), (8, 1), (8, 4)]:
        g = rng.standard_normal(d)
        g /= np.linalg.norm(g)
        for distribution in ("gaussian", "uniform"):
            show(g, q, distribution)
        print()

    print("The Gaussian moment exceeds the squared gradient everywhere: the")
    print("estimator's noise is proportional to the full gradient norm, which")
    print("is what pushes every coordinate of an EMA of squared estimates")
    print("toward the same value in high dimension.")


if __name__ == "__main__":
    main()
