"""Trajectory-averaged gradient norms against their analytic ceilings.

The library carries non-asymptotic stationarity bounds for the scalar-
adaptive method (under an EMA-decay/step-size condition) and for plain
zeroth-order SGD. This demo runs both on a bounded region of the
9-dimensional ill-conditioned quadratic from equal-energy starts and prints
the measured (1/T) sum ||grad F(x_t)||^2 next to each bound, plus the
consistency check that the SGD bound collapses to the classical first-order
one as the sample count grows and the probe length shrinks.

Run: python3 demos/stationarity_bounds.py
"""

import numpy as np

from zoptim import (
    BlockQuadratic,
    bound_check_run,
    check_meazo_condition,
    classical_sgd_bound,
    equal_energy_point,
    meazo_bound,
    theorem_constants,
    zosgd_bound,
)


def main():
    quad = BlockQuadratic(9, regime="heterogeneous", seed=0)
    q, epsilon, f0, radius = 10, 1e-6, 0.05, 0.4
    L = quad.smoothness
    G = L * radius
    seeds = range(5)

    beta, zeta, eta, T = 1 - 1.5e-8, 1.0, 1e-4, 200
    constants = theorem_constants(9, q, epsilon, L, 0.0, G, beta, zeta)
    ok = check_meazo_condition(G, L, constants.sigma1_sq, beta, eta, zeta)
    print(f"scalar-adaptive step-size condition satisfied: {ok}")
    runs = [
        bound_check_run(quad, "meazo", eta, q, epsilon, "gaussian", 0.0, 0,
                        equal_energy_point(quad, f0, s), T, s,
                        beta=beta, zeta=zeta, radius=radius)
        for s in seeds
    ]
    lhs = float(np.mean([r["avg_grad_norm_sq"] for r in runs]))
    bound = meazo_bound(constants, f0, eta, T, epsilon, L)
    print(f"  measured  {lhs:.4f}")
    print(f"  bound     {bound:.1f}   (margin {bound / lhs:.0f}x)")
    print(f"  every run stayed inside the radius-{radius} region: "
          f"{all(r['within_radius'] for r in runs)}")

    eta_s, T_s = 5e-5, 100
    runs = [
        bound_check_run(quad, "zo-sgd", eta_s, q, epsilon, "gaussian", 0.0, 0,
                        equal_energy_point(quad, f0, s), T_s, s, radius=radius)
        for s in seeds
    ]
    lhs = float(np.mean([r["avg_grad_norm_sq"] for r in runs]))
    bound = zosgd_bound(9, q, epsilon, L, 0.0, eta_s, T_s, f0)
    print(f"\nzeroth-order SGD at eta={eta_s:.0e}:")
    print(f"  measured  {lhs:.4f}")
    print(f"  bound     {bound:.2f}   (margin {bound / lhs:.1f}x)")

    reduced = zosgd_bound(9, 1e9, 1e-12, L, 0.0, 1e-6, 1000, 1.0)
    classical = classical_sgd_bound(L, 0.0, 1e-6, 1000, 1.0)
    print(f"\nq -> infinity, epsilon -> 0 consistency:")
    print(f"  zeroth-order bound  {reduced:.9f}")
    print(f"  classical bound     {classical:.9f}")
    print(f"  relative gap        {abs(reduced - classical) / classical:.2e}")


if __name__ == "__main__":
    main()
