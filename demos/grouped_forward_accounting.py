"""Forward-pass accounting for the grouped estimator on a layered chain.

Estimating per-block directional derivatives naively re-runs the whole
chain for both sides of every (sample, block) pair: 2qp full passes, i.e.
2qp^2 block forwards. Reusing cached prefix activations - blocks before the
perturbed one are unchanged - cuts this to pq(p+1) + p - 1 block forwards.
At p=16 blocks and q=1 that is 287 vs 512, the familiar "roughly 1.8x".

Run: python3 demos/grouped_forward_accounting.py
"""

import numpy as np

from zoptim import (
    EvalCounter,
    LayeredChain,
    Partition,
    PerturbationSpec,
    chain_as_objective,
    efficient_grouped_eval,
    gradient_estimate,
    step_directions,
    zo_gradient,
)


def main():
    p, q = 16, 1
    chain = LayeredChain(p=p, widths=1, seed=0)
    spec = PerturbationSpec(distribution="gaussian", epsilon=1e-4, base_seed=0)
    x = np.random.default_rng(0).standard_normal(chain.d) * 0.1

    partition = Partition.from_ranges(chain.d, list(chain.slices))
    efficient = EvalCounter()
    scalars = efficient_grouped_eval(chain, x, spec, q, 0, efficient)
    est_eff = gradient_estimate(scalars, step_directions(spec, 0, q, chain.d), spec.distribution,
                                partition)

    naive = EvalCounter()
    est_naive = zo_gradient(chain_as_objective(chain, naive), x, spec, q, 0, naive,
                            partition=partition)

    predicted = p * q * (p + 1) + p - 1
    print(f"chain with p={p} blocks, q={q} sample, d={chain.d} parameters")
    print(f"  naive block forwards      {naive.block_forward_calls}  (2qp^2 = {2 * q * p * p})")
    print(f"  efficient block forwards  {efficient.block_forward_calls}  "
          f"(pq(p+1)+p-1 = {predicted})")
    print(f"  reduction                 {naive.block_forward_calls / efficient.block_forward_calls:.3f}x")
    print(f"  estimates bit-identical   {est_eff.tobytes() == est_naive.tobytes()}")

    print("\nSame accounting at a few sizes:")
    print(f"{'p':>4s} {'q':>3s} {'naive':>8s} {'efficient':>10s} {'ratio':>7s}")
    for pp, qq in [(3, 2), (8, 1), (16, 1), (16, 4), (32, 1)]:
        naive_n = 2 * qq * pp * pp
        eff_n = pp * qq * (pp + 1) + pp - 1
        print(f"{pp:>4d} {qq:>3d} {naive_n:>8d} {eff_n:>10d} {naive_n / eff_n:>7.3f}")
    print("\nThe ratio approaches 2x as p grows: the cached prefix saves almost")
    print("half of every perturbed forward pass.")


if __name__ == "__main__":
    main()
