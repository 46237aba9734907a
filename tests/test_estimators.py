"""Finite-difference estimators: exactness, grouping, replay, and accounting."""

import numpy as np
import pytest

from zoptim import (
    DISTRIBUTIONS,
    GAUSSIAN,
    UNIFORM,
    EvalCounter,
    InvalidArgumentError,
    NumericFailureError,
    Partition,
    PerturbationSpec,
    ReplayCoordinate,
    chain_as_objective,
    efficient_grouped_eval,
    grouped_zo_gradient,
    make_block_quadratic,
    make_chain,
    projected_gradient,
    sample_direction,
    zo_gradient,
)


def affine(a, b=0.0):
    a = np.asarray(a, dtype=np.float64)

    def f(x):
        return float(a @ np.asarray(x, dtype=np.float64)) + b

    return f


def test_projected_gradient_is_exact_on_affine_objectives():
    a = np.array([2.0, -1.0, 0.5])
    f = affine(a, b=3.0)
    x = np.array([0.3, 0.1, -0.7])
    u = np.array([1.0, 2.0, -1.0])
    got = projected_gradient(f, x, u, epsilon=1e-6)
    assert got == pytest.approx(float(a @ u), rel=1e-9)


def test_projected_gradient_equals_directional_derivative_on_quadratics():
    quad = make_block_quadratic(9, regime="heterogeneous", seed=0)
    rng = np.random.default_rng(5)
    x = rng.standard_normal(9) * 0.2
    u = rng.standard_normal(9)
    got = projected_gradient(quad.value, x, u, epsilon=1e-6)
    want = float(u @ quad.gradient(x))
    assert got == pytest.approx(want, rel=1e-6, abs=1e-8)


def test_projected_gradient_uses_exactly_two_evaluations():
    counter = EvalCounter()
    projected_gradient(affine([1.0, 1.0]), np.zeros(2), np.ones(2), 1e-6, counter)
    assert counter.full_forward_calls == 2
    assert counter.block_forward_calls == 0


def test_projected_gradient_rejects_nonpositive_epsilon():
    with pytest.raises(InvalidArgumentError):
        projected_gradient(affine([1.0]), np.zeros(1), np.ones(1), 0.0)


def test_projected_gradient_raises_on_nonfinite_objective():
    def bad(x):
        return float("nan")

    with pytest.raises(NumericFailureError) as err:
        projected_gradient(bad, np.zeros(2), np.ones(2), 1e-6)
    assert err.value.point is not None


def test_zo_gradient_combines_scalars_and_directions():
    a = np.array([1.5, -2.0, 0.25, 1.0])
    spec = PerturbationSpec(distribution=GAUSSIAN, epsilon=1e-6, base_seed=13)
    est, scalars = zo_gradient(affine(a), np.zeros(4), spec, q=3, step=8)
    dirs = [sample_direction(spec, ReplayCoordinate(8, i, 0), 4) for i in range(3)]
    assert scalars == pytest.approx([float(a @ u) for u in dirs], rel=1e-9)
    want = sum(s * u for s, u in zip(scalars, dirs)) / 3
    np.testing.assert_allclose(est, want, rtol=1e-12)


def test_zo_gradient_applies_dimension_scaling_for_uniform_sphere():
    a = np.array([1.0, 2.0])
    spec = PerturbationSpec(distribution=UNIFORM, epsilon=1e-6, base_seed=2)
    est, scalars = zo_gradient(affine(a), np.zeros(2), spec, q=1, step=0)
    u = sample_direction(spec, ReplayCoordinate(0, 0, 0), 2)
    np.testing.assert_allclose(est, 2 * scalars[0] * u, rtol=1e-12)


def test_zo_gradient_long_run_mean_approaches_the_gradient():
    a = np.array([1.0, -0.5, 2.0])
    spec = PerturbationSpec(distribution=GAUSSIAN, epsilon=1e-6, base_seed=21)
    total = np.zeros(3)
    steps = 4000
    for t in range(steps):
        est, _ = zo_gradient(affine(a), np.zeros(3), spec, q=4, step=t)
        total += est
    np.testing.assert_allclose(total / steps, a, atol=0.08)


def test_zo_gradient_counts_two_evaluations_per_sample():
    counter = EvalCounter()
    zo_gradient(affine([1.0, 1.0]), np.zeros(2), PerturbationSpec(GAUSSIAN, 1e-6), 5, 0, counter)
    assert counter.full_forward_calls == 10


def test_partition_validates_coverage_and_disjointness():
    Partition(4, [[0, 1], [2, 3]])
    with pytest.raises(InvalidArgumentError):
        Partition(4, [[0, 1], [1, 2, 3]])
    with pytest.raises(InvalidArgumentError):
        Partition(4, [[0, 1], [2]])
    with pytest.raises(InvalidArgumentError):
        Partition(4, [[0, 1], [2, 4]])
    with pytest.raises(InvalidArgumentError):
        Partition(4, [[0, 1, 2, 3], []])


def test_partition_constructors():
    part = Partition.from_ranges(6, [(0, 2), (2, 6)])
    assert part.p == 2
    assert [list(b) for b in part.blocks] == [[0, 1], [2, 3, 4, 5]]
    part = Partition.contiguous(5, 2)
    assert [list(b) for b in part.blocks] == [[0, 1, 2], [3, 4]]
    with pytest.raises(InvalidArgumentError):
        Partition.contiguous(3, 4)


def test_grouped_estimator_masks_one_direction_per_sample():
    a = np.array([1.0, -2.0, 3.0, 0.5])
    part = Partition.from_ranges(4, [(0, 2), (2, 4)])
    spec = PerturbationSpec(distribution=GAUSSIAN, epsilon=1e-6, base_seed=3)
    est, scalars = grouped_zo_gradient(affine(a), np.zeros(4), spec, 2, part, step=5)
    assert scalars.shape == (2, 2)
    for i in range(2):
        u = sample_direction(spec, ReplayCoordinate(5, i, 0), 4)
        for j, idx in enumerate(part.blocks):
            assert scalars[i, j] == pytest.approx(float(a[idx] @ u[idx]), rel=1e-9)


@pytest.mark.parametrize("distribution", DISTRIBUTIONS)
def test_grouped_estimator_with_one_block_matches_ungrouped_bitwise(distribution):
    quad = make_block_quadratic(4, regime="heterogeneous", seed=1)
    x = np.full(4, 0.1)
    spec = PerturbationSpec(distribution=distribution, epsilon=1e-5, base_seed=6)
    part = Partition(4, [np.arange(4)])
    grouped_est, grouped_scalars = grouped_zo_gradient(quad.value, x, spec, 3, part, step=2)
    plain_est, plain_scalars = zo_gradient(quad.value, x, spec, 3, step=2)
    assert grouped_est.tobytes() == plain_est.tobytes()
    assert grouped_scalars[:, 0].tobytes() == plain_scalars.tobytes()


def test_grouped_estimator_rejects_partition_dimension_mismatch():
    part = Partition(3, [np.arange(3)])
    spec = PerturbationSpec(distribution=GAUSSIAN, epsilon=1e-6)
    with pytest.raises(InvalidArgumentError):
        grouped_zo_gradient(affine([1.0, 1.0]), np.zeros(2), spec, 1, part, 0)


def test_grouped_full_evaluation_count_is_2qp():
    quad = make_block_quadratic(4, regime="homogeneous", seed=0)
    part = Partition.from_ranges(4, [(0, 2), (2, 4)])
    counter = EvalCounter()
    spec = PerturbationSpec(distribution=GAUSSIAN, epsilon=1e-6)
    grouped_zo_gradient(quad.value, np.zeros(4), spec, 3, part, 0, counter)
    assert counter.full_forward_calls == 2 * 3 * 2


def test_efficient_grouped_eval_matches_naive_grouped_bitwise():
    chain = make_chain(3, 2, seed=4)
    part = Partition.from_ranges(chain.d, chain.slices)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(chain.d) * 0.3
    spec = PerturbationSpec(distribution=GAUSSIAN, epsilon=1e-5, base_seed=9)
    eff_est, eff_scalars = efficient_grouped_eval(chain, x, spec, 2, step=7)
    naive_est, naive_scalars = grouped_zo_gradient(chain.value, x, spec, 2, part, step=7)
    assert eff_est.tobytes() == naive_est.tobytes()
    assert eff_scalars.tobytes() == naive_scalars.tobytes()


def test_efficient_grouped_eval_block_forward_count_formula():
    p, q = 3, 2
    chain = make_chain(p, 2, seed=4)
    x = np.zeros(chain.d)
    spec = PerturbationSpec(distribution=GAUSSIAN, epsilon=1e-5, base_seed=9)
    counter = EvalCounter()
    efficient_grouped_eval(chain, x, spec, q, step=0, counter=counter)
    assert counter.block_forward_calls == p * q * (p + 1) + p - 1
    assert counter.full_forward_calls == 0

    naive = EvalCounter()
    part = Partition.from_ranges(chain.d, chain.slices)
    grouped_zo_gradient(chain_as_objective(chain, naive), x, spec, q, part, 0)
    assert naive.block_forward_calls == 2 * q * p * p


def test_efficient_grouped_eval_requires_sequential_structure():
    quad = make_block_quadratic(4, regime="homogeneous", seed=0)
    spec = PerturbationSpec(distribution=GAUSSIAN, epsilon=1e-6)
    with pytest.raises(InvalidArgumentError):
        efficient_grouped_eval(quad, np.zeros(4), spec, 1, 0)


def test_estimators_reject_nonpositive_q():
    spec = PerturbationSpec(distribution=GAUSSIAN, epsilon=1e-6)
    with pytest.raises(InvalidArgumentError):
        zo_gradient(affine([1.0]), np.zeros(1), spec, 0, 0)
    with pytest.raises(InvalidArgumentError):
        grouped_zo_gradient(affine([1.0]), np.zeros(1), spec, 0, Partition(1, [[0]]), 0)
