"""Synthetic objectives: quadratic structure, smoothing, noise, chain prefixes."""

import numpy as np
import pytest

from zoptim import (
    BlockQuadratic,
    InvalidArgumentError,
    LayeredChain,
    NoisySample,
    StalePrefixError,
    equal_energy_point,
    smoothed_gradient,
    smoothed_value,
    smoothing_norm_moments,
)
from zoptim.objectives import noise_for_run


def test_heterogeneous_quadratic_block_spectrum():
    quad = BlockQuadratic(9, regime="heterogeneous", seed=0)
    assert quad.n_blocks == 3 and quad.block_size == 3
    np.testing.assert_allclose(quad.block_centers, [1.0, 10.0**1.5, 1000.0])
    want = np.concatenate([c * np.linspace(0.9, 1.1, 3) for c in quad.block_centers])
    np.testing.assert_allclose(quad.eigenvalues, want)
    assert quad.smoothness == pytest.approx(1100.0)
    assert quad.trace_h == pytest.approx(want.sum())
    assert quad.f_star == 0.0


def test_homogeneous_quadratic_has_equal_block_centers():
    quad = BlockQuadratic(9, regime="homogeneous", seed=0)
    np.testing.assert_allclose(quad.block_centers, np.full(3, 10.0**1.5))


def test_quadratic_hessian_is_block_diagonal_and_symmetric():
    quad = BlockQuadratic(9, regime="heterogeneous", seed=0)
    h = quad.hessian
    np.testing.assert_allclose(h, h.T)
    assert np.all(h[0:3, 3:9] == 0.0)
    assert np.all(h[3:6, 6:9] == 0.0)
    eigs = np.sort(np.linalg.eigvalsh(h))
    np.testing.assert_allclose(eigs, np.sort(quad.eigenvalues), rtol=1e-10)


def test_quadratic_value_and_gradient_are_consistent():
    quad = BlockQuadratic(4, regime="heterogeneous", seed=2)
    rng = np.random.default_rng(3)
    x = rng.standard_normal(4)
    assert quad.value(x) == pytest.approx(0.5 * x @ quad.hessian @ x)
    np.testing.assert_allclose(quad.gradient(x), quad.hessian @ x)
    assert quad(x) == quad.value(x)


def _dense_reference(quad):
    """H = blockdiag(Q_k diag(lambda_k) Q_k^T), built from the bases and spectrum."""
    h = np.zeros((quad.d, quad.d))
    for (start, stop), basis in zip(quad.blocks, quad.bases):
        h[start:stop, start:stop] = (basis * quad.eigenvalues[start:stop]) @ basis.T
    return h


@pytest.mark.parametrize("d", [1, 9, 100, 1024])
def test_block_stack_oracles_match_a_dense_reference(d):
    quad = BlockQuadratic(d, regime="heterogeneous", seed=5)
    ref = _dense_reference(quad)
    x = np.random.default_rng(d).standard_normal(d)

    assert quad.value(x) == pytest.approx(0.5 * x @ (ref @ x), rel=1e-12)
    np.testing.assert_allclose(quad.gradient(x), ref @ x, rtol=1e-12)

    assert quad.stack.shape == (quad.n_blocks, quad.block_size, quad.block_size)
    for block in quad.stack:
        assert np.array_equal(block, block.T)

    dense = quad.hessian
    off_block = np.ones((d, d), dtype=bool)
    for start, stop in quad.blocks:
        off_block[start:stop, start:stop] = False
    assert np.all(dense[off_block] == 0.0)
    # Symmetrizing moves an entry by up to an ulp of its block's scale, which
    # is far more than 1e-12 of an entry near zero.
    np.testing.assert_allclose(dense, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())

    for name, attr in vars(quad).items():
        if isinstance(attr, np.ndarray):
            assert attr.shape != (d, d), name
            assert attr.size <= d * quad.block_size, name


def test_quadratic_rejects_non_square_dimension_and_bad_regime():
    with pytest.raises(InvalidArgumentError):
        BlockQuadratic(8, regime="heterogeneous", seed=0)
    with pytest.raises(InvalidArgumentError):
        BlockQuadratic(9, regime="isotropic", seed=0)


def test_single_coordinate_blocks_have_unit_jitter():
    quad = BlockQuadratic(1, regime="heterogeneous", seed=0)
    np.testing.assert_allclose(quad.eigenvalues, [1.0])


def test_smoothing_norm_moments():
    assert smoothing_norm_moments("ball", 4) == (0.8, pytest.approx(4.0 / 6.0))
    assert smoothing_norm_moments("sphere-limit", 4) == (1.0, 1.0)
    with pytest.raises(InvalidArgumentError):
        smoothing_norm_moments("cube", 4)


def test_smoothed_value_adds_the_trace_term():
    quad = BlockQuadratic(4, regime="homogeneous", seed=1)
    x = np.full(4, 0.2)
    eps = 1e-2
    for smoothing in ("ball", "sphere-limit"):
        _, second = smoothing_norm_moments(smoothing, 4)
        want = quad.value(x) + 0.5 * eps**2 * quad.trace_h * second / 4
        assert smoothed_value(quad, x, eps, smoothing) == pytest.approx(want, rel=1e-12)


def test_smoothed_gradient_is_exact_for_quadratics():
    quad = BlockQuadratic(9, regime="heterogeneous", seed=0)
    x = np.linspace(-1, 1, 9)
    np.testing.assert_array_equal(smoothed_gradient(quad, x, 1e-2), quad.gradient(x))


def test_noisy_sample_is_replayable_and_unbiased():
    quad = BlockQuadratic(4, regime="homogeneous", seed=0)
    noisy = NoisySample(quad, sigma=0.5, xi_seed=11)
    x = np.full(4, 0.3)
    assert noisy.base is quad
    f3 = noisy.objective_at(3)
    assert f3(x) == noisy.objective_at(3)(x)
    assert f3(x) != noisy.objective_at(4)(x)
    assert f3(x) == quad.value(x) + float(noisy.tilt(3) @ x)
    np.testing.assert_array_equal(noisy.tilt(3), noisy.tilt(3))
    # The tilts average to zero, so the mean gradient is the base gradient.
    n = 5000
    mean_tilt = np.mean([noisy.tilt(xi) for xi in range(n)], axis=0)
    np.testing.assert_allclose(mean_tilt, 0.0, atol=5 * (0.5 / np.sqrt(4)) / np.sqrt(n))


def test_noisy_sample_gradient_noise_has_variance_sigma_squared():
    quad = BlockQuadratic(4, regime="homogeneous", seed=0)
    sigma = 0.7
    noisy = NoisySample(quad, sigma=sigma, xi_seed=5)
    sq = [float(noisy.tilt(xi) @ noisy.tilt(xi)) for xi in range(20000)]
    assert np.mean(sq) == pytest.approx(sigma**2, rel=0.05)


def test_noisy_sample_rejects_negative_sigma():
    quad = BlockQuadratic(4, regime="homogeneous", seed=0)
    with pytest.raises(InvalidArgumentError):
        NoisySample(quad, sigma=-0.1, xi_seed=0)
    # A run is noiseless only at sigma 0, never at a negative or NaN sigma.
    assert noise_for_run(quad, 0.0, 0, 0) is None
    for sigma in (-0.1, float("nan")):
        with pytest.raises(InvalidArgumentError):
            noise_for_run(quad, sigma, 0, 0)


def test_chain_parameter_layout_and_dimension():
    chain = LayeredChain(3, [2, 4, 3, 1], seed=0)
    assert chain.slices == [(0, 12), (12, 27), (27, 31)]
    assert chain.d == 31
    square = LayeredChain(2, 3, seed=0)
    assert square.d == 2 * (3 * 3 + 3)


def test_chain_rejects_bad_widths():
    with pytest.raises(InvalidArgumentError):
        LayeredChain(2, [2, 2], seed=0)
    with pytest.raises(InvalidArgumentError):
        LayeredChain(2, [2, 0, 2], seed=0)
    with pytest.raises(InvalidArgumentError):
        LayeredChain(0, 2, seed=0)


def test_chain_prefix_resume_is_bit_identical_to_full_forward():
    chain = LayeredChain(4, 3, seed=2)
    rng = np.random.default_rng(1)
    x = rng.standard_normal(chain.d) * 0.5
    full_loss, acts, forwarded = chain.forward(x)
    assert forwarded == 4
    for j in range(1, chain.p + 1):
        prefix = chain.make_prefix(x, acts, j)
        loss, _, nb = chain.forward(x, prefix)
        assert loss == full_loss
        assert nb == chain.p - j + 1


def test_chain_prefix_allows_changes_at_or_after_its_block():
    chain = LayeredChain(3, 2, seed=3)
    rng = np.random.default_rng(4)
    x = rng.standard_normal(chain.d) * 0.5
    _, acts, _ = chain.forward(x)
    prefix = chain.make_prefix(x, acts, 2)
    perturbed = x.copy()
    perturbed[chain.slices[1][0]] += 0.1
    resumed, _, _ = chain.forward(perturbed, prefix)
    direct, _, _ = chain.forward(perturbed)
    assert resumed == direct


def test_chain_stale_prefix_is_rejected():
    chain = LayeredChain(3, 2, seed=3)
    rng = np.random.default_rng(4)
    x = rng.standard_normal(chain.d) * 0.5
    _, acts, _ = chain.forward(x)
    prefix = chain.make_prefix(x, acts, 2)
    stale = x.copy()
    stale[0] += 0.1
    with pytest.raises(StalePrefixError):
        chain.forward(stale, prefix)


def test_chain_forward_prefix_counts_only_the_requested_blocks():
    chain = LayeredChain(3, 2, seed=0)
    x = np.zeros(chain.d)
    acts, forwarded = chain.forward_prefix(x, 2)
    assert forwarded == 2
    assert acts[0] is not None and acts[2] is not None and acts[3] is None


def per_row_loss(chain, x):
    """One row through the chain with plain matrix-vector products."""
    h = chain.h0
    for j, (start, stop) in enumerate(chain.slices, 1):
        w_out, w_in = chain.widths[j], chain.widths[j - 1]
        w = x[start:start + w_out * w_in].reshape(w_out, w_in)
        h = np.tanh(w @ h + x[start + w_out * w_in:stop])
    diff = h - chain.target
    return float(diff @ diff)


def test_chain_batched_forward_equals_per_row_forward_bitwise():
    # Bit-identity of a batch depends on np.matvec and np.vecdot reducing
    # each row in the same order as the one-row products; a BLAS that does
    # not would show up here.
    rng = np.random.default_rng(20)
    for case in range(40):
        p = int(rng.integers(1, 7))
        widths = [int(w) for w in rng.integers(1, 9, size=p + 1)]
        widths[int(rng.integers(0, p + 1))] = 1
        chain = LayeredChain(p, widths, seed=case)
        x = rng.standard_normal(chain.d) * 0.7
        _, acts, _ = chain.forward(x)
        for n in (1, 2, 8):
            for prefix in [None] + [chain.make_prefix(x, acts, j) for j in range(1, p + 1)]:
                # Rows share x before the prefix's block and differ from it on.
                j0 = 1 if prefix is None else prefix.block
                start = chain.slices[j0 - 1][0]
                rows = np.tile(x, (n, 1))
                rows[:, start:] += rng.standard_normal((n, chain.d - start)) * 0.5
                losses, batch_acts, forwarded = chain.forward(rows, prefix)
                assert forwarded == n * (p - j0 + 1)
                assert losses.shape == (n,)
                for k, row in enumerate(rows):
                    loss, row_acts, _ = chain.forward(row, prefix)
                    assert losses[k] == loss == per_row_loss(chain, row)
                    assert batch_acts[p][k].tobytes() == row_acts[p].tobytes()
            batch_prefix, forwarded = chain.forward_prefix(rows, p - 1)
            assert forwarded == n * (p - 1)
            batch_h = np.broadcast_to(batch_prefix[p - 1], (n, widths[p - 1]))  # h_0 is shared
            for k, row in enumerate(rows):
                row_prefix, _ = chain.forward_prefix(row, p - 1)
                assert batch_h[k].tobytes() == row_prefix[p - 1].tobytes()


def test_chain_batched_forward_rejects_a_single_stale_row():
    chain = LayeredChain(3, [2, 1, 3, 2], seed=5)
    x = np.random.default_rng(6).standard_normal(chain.d)
    x[0] = 0.0
    _, acts, _ = chain.forward(x)
    prefix = chain.make_prefix(x, acts, 3)
    rows = np.tile(x, (4, 1))
    rows[:, chain.slices[2][0]:] += 0.5  # at the prefix block: allowed
    chain.forward(rows, prefix)
    for row, column, value in ((2, 1, x[1] + 1e-12), (3, 0, -0.0)):  # -0.0 is not 0.0's bits
        stale = rows.copy()
        stale[row, column] = value
        with pytest.raises(StalePrefixError):
            chain.forward(stale, prefix)
    with pytest.raises(InvalidArgumentError):
        chain.forward(np.zeros((2, 2, chain.d)))
    with pytest.raises(InvalidArgumentError):
        chain.forward(np.zeros((2, chain.d + 1)))


def test_chain_forward_of_moved_points_checks_its_arguments():
    chain = LayeredChain(2, [2, 1, 3], seed=5)
    x = np.zeros(chain.d)
    _, acts, _ = chain.forward(x)
    moved = np.ones((2, chain.d))
    losses, _, forwarded = chain.forward(x, moved=moved)
    assert losses.shape == (2, 4) and forwarded == 2 * 2 * 3 + 1
    with pytest.raises(InvalidArgumentError):
        chain.forward(x, chain.make_prefix(x, acts, 2), moved=moved)
    for bad_x, bad_moved in ((np.zeros((2, chain.d)), moved), (x, np.ones(chain.d)),
                             (x, np.ones((2, chain.d + 1))), (x, np.ones((0, chain.d)))):
        with pytest.raises(InvalidArgumentError):
            chain.forward(bad_x, moved=bad_moved)


def test_equal_energy_point_hits_the_requested_level_in_every_mode():
    quad = BlockQuadratic(9, regime="heterogeneous", seed=0)
    f0 = 0.05
    x = equal_energy_point(quad, f0, seed=3)
    assert quad.value(x) == pytest.approx(f0, rel=1e-9)
    for (start, stop), basis in zip(quad.blocks, quad.bases):
        y = basis.T @ x[start:stop]
        energies = 0.5 * quad.eigenvalues[start:stop] * y * y
        np.testing.assert_allclose(energies, f0 / quad.d, rtol=1e-9)


def test_equal_energy_point_rejects_negative_level():
    quad = BlockQuadratic(4, regime="homogeneous", seed=0)
    with pytest.raises(InvalidArgumentError):
        equal_energy_point(quad, -1.0, seed=0)


@pytest.mark.parametrize("fn", [smoothed_value, smoothed_gradient])
def test_smoothing_rejects_a_negative_epsilon(fn):
    with pytest.raises(InvalidArgumentError, match="epsilon must be >= 0"):
        fn(BlockQuadratic(4, "homogeneous", 0), np.zeros(4), -1.0)


QUAD = BlockQuadratic(4, "heterogeneous", 0)


# Sizes, seeds and stream keys go through errors.integer.
@pytest.mark.parametrize("fn, args, match", [
    (BlockQuadratic, (9.7, "heterogeneous", 0), "dimension must be an integer, got 9.7"),
    (BlockQuadratic, (9, "heterogeneous", 0.9), "seed must be an integer, got 0.9"),
    (BlockQuadratic, (9, "heterogeneous", -1), "seed must be >= 0, got -1"),
    (NoisySample, (QUAD, 1.0, None), "xi_seed must be an integer, got None"),
    (NoisySample(QUAD, 1.0, 0).tilt, (1.5,), "key word must be an integer, got 1.5"),
    (LayeredChain, (1.5, 2, 0), "block count must be an integer, got 1.5"),
    (LayeredChain, (2, 2.5, 0), "each width must be an integer, got 2.5"),
    (LayeredChain, (2, [2, 2.5, 2], 0), "each width must be an integer, got 2.5"),
    (LayeredChain, (2, 2, "0"), "seed must be an integer, got '0'"),
    (equal_energy_point, (QUAD, 1.0, -1), "seed must be >= 0, got -1"),
])
def test_objectives_reject_each_out_of_domain_argument(fn, args, match):
    with pytest.raises(InvalidArgumentError, match=match):
        fn(*args)
