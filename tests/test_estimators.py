"""Finite-difference estimators: exactness, grouping, replay, and accounting."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zoptim import (
    DISTRIBUTIONS,
    GAUSSIAN,
    UNIFORM,
    BlockQuadratic,
    EvalCounter,
    InvalidArgumentError,
    LayeredChain,
    NumericFailureError,
    Partition,
    PerturbationSpec,
    ReplayCoordinate,
    chain_as_objective,
    efficient_grouped_eval,
    gradient_estimate,
    projected_gradient,
    sample_direction,
    step_directions,
    zo_gradient,
    zo_scalars,
)
from zoptim import estimators


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
    quad = BlockQuadratic(9, regime="heterogeneous", seed=0)
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

    # The + point is evaluated first; a failure books every value returned
    # and names a copy of the failing point, not the array f was given.
    x, u, eps = np.array([0.5, -1.0]), np.array([1.0, 2.0]), 0.25
    for bad_sign, booked in ((1.0, 1), (-1.0, 2)):
        seen = []

        def f(point, bad_sign=bad_sign):
            seen.append(point)
            return math.inf if np.array_equal(point, x + bad_sign * eps * u) else 1.0

        counter = EvalCounter()
        with pytest.raises(NumericFailureError) as err:
            projected_gradient(f, x, u, eps, counter)
        assert counter.full_forward_calls == booked == len(seen)
        assert err.value.point.tobytes() == (x + bad_sign * eps * u).tobytes()
        assert not np.shares_memory(err.value.point, seen[-1])


def test_zo_gradient_combines_scalars_and_directions():
    a = np.array([1.5, -2.0, 0.25, 1.0])
    spec = PerturbationSpec(distribution=GAUSSIAN, epsilon=1e-6, base_seed=13)
    est = zo_gradient(affine(a), np.zeros(4), spec, q=3, step=8)
    scalars = zo_scalars(affine(a), np.zeros(4), spec, q=3, step=8)
    dirs = [sample_direction(spec, ReplayCoordinate(8, i, 0), 4) for i in range(3)]
    assert scalars == pytest.approx([float(a @ u) for u in dirs], rel=1e-9)
    want = sum(s * u for s, u in zip(scalars, dirs)) / 3
    np.testing.assert_allclose(est, want, rtol=1e-12)


def test_zo_gradient_applies_dimension_scaling_for_uniform_sphere():
    a = np.array([1.0, 2.0])
    spec = PerturbationSpec(distribution=UNIFORM, epsilon=1e-6, base_seed=2)
    est = zo_gradient(affine(a), np.zeros(2), spec, q=1, step=0)
    scalars = zo_scalars(affine(a), np.zeros(2), spec, q=1, step=0)
    u = sample_direction(spec, ReplayCoordinate(0, 0, 0), 2)
    np.testing.assert_allclose(est, 2 * scalars[0] * u, rtol=1e-12)


def test_zo_gradient_long_run_mean_approaches_the_gradient():
    a = np.array([1.0, -0.5, 2.0])
    spec = PerturbationSpec(distribution=GAUSSIAN, epsilon=1e-6, base_seed=21)
    total = np.zeros(3)
    steps = 4000
    for t in range(steps):
        est = zo_gradient(affine(a), np.zeros(3), spec, q=4, step=t)
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


def test_partition_needs_at_least_one_block():
    for build in (lambda: Partition(4, []), lambda: Partition(4, iter([])),
                  lambda: Partition.from_ranges(4, [])):
        with pytest.raises(InvalidArgumentError, match="^a partition needs at least one block$"):
            build()


def test_partition_constructors():
    part = Partition.from_ranges(6, [(0, 2), (2, 6)])
    assert part.p == 2
    assert [list(b) for b in part.blocks] == [[0, 1], [2, 3, 4, 5]]
    part = Partition.contiguous(5, 2)
    assert [list(b) for b in part.blocks] == [[0, 1, 2], [3, 4]]
    with pytest.raises(InvalidArgumentError):
        Partition.contiguous(3, 4)


@pytest.mark.parametrize(
    "blocks",
    [[[0.7, 1.2], [2, 3]], [[0, 1], [2, 3.5]], [[0, 1], [2, "3"]], [[True, False], [2, 3]],
     [[0, 1], [2, float("nan")]]],
)
def test_partition_rejects_non_integral_indices(blocks):
    with pytest.raises(InvalidArgumentError, match="integers"):
        Partition(4, blocks)


@pytest.mark.parametrize(
    "ranges",
    [[(0, 1.5), (1.5, 4)], [(0, 2), (2, 4.5)], [(0, "2"), (2, 4)], [(0, float("inf")), (2, 4)]],
)
def test_partition_from_ranges_rejects_non_integral_bounds(ranges):
    with pytest.raises(InvalidArgumentError, match="integers"):
        Partition.from_ranges(4, ranges)


def test_partition_accepts_integral_floats_and_numpy_integers():
    want = [[0, 1], [2, 3]]
    for part in (Partition(4, [[0.0, 1.0], np.array([2, 3], dtype=np.uint8)]),
                 Partition.from_ranges(4, [(0, 2.0), (np.int64(2), 4)])):
        assert [b.tolist() for b in part.blocks] == want
        assert all(b.dtype == np.intp for b in part.blocks)


def test_grouped_estimator_masks_one_direction_per_sample():
    a = np.array([1.0, -2.0, 3.0, 0.5])
    part = Partition.from_ranges(4, [(0, 2), (2, 4)])
    spec = PerturbationSpec(distribution=GAUSSIAN, epsilon=1e-6, base_seed=3)
    scalars = zo_scalars(affine(a), np.zeros(4), spec, 2, step=5, partition=part)
    assert scalars.shape == (2, 2)
    for i in range(2):
        u = sample_direction(spec, ReplayCoordinate(5, i, 0), 4)
        for j, idx in enumerate(part.blocks):
            assert scalars[i, j] == pytest.approx(float(a[idx] @ u[idx]), rel=1e-9)


@pytest.mark.parametrize("distribution", DISTRIBUTIONS)
def test_grouped_estimator_with_one_block_matches_ungrouped_bitwise(distribution):
    quad = BlockQuadratic(4, regime="heterogeneous", seed=1)
    x = np.full(4, 0.1)
    spec = PerturbationSpec(distribution=distribution, epsilon=1e-5, base_seed=6)
    part = Partition(4, [np.arange(4)])
    grouped_est = zo_gradient(quad.value, x, spec, 3, step=2, partition=part)
    plain_est = zo_gradient(quad.value, x, spec, 3, step=2)
    grouped_scalars = zo_scalars(quad.value, x, spec, 3, step=2, partition=part)
    plain_scalars = zo_scalars(quad.value, x, spec, 3, step=2)
    assert grouped_est.tobytes() == plain_est.tobytes()
    assert grouped_scalars[:, 0].tobytes() == plain_scalars.tobytes()


def test_grouped_estimator_rejects_partition_dimension_mismatch():
    part = Partition(3, [np.arange(3)])
    spec = PerturbationSpec(distribution=GAUSSIAN, epsilon=1e-6)
    with pytest.raises(InvalidArgumentError):
        zo_gradient(affine([1.0, 1.0]), np.zeros(2), spec, 1, 0, partition=part)


def test_grouped_full_evaluation_count_is_2qp():
    quad = BlockQuadratic(4, regime="homogeneous", seed=0)
    part = Partition.from_ranges(4, [(0, 2), (2, 4)])
    counter = EvalCounter()
    spec = PerturbationSpec(distribution=GAUSSIAN, epsilon=1e-6)
    zo_gradient(quad.value, np.zeros(4), spec, 3, 0, counter, partition=part)
    assert counter.full_forward_calls == 2 * 3 * 2


def test_efficient_grouped_eval_matches_naive_grouped_bitwise():
    chain = LayeredChain(3, 2, seed=4)
    part = Partition.from_ranges(chain.d, chain.slices)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(chain.d) * 0.3
    spec = PerturbationSpec(distribution=GAUSSIAN, epsilon=1e-5, base_seed=9)
    eff_scalars = efficient_grouped_eval(chain, x, spec, 2, step=7)
    naive_scalars = zo_scalars(chain.value, x, spec, 2, step=7, partition=part)
    assert eff_scalars.tobytes() == naive_scalars.tobytes()
    eff_est = gradient_estimate(eff_scalars, step_directions(spec, 7, 2, chain.d),
                                spec.distribution, part)
    assert eff_est.tobytes() == zo_gradient(chain.value, x, spec, 2, 7, partition=part).tobytes()


def test_efficient_grouped_eval_block_forward_count_formula():
    p, q = 3, 2
    chain = LayeredChain(p, 2, seed=4)
    x = np.zeros(chain.d)
    spec = PerturbationSpec(distribution=GAUSSIAN, epsilon=1e-5, base_seed=9)
    counter = EvalCounter()
    efficient_grouped_eval(chain, x, spec, q, step=0, counter=counter)
    assert counter.block_forward_calls == p * q * (p + 1) + p - 1
    assert counter.full_forward_calls == 0

    naive = EvalCounter()
    part = Partition.from_ranges(chain.d, chain.slices)
    zo_scalars(chain_as_objective(chain, naive), x, spec, q, 0, partition=part)
    assert naive.block_forward_calls == 2 * q * p * p


def test_efficient_grouped_eval_makes_one_forward_call_per_step():
    p, q = 4, 3
    chain = LayeredChain(p, [2, 3, 1, 2, 2], seed=1)
    calls = []
    forward = chain.forward

    def counted_forward(x, prefix=None, moved=None):
        result = forward(x, prefix, moved)
        calls.append((np.shape(x), prefix, np.shape(moved), result[-1]))
        return result

    def no_prefix_pass(*args):
        raise AssertionError("the layer-wise pass computes x's prefix itself")

    chain.forward = counted_forward
    chain.forward_prefix = chain.make_prefix = no_prefix_pass
    x = np.random.default_rng(2).standard_normal(chain.d)
    spec = PerturbationSpec(distribution=GAUSSIAN, epsilon=1e-5, base_seed=3)
    counter = EvalCounter()
    efficient_grouped_eval(chain, x, spec, q, step=1, counter=counter)
    assert calls == [((chain.d,), None, (q, chain.d), p * q * (p + 1) + p - 1)]
    assert counter.block_forward_calls == p * q * (p + 1) + p - 1


def test_efficient_grouped_eval_names_the_first_failure_in_per_point_order():
    # Sample 1 fails in block 2 and sample 2 in block 1: the per-point order
    # (sample, block, + before -) meets sample 1 first, though block 1 is
    # forwarded first.
    p, q = 3, 3
    chain = LayeredChain(p, 2, seed=4)
    part = Partition.from_ranges(chain.d, chain.slices)
    x = np.random.default_rng(5).standard_normal(chain.d) * 0.3
    spec = PerturbationSpec(distribution=GAUSSIAN, epsilon=1e-5, base_seed=6)
    dirs = np.random.default_rng(7).standard_normal((q, chain.d))
    dirs[1, slice(*chain.slices[1])] = np.nan
    dirs[2, slice(*chain.slices[0])] = np.nan
    with pytest.raises(NumericFailureError) as naive:
        zo_scalars(chain.value, x, spec, q, 0, directions=dirs, partition=part)
    with pytest.raises(NumericFailureError) as efficient:
        efficient_grouped_eval(chain, x, spec, q, 0, directions=dirs)
    assert type(efficient.value.value) is float and np.isnan(efficient.value.value)
    np.testing.assert_array_equal(efficient.value.point, naive.value.point)
    assert np.isnan(efficient.value.point[slice(*chain.slices[1])]).all()
    assert str(efficient.value) == str(naive.value)


def scalars_or_failure(evaluate, *args, **kwargs):
    """(scalars bytes, None), or the NumericFailureError's message and point."""
    try:
        return evaluate(*args, **kwargs).tobytes(), None
    except NumericFailureError as exc:
        return str(exc), exc.point


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(
    widths=st.integers(1, 8).flatmap(
        lambda p: st.lists(st.integers(1, 10), min_size=p + 1, max_size=p + 1)),
    q=st.integers(1, 6),
    log_epsilon=st.floats(-7.0, 0.0),
    distribution=st.sampled_from(DISTRIBUTIONS),
    start=st.sampled_from(["normal", "signed zeros", "nan", "inf"]),
    seed=st.integers(0, 2**16),
)
def test_layerwise_pass_equals_per_block_resumption_and_naive_grouped(
        widths, q, log_epsilon, distribution, start, seed):
    p = len(widths) - 1
    chain = LayeredChain(p, widths, seed)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(chain.d)
    if start == "signed zeros":
        x[rng.random(chain.d) < 0.5] = -0.0
    elif start != "normal":
        x[rng.integers(chain.d)] = np.nan if start == "nan" else -np.inf
    spec = PerturbationSpec(distribution=distribution, epsilon=10.0**log_epsilon, base_seed=seed)
    dirs = step_directions(spec, 3, q, chain.d)
    moved = spec.epsilon * dirs

    losses, acts, forwarded = chain.forward(x, moved=moved)
    assert forwarded == p * q * (p + 1) + p - 1
    prefix_acts, _ = chain.forward_prefix(x, p - 1)
    assert [a.tobytes() for a in acts[:p]] == [a.tobytes() for a in prefix_acts[:p]]
    assert acts[p] is None
    for j, (a, b) in enumerate(chain.slices):
        rows = np.tile(x, (2 * q, 1))
        rows[:q, a:b] += moved[:, a:b]
        rows[q:, a:b] -= moved[:, a:b]
        resumed, _, _ = chain.forward(rows, chain.make_prefix(x, prefix_acts, j + 1))
        assert losses[j].tobytes() == resumed.tobytes()

    part = Partition.from_ranges(chain.d, chain.slices)
    naive = scalars_or_failure(zo_scalars, chain_as_objective(chain), x, spec, q, 3,
                               directions=dirs, partition=part)
    efficient = scalars_or_failure(efficient_grouped_eval, chain, x, spec, q, 3, directions=dirs)
    assert efficient[0] == naive[0]
    # A naive + point adds +0.0 outside its block, which turns -0.0 into 0.0.
    np.testing.assert_array_equal(efficient[1], naive[1])
    if start != "inf":  # an inf weight may saturate tanh or meet a zero activation
        assert isinstance(efficient[0], str) == (start == "nan")


def test_efficient_grouped_eval_requires_sequential_structure():
    quad = BlockQuadratic(4, regime="homogeneous", seed=0)
    spec = PerturbationSpec(distribution=GAUSSIAN, epsilon=1e-6)
    with pytest.raises(InvalidArgumentError):
        efficient_grouped_eval(quad, np.zeros(4), spec, 1, 0)


def test_estimators_reject_nonpositive_q():
    spec = PerturbationSpec(distribution=GAUSSIAN, epsilon=1e-6)
    for estimator in (zo_gradient, zo_scalars):
        for partition in (None, Partition(1, [[0]])):
            with pytest.raises(InvalidArgumentError):
                estimator(affine([1.0]), np.zeros(1), spec, 0, 0, partition=partition)


# The per-direction loops the q-sample and grouped estimators ran before they
# became one point-matrix body; the merged body must match them bit for bit.
def reference_zo_gradient(f, x, spec, q, directions, counter=None):
    x = np.asarray(x, dtype=np.float64)
    d = x.size
    acc = np.zeros(d)
    scalars = np.empty(q)
    for i, u in enumerate(directions):
        s = projected_gradient(f, x, u, spec.epsilon, counter)
        scalars[i] = s
        acc += s * u
    est = acc / q
    if spec.distribution == UNIFORM:
        est = est * d
    return est, scalars


def reference_grouped_zo_gradient(f, x, spec, q, partition, directions, counter=None):
    x = np.asarray(x, dtype=np.float64)
    d = x.size
    acc = np.zeros(d)
    scalars = np.empty((q, partition.p))
    for i, u in enumerate(directions):
        for j, idx in enumerate(partition.blocks):
            masked = np.zeros(d)
            masked[idx] = u[idx]
            s = projected_gradient(f, x, masked, spec.epsilon, counter)
            scalars[i, j] = s
            acc[idx] += s * u[idx]
    est = acc / q
    if spec.distribution == UNIFORM:
        est = est * d
    return est, scalars


def signed_zero_point(d, seed):
    x = np.random.default_rng(seed).standard_normal(d) * 0.2
    x[::3] = -0.0
    return x


def scattered_partition(d, p, seed):
    return Partition(d, np.array_split(np.random.default_rng(seed).permutation(d), p))


@pytest.mark.parametrize("distribution", DISTRIBUTIONS)
@pytest.mark.parametrize("d", [1, 9, 100])
@pytest.mark.parametrize("q", [1, 3])
@pytest.mark.parametrize("p", [1, 3])
def test_point_matrix_estimators_match_the_per_direction_loops_bitwise(distribution, d, q, p):
    quad = BlockQuadratic(d, regime="heterogeneous", seed=2)
    x = signed_zero_point(d, d + q)
    spec = PerturbationSpec(distribution=distribution, epsilon=1e-5, base_seed=11)
    dirs = step_directions(spec, 4, q, d)
    part = scattered_partition(d, min(p, d), p)

    got, want = EvalCounter(), EvalCounter()
    est = zo_gradient(quad.value, x, spec, q, 4)
    scalars = zo_scalars(quad.value, x, spec, q, 4, got)
    ref_est, ref_scalars = reference_zo_gradient(quad.value, x, spec, q, dirs, want)
    assert est.tobytes() == ref_est.tobytes()
    assert scalars.shape == (q,) and scalars.tobytes() == ref_scalars.tobytes()

    est = zo_gradient(quad.value, x, spec, q, 4, partition=part)
    scalars = zo_scalars(quad.value, x, spec, q, 4, got, partition=part)
    ref_est, ref_scalars = reference_grouped_zo_gradient(quad.value, x, spec, q, part, dirs, want)
    assert est.tobytes() == ref_est.tobytes()
    assert scalars.shape == (q, part.p) and scalars.tobytes() == ref_scalars.tobytes()
    assert got == want


@pytest.mark.parametrize("grouped", [False, True])
def test_point_matrix_estimators_stop_at_the_first_nonfinite_point(grouped):
    d, q = 9, 3
    quad = BlockQuadratic(d, regime="heterogeneous", seed=2)
    x = signed_zero_point(d, 1)
    spec = PerturbationSpec(distribution=GAUSSIAN, epsilon=1e-5, base_seed=5)
    dirs = step_directions(spec, 0, q, d)
    part = scattered_partition(d, 3, 0)
    points = 2 * q * (part.p if grouped else 1)

    def failing_at(k, calls):
        def f(row):
            calls.append(row.copy())
            return float("nan") if len(calls) == k + 1 else quad.value(row)
        return f

    for k in range(points):
        calls, ref_calls = [], []
        got, want = EvalCounter(), EvalCounter()
        with pytest.raises(NumericFailureError) as err:
            zo_gradient(failing_at(k, calls), x, spec, q, 0, got, dirs, part if grouped else None)
        with pytest.raises(NumericFailureError) as ref:
            if grouped:
                reference_grouped_zo_gradient(failing_at(k, ref_calls), x, spec, q, part, dirs, want)
            else:
                reference_zo_gradient(failing_at(k, ref_calls), x, spec, q, dirs, want)
        assert len(calls) == k + 1
        assert [c.tobytes() for c in calls] == [c.tobytes() for c in ref_calls]
        assert err.value.point.tobytes() == ref.value.point.tobytes() == calls[k].tobytes()
        assert str(err.value) == str(ref.value)
        assert got == want and got.full_forward_calls == k + 1


SIGNS = np.array([[1.0], [-1.0]])


def unchunked_points(x, spec, directions, partition):
    """Every point of a step as one array, the expression the chunks must reproduce."""
    u = directions[:, None]
    if partition is not None:
        u = np.where(partition.masks, u, 0.0)
    return (x + (spec.epsilon * u)[:, :, None] * SIGNS).reshape(-1, x.size)


COORDINATES = st.one_of(st.floats(-3.0, 3.0), st.sampled_from([-0.0, 0.0, math.inf, -math.inf,
                                                               math.nan]))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(data=st.data(), d=st.integers(1, 24), q=st.integers(1, 4), blocks=st.integers(0, 5),
       seed=st.integers(0, 2**16), fail=st.booleans())
def test_chunked_points_equal_the_unchunked_expression(data, d, q, blocks, seed, fail):
    # blocks == 0 is the ungrouped estimator. Budgets from below one pair's
    # 24 d bytes to above the whole step's force every chunk shape.
    x = np.array(data.draw(st.lists(COORDINATES, min_size=d, max_size=d)))
    partition = scattered_partition(d, min(blocks, d), seed) if blocks else None
    p = partition.p if partition else 1
    budget = data.draw(st.integers(1, 24 * d * q * p + 64))
    spec = PerturbationSpec(distribution=GAUSSIAN, epsilon=1e-3, base_seed=seed)
    dirs = step_directions(spec, 3, q, d)
    want = unchunked_points(x, spec, dirs, partition)
    values = np.random.default_rng(seed).standard_normal(len(want))
    bad = data.draw(st.integers(0, len(want) - 1)) if fail else None
    rows, chunks = [], []

    def f(row):
        rows.append(row.copy())
        return math.nan if len(rows) - 1 == bad else values[len(rows) - 1]

    def recording(*args):
        halves = point_halves(*args)
        chunks.append(halves[0].size)  # the chunk's moved directions
        return halves

    point_halves = estimators._point_halves
    saved = estimators.STEP_BUFFER_BYTES, estimators._point_halves
    estimators.STEP_BUFFER_BYTES, estimators._point_halves = budget, recording
    counter = EvalCounter()
    try:
        if fail:
            with pytest.raises(NumericFailureError) as err:
                zo_scalars(f, x, spec, q, 3, counter, dirs, partition)
            assert err.value.point.tobytes() == want[bad].tobytes()
            assert counter.full_forward_calls == len(rows) == bad + 1
        else:
            scalars = zo_scalars(f, x, spec, q, 3, counter, dirs, partition)
            pairs = (values[0::2] - values[1::2]) / (2.0 * spec.epsilon)
            assert scalars.tobytes() == pairs.tobytes()
            assert scalars.shape == ((q, p) if partition else (q,))
            assert counter.full_forward_calls == len(want)
    finally:
        estimators.STEP_BUFFER_BYTES, estimators._point_halves = saved
    assert b"".join(r.tobytes() for r in rows) == want[:len(rows)].tobytes()
    # A chunk's moved directions and their two signed rows fit the budget, or are one pair.
    assert all(24 * size <= max(budget, 24 * d) for size in chunks)
    if not fail and q * p > 1 and budget < 24 * d * q * p:
        assert len(chunks) > 1


def test_zo_gradient_is_the_gradient_estimate_of_its_scalars():
    quad = BlockQuadratic(9, regime="heterogeneous", seed=2)
    x = signed_zero_point(9, 3)
    spec = PerturbationSpec(distribution=UNIFORM, epsilon=1e-5, base_seed=4)
    part = scattered_partition(9, 3, 1)
    dirs = step_directions(spec, 6, 4, 9)
    for partition in (None, part):
        est = zo_gradient(quad.value, x, spec, 4, 6, partition=partition)
        alone = zo_scalars(quad.value, x, spec, 4, 6, partition=partition)
        assert est.tobytes() == gradient_estimate(alone, dirs, UNIFORM, partition).tobytes()
        ref = (reference_grouped_zo_gradient(quad.value, x, spec, 4, partition, dirs)
               if partition else reference_zo_gradient(quad.value, x, spec, 4, dirs))
        assert est.tobytes() == ref[0].tobytes()
        assert alone.tobytes() == ref[1].tobytes()


def test_gradient_estimate_rejects_scalars_of_the_wrong_shape():
    part = Partition.from_ranges(4, [(0, 2), (2, 4)])
    dirs = np.ones((3, 4))
    for partition, bad in ((part, (3,)), (part, (3, 1)), (part, (3, 3)), (part, (2, 2)),
                           (None, (3, 4)), (None, (2,))):
        with pytest.raises(InvalidArgumentError, match="scalars must have shape"):
            gradient_estimate(np.ones(bad), dirs, GAUSSIAN, partition)
