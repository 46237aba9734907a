"""Replay-keyed direction sampling: determinism, laws, and validation."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zoptim import (
    DISTRIBUTIONS,
    GAUSSIAN,
    RADEMACHER,
    TERNARY,
    UNIFORM,
    InvalidArgumentError,
    PerturbationSpec,
    ReplayCoordinate,
    batch_directions,
    keyed_generator,
    sample_direction,
    second_moment_scale,
    step_directions,
)
from zoptim import perturb
from zoptim.perturb import _draw, _philox_key


@pytest.mark.parametrize("distribution", DISTRIBUTIONS)
def test_same_replay_coordinate_reproduces_bit_identical_direction(distribution):
    spec = PerturbationSpec(distribution=distribution, epsilon=1e-6, base_seed=7)
    coord = ReplayCoordinate(step=12, sample_index=3, block_index=1)
    first = sample_direction(spec, coord, 16)
    second = sample_direction(spec, coord, 16)
    assert first.tobytes() == second.tobytes()


def test_distinct_replay_coordinates_give_distinct_directions():
    spec = PerturbationSpec(distribution=GAUSSIAN, epsilon=1e-6, base_seed=0)
    base = sample_direction(spec, ReplayCoordinate(5, 0, 0), 8)
    for coord in (ReplayCoordinate(6, 0, 0), ReplayCoordinate(5, 1, 0), ReplayCoordinate(5, 0, 1)):
        assert not np.array_equal(base, sample_direction(spec, coord, 8))


def test_base_seed_changes_the_stream():
    a = PerturbationSpec(distribution=GAUSSIAN, epsilon=1e-6, base_seed=1)
    b = PerturbationSpec(distribution=GAUSSIAN, epsilon=1e-6, base_seed=2)
    coord = ReplayCoordinate(0, 0, 0)
    assert not np.array_equal(sample_direction(a, coord, 8), sample_direction(b, coord, 8))


def test_uniform_directions_live_on_the_unit_sphere():
    spec = PerturbationSpec(distribution=UNIFORM, epsilon=1e-6, base_seed=3)
    for step in range(20):
        u = sample_direction(spec, ReplayCoordinate(step), 12)
        assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)


def test_rademacher_entries_are_plus_minus_one():
    spec = PerturbationSpec(distribution=RADEMACHER, epsilon=1e-6, base_seed=4)
    u = np.concatenate([sample_direction(spec, ReplayCoordinate(s), 32) for s in range(16)])
    assert set(np.unique(u)) == {-1.0, 1.0}


def test_ternary_entries_are_minus_one_zero_one():
    spec = PerturbationSpec(distribution=TERNARY, epsilon=1e-6, base_seed=4)
    u = np.concatenate([sample_direction(spec, ReplayCoordinate(s), 32) for s in range(16)])
    assert set(np.unique(u)) == {-1.0, 0.0, 1.0}


def test_second_moment_scales():
    assert second_moment_scale(GAUSSIAN) == 1.0
    assert second_moment_scale(RADEMACHER) == 1.0
    assert second_moment_scale(UNIFORM, d=10) == pytest.approx(0.1)
    assert second_moment_scale(TERNARY) == pytest.approx(2.0 / 3.0)
    with pytest.raises(InvalidArgumentError):
        second_moment_scale(UNIFORM)


@pytest.mark.parametrize("distribution", DISTRIBUTIONS)
def test_empirical_coordinate_second_moment_matches_scale(distribution):
    rng = keyed_generator(11, 0xABC)
    u = batch_directions(distribution, (40000,), 6, rng)
    scale = second_moment_scale(distribution, d=6)
    assert np.mean(u * u, axis=0) == pytest.approx(scale, rel=0.05)


def test_replay_directions_regenerates_the_per_sample_draws():
    spec = PerturbationSpec(distribution=GAUSSIAN, epsilon=1e-6, base_seed=9)
    got = list(step_directions(spec, step=4, q=3, d=5))
    want = [sample_direction(spec, ReplayCoordinate(4, i, 0), 5) for i in range(3)]
    assert len(got) == 3
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


def test_batch_directions_shape_appends_dimension():
    rng = keyed_generator(0, 1)
    u = batch_directions(GAUSSIAN, (7, 3), 4, rng)
    assert u.shape == (7, 3, 4)


@pytest.mark.parametrize("distribution", DISTRIBUTIONS)
@pytest.mark.parametrize("shape", [(1,), (7, 3), (5, 1)])
def test_batch_directions_into_out_equals_a_fresh_draw(distribution, shape):
    want = batch_directions(distribution, shape, 4, keyed_generator(3, 9))
    buf = np.full(shape + (4,), np.nan)
    got = batch_directions(distribution, shape, 4, keyed_generator(3, 9), out=buf)
    assert got is buf
    assert got.tobytes() == want.tobytes()
    # A view into a larger buffer, as a Monte Carlo loop's short last batch uses.
    big = np.full((shape[0] + 2,) + shape[1:] + (4,), np.nan)
    batch_directions(distribution, shape, 4, keyed_generator(3, 9), out=big[: shape[0]])
    assert big[: shape[0]].tobytes() == want.tobytes()


def reference_draw(distribution, rng, shape):
    """The uniform and Rademacher draws as np.linalg.norm and a fresh product made them."""
    if distribution == UNIFORM:
        z = rng.standard_normal(shape)
        return z / np.linalg.norm(z, axis=-1, keepdims=True)
    if distribution == RADEMACHER:
        return np.subtract(rng.integers(0, 2, size=shape) * 2.0, 1.0)
    return _draw(distribution, rng, shape)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(distribution=st.sampled_from(DISTRIBUTIONS), rows=st.integers(1, 40),
       d=st.integers(1, 300), seed=st.integers(0, 2**32 - 1), into=st.booleans())
def test_draws_equal_the_norm_and_product_expressions_bitwise(distribution, rows, d, seed, into):
    want = reference_draw(distribution, keyed_generator(seed, 5), (rows, d))
    out = np.full((rows, d), np.nan) if into else None
    got = _draw(distribution, keyed_generator(seed, 5), (rows, d), out)
    assert got.tobytes() == want.tobytes()


def test_batch_directions_rejects_a_mismatched_out():
    rng = keyed_generator(0, 1)
    for buf in (np.empty((7, 3, 5)), np.empty((1, 3, 4)), np.empty((7, 3, 4), dtype=np.float32)):
        with pytest.raises(InvalidArgumentError):
            batch_directions(RADEMACHER, (7, 3), 4, rng, out=buf)


def test_keyed_generator_is_deterministic_per_key():
    a = keyed_generator(5, 1, 2).standard_normal(4)
    b = keyed_generator(5, 1, 2).standard_normal(4)
    c = keyed_generator(5, 1, 3).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_spec_rejects_unknown_distribution_and_bad_epsilon():
    with pytest.raises(InvalidArgumentError):
        PerturbationSpec(distribution="cauchy", epsilon=1e-6)
    with pytest.raises(InvalidArgumentError):
        PerturbationSpec(distribution=GAUSSIAN, epsilon=0.0)
    with pytest.raises(InvalidArgumentError):
        PerturbationSpec(distribution=GAUSSIAN, epsilon=float("nan"))
    with pytest.raises(InvalidArgumentError):
        PerturbationSpec(distribution=GAUSSIAN, epsilon=1e-6, base_seed=-1)


def test_replay_coordinate_rejects_negative_indices():
    with pytest.raises(InvalidArgumentError):
        ReplayCoordinate(step=-1)
    with pytest.raises(InvalidArgumentError):
        ReplayCoordinate(step=0, sample_index=-2)
    with pytest.raises(InvalidArgumentError):
        ReplayCoordinate(step=0, block_index=2**32)


def test_sample_direction_rejects_nonpositive_dimension():
    spec = PerturbationSpec(distribution=GAUSSIAN, epsilon=1e-6)
    with pytest.raises(InvalidArgumentError):
        sample_direction(spec, ReplayCoordinate(0), 0)


@pytest.mark.parametrize("base_seed", [0, 2**32 - 1, 2**32, 2**64 - 1])
@pytest.mark.parametrize("step", [0, 1, 127, 128, 2**32 - 1])
def test_bulk_philox_keys_equal_the_seed_sequence_keys(base_seed, step):
    for sample_index in (0, 1, 9, 15, 16, 40, 1023, 1024, 5000):
        for block_index in (0, 1, 2**32 - 1):
            ss = np.random.SeedSequence(
                entropy=base_seed, spawn_key=(step, sample_index, block_index)
            )
            want = ss.generate_state(2, np.uint64).tolist()
            assert _philox_key(base_seed, step, sample_index, block_index) == want


WORD = 2**32 - 1
SEEDS = st.integers(0, 2**64 - 1)
# A key table covers 4096 // width steps, width a power of two up to 1024:
# draw the first and last steps of such chunks as well as any step.
STEPS = st.one_of(
    st.integers(0, WORD),
    st.tuples(st.integers(0, 2**20), st.integers(2, 12), st.integers(0, 1)).map(
        lambda t: min(WORD, max(0, (t[0] << t[1]) - t[2]))),
)
SAMPLES = st.one_of(st.integers(0, 1023), st.integers(1024, WORD),
                    st.sampled_from([0, 1023, 1024, WORD]))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(base_seed=SEEDS, step=STEPS, warm=st.integers(0, 1023), sample_index=SAMPLES,
       block_index=st.integers(0, WORD))
def test_bulk_philox_keys_equal_seed_sequence_keys_for_any_coordinate(base_seed, step, warm,
                                                                      sample_index, block_index):
    # Start from an empty cache, then widen the key tables to fit sample warm.
    perturb._REPLAY.__init__()
    for sample in (warm, sample_index):
        ss = np.random.SeedSequence(entropy=base_seed, spawn_key=(step, sample, block_index))
        want = ss.generate_state(2, np.uint64).tolist()
        assert _philox_key(base_seed, step, sample, block_index) == want


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(distribution=st.sampled_from(DISTRIBUTIONS), d=st.integers(1, 2048), base_seed=SEEDS,
       step=STEPS, sample_index=SAMPLES, block_index=st.integers(0, WORD))
def test_sample_direction_equals_a_keyed_draw_for_any_law_and_dimension(
        distribution, d, base_seed, step, sample_index, block_index):
    spec = PerturbationSpec(distribution=distribution, epsilon=1e-6, base_seed=base_seed)
    got = sample_direction(spec, ReplayCoordinate(step, sample_index, block_index), d)
    want = _draw(distribution, keyed_generator(base_seed, step, sample_index, block_index), d)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("distribution", DISTRIBUTIONS)
@pytest.mark.parametrize("d", [1, 9, 100])
def test_sample_direction_equals_a_draw_from_the_keyed_generator(distribution, d):
    spec = PerturbationSpec(distribution=distribution, epsilon=1e-6, base_seed=21)
    before = [PerturbationSpec(distribution=dist, epsilon=1e-6, base_seed=21)
              for dist in (RADEMACHER, GAUSSIAN)]
    for step in (0, 5, 130):
        for i in range(3):
            # Earlier draws leave state in a reused generator (an odd-length
            # Rademacher draw keeps half of a 64-bit output buffered); the next
            # draw must still start from its coordinate's fresh stream.
            for other in before:
                sample_direction(other, ReplayCoordinate(step + 1, i, 0), 3)
            got = sample_direction(spec, ReplayCoordinate(step, i, 0), d)
            want = _draw(distribution, keyed_generator(21, step, i, 0), d)
            assert got.tobytes() == want.tobytes()


def test_step_directions_rows_are_the_per_sample_draws():
    spec = PerturbationSpec(distribution=UNIFORM, epsilon=1e-6, base_seed=9)
    block = step_directions(spec, 300, 20, 7)
    assert block.shape == (20, 7)
    for i in range(20):
        want = sample_direction(spec, ReplayCoordinate(300, i, 0), 7)
        assert block[i].tobytes() == want.tobytes()
    with pytest.raises(InvalidArgumentError):
        step_directions(spec, 0, 0, 7)


def test_threads_drawing_at_once_get_their_own_streams():
    specs = [PerturbationSpec(distribution=dist, epsilon=1e-6, base_seed=seed)
             for seed, dist in enumerate(DISTRIBUTIONS * 2)]
    want = [[step_directions(spec, t, 3, 5).tobytes() for t in range(0, 600, 7)]
            for spec in specs]
    got = [None] * len(specs)

    def work(k):
        got[k] = [step_directions(specs[k], t, 3, 5).tobytes() for t in range(0, 600, 7)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(specs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert got == want
