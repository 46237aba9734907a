"""Optimizer step rules: hand-computed single steps, equivalences, state shape."""

import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zoptim.optimizers
import zoptim.perturb
from zoptim import (
    AdamState,
    BlockQuadratic,
    DegenerateScaleError,
    EvalCounter,
    FzooState,
    InvalidArgumentError,
    LayeredChain,
    MeazoState,
    Method,
    NumericFailureError,
    Partition,
    PerturbationSpec,
    SgdState,
    fzoo_step,
    meazo_step,
    radazo_step,
    step_directions,
    zo_adam_step,
    zo_gradient,
    zo_scalars,
    zo_sgd_step,
)
from zoptim.harness import _vhat_stats
from zoptim.perturb import DISTRIBUTIONS, GAUSSIAN, RADEMACHER, UNIFORM

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from step_memory import step_peak  # noqa: E402  (the bench table's own measurement)


def test_zo_sgd_step_is_a_plain_move_along_the_estimate():
    x = np.array([1.0, 2.0])
    est = np.array([0.5, -1.0])
    np.testing.assert_allclose(zo_sgd_step(x, est, eta=0.1), [0.95, 2.1])
    with pytest.raises(InvalidArgumentError):
        zo_sgd_step(x, est, eta=0.0)
    with pytest.raises(NumericFailureError):
        zo_sgd_step(x, np.array([np.inf, 0.0]), eta=0.1)


def test_zo_adam_first_step_matches_hand_computation():
    state = AdamState(dim=2, eta=0.1, beta1=0.9, beta2=0.999, zeta=1e-8)
    x = np.array([1.0, -1.0])
    e = np.array([2.0, -1.0])
    out = zo_adam_step(state, x, e)
    np.testing.assert_allclose(state.m, 0.1 * e, rtol=1e-15)
    np.testing.assert_allclose(state.v, 0.001 * e * e, rtol=1e-15)
    assert state.t == 1
    want = x - 0.1 * e / (np.abs(e) + 1e-8)
    np.testing.assert_allclose(out, want, rtol=1e-12)


def test_zo_adam_second_step_bias_correction_uses_post_increment_count():
    state = AdamState(dim=1, eta=1.0, beta1=0.5, beta2=0.5, zeta=1e-12)
    x = np.zeros(1)
    x = zo_adam_step(state, x, np.array([1.0]))
    x1 = -1.0 / (1.0 + 1e-12)
    x = zo_adam_step(state, x, np.array([2.0]))
    m = 0.5 * (0.5 * 1.0) + 0.5 * 2.0
    v = 0.5 * (0.5 * 1.0) + 0.5 * 4.0
    mhat = m / (1 - 0.5**2)
    vhat = v / (1 - 0.5**2)
    assert state.t == 2
    assert x[0] == pytest.approx(x1 - mhat / (math.sqrt(vhat) + 1e-12), rel=1e-9)


def test_variance_reduced_adam_second_moment_tracks_the_updated_momentum():
    state = AdamState(dim=1, eta=0.1, beta1=0.9, beta2=0.999, zeta=1e-8)
    e = np.array([3.0])
    out = radazo_step(state, np.zeros(1), e)
    m = 0.1 * 3.0
    np.testing.assert_allclose(state.v, [0.001 * m * m], rtol=1e-15)
    vhat = m * m
    mhat = 3.0
    assert out[0] == pytest.approx(-0.1 * mhat / (math.sqrt(vhat) + 1e-8), rel=1e-12)


def test_scalar_adaptive_first_step_matches_hand_computation():
    state = MeazoState(eta=0.2, beta=0.9, zeta=1e-3)
    x = np.zeros(3)
    u1 = np.array([1.0, 0.0, 0.0])
    u2 = np.array([0.0, 1.0, -1.0])
    scalars = np.array([1.0, 3.0])
    out = meazo_step(state, x, scalars, iter([u1, u2]))
    assert state.v.tolist() == pytest.approx([0.1 * 4.0])
    assert state.t == 1
    upd = (1.0 * u1 + 3.0 * u2) / 2.0
    want = x - (0.2 / (2.0 + 1e-3)) * upd
    np.testing.assert_allclose(out, want, rtol=1e-12)


def test_scalar_adaptive_state_stays_one_scalar_for_any_dimension():
    # MEAZO is the one-block case: one second-moment scalar at every d.
    for d in (1, 50):
        state = MeazoState(eta=1e-3)
        spec = PerturbationSpec(distribution=GAUSSIAN, epsilon=1e-6, base_seed=0)
        quad = BlockQuadratic(d if d == 1 else 49, regime="homogeneous", seed=0)
        x = np.full(quad.d, 0.1)
        for t in range(3):
            scalars = zo_scalars(quad.value, x, spec, 2, t)
            x = meazo_step(state, x, scalars, step_directions(spec, t, 2, quad.d))
        assert state.v.shape == (1,)


def test_scalar_adaptive_second_moment_stays_in_the_hull_of_squared_means():
    state = MeazoState(eta=1e-3, beta=0.99)
    rng = np.random.default_rng(8)
    u = np.ones(1)
    seen = []
    for _ in range(200):
        s = float(rng.normal())
        seen.append(s * s)
        meazo_step(state, np.zeros(1), np.array([s]), iter([u]))
        vhat = state.v / (1 - state.beta**state.t)
        assert min(seen) - 1e-12 <= vhat <= max(seen) + 1e-12


def test_meazo_step_requires_matching_direction_count():
    # Too few and too many directions, each as an array and as an iterator.
    for q, n in ((2, 1), (1, 3)):
        message = f"expected {q} directions, got {n}"
        for directions in (lambda: np.ones((n, 2)), lambda: iter([np.ones(2)] * n)):
            with pytest.raises(InvalidArgumentError, match=message):
                meazo_step(MeazoState(eta=0.1), np.zeros(2), np.arange(1.0, q + 1),
                           directions())
            with pytest.raises(InvalidArgumentError, match=message):
                meazo_step(MeazoState(eta=0.1, p=2), np.zeros(2), np.ones((q, 2)), directions(),
                           Partition.contiguous(2, 2))


def test_a_direction_of_the_wrong_length_is_not_a_count_mismatch():
    # numpy's broadcast error passes through; only the count is checked here.
    with pytest.raises(ValueError) as info:
        meazo_step(MeazoState(eta=0.1), np.zeros(2), np.array([1.0]), np.ones((1, 3)))
    assert not isinstance(info.value, InvalidArgumentError)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(
    distribution=st.sampled_from(DISTRIBUTIONS),
    d=st.integers(1, 64),
    q=st.integers(1, 64),
    seed=st.integers(0, 2**32 - 1),
    steps=st.integers(1, 3),
)
def test_meazo_step_with_one_block_equals_no_partition(distribution, d, q, seed, steps):
    # numpy sums 8 or more scalars with another reduction than fewer, so q
    # runs past 8; scalars over many magnitudes let a different order show.
    rng = np.random.default_rng(seed)
    spec = PerturbationSpec(distribution=distribution, epsilon=1e-4, base_seed=seed)
    part = Partition(d, [np.arange(d)])
    # A short EMA memory lets a last-bit difference in the mean scalar reach v.
    plain, grouped = MeazoState(eta=1e-2, beta=0.5), MeazoState(eta=1e-2, beta=0.5)
    x_plain = x_grouped = rng.standard_normal(d)
    for t in range(steps):
        scalars = rng.standard_normal(q) * 10.0 ** rng.integers(-8, 9, size=q)
        dirs = step_directions(spec, t, q, d)
        x_plain = meazo_step(plain, x_plain, scalars, dirs)
        x_grouped = meazo_step(grouped, x_grouped, scalars[:, None].copy(), dirs, part)
        assert x_grouped.tobytes() == x_plain.tobytes()
        assert grouped.v.tobytes() == plain.v.tobytes() and grouped.t == plain.t == t + 1


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(
    distribution=st.sampled_from(DISTRIBUTIONS),
    d=st.integers(1, 64),
    q=st.integers(1, 8),
    base_seed=st.integers(0, 2**64 - 1),
    steps=st.integers(1, 4),
)
def test_one_block_grouping_equals_ungrouped_for_any_law_and_size(distribution, d, q, base_seed,
                                                                  steps):
    curvature = np.linspace(0.5, 2.0, d)

    def f(x):
        return 0.5 * float(curvature @ (x * x)) - float(x.sum())

    spec = PerturbationSpec(distribution=distribution, epsilon=1e-4, base_seed=base_seed)
    part = Partition(d, [np.arange(d)])
    # A short EMA memory lets a last-bit difference in the mean scalar reach v.
    plain = Method("meazo", 1e-2, spec, q, d=d, beta=0.5)
    grouped = Method("meazo-grouped", 1e-2, spec, q, d=d, partition=part, beta=0.5)
    x_plain = np.linspace(-1.0, 1.0, d)
    x_grouped = x_plain.copy()
    for t in range(steps):
        est = zo_gradient(f, x_plain, spec, q, t)
        grouped_est = zo_gradient(f, x_grouped, spec, q, t, partition=part)
        scalars = zo_scalars(f, x_plain, spec, q, t)
        grouped_scalars = zo_scalars(f, x_grouped, spec, q, t, partition=part)
        assert grouped_est.tobytes() == est.tobytes()
        assert grouped_scalars[:, 0].tobytes() == scalars.tobytes()
        x_plain = plain.step(f, x_plain, t)
        x_grouped = grouped.step(f, x_grouped, t)
        assert x_grouped.tobytes() == x_plain.tobytes()
        assert grouped.state.v.tobytes() == plain.state.v.tobytes()


def test_grouped_scalar_adaptive_equalizes_block_step_lengths():
    part = Partition.from_ranges(2, [(0, 1), (1, 2)])
    state = MeazoState(eta=0.1, beta=0.9, zeta=1e-8, p=2)
    x = np.zeros(2)
    scalars = np.array([[1.0, 100.0]])
    for t in range(100):
        prev = x
        x = meazo_step(state, prev, scalars, iter([np.ones(2)]), part)
        step = prev - x
    assert step[0] == pytest.approx(step[1], rel=1e-6)
    assert step[0] == pytest.approx(0.1, rel=1e-6)


def test_grouped_scalar_adaptive_validates_shapes():
    part = Partition.from_ranges(2, [(0, 1), (1, 2)])
    state = MeazoState(eta=0.1, p=2)
    with pytest.raises(InvalidArgumentError):
        meazo_step(state, np.zeros(2), np.array([1.0, 2.0]), iter([np.ones(2)]), part)
    with pytest.raises(InvalidArgumentError):
        meazo_step(state, np.zeros(2), np.array([[1.0, 2.0, 3.0]]), iter([np.ones(2)]), part)
    with pytest.raises(InvalidArgumentError):  # (q,) scalars are one block; the state has two
        meazo_step(state, np.zeros(2), np.array([1.0, 2.0]), iter([np.ones(2)] * 2))
    with pytest.raises(InvalidArgumentError):
        MeazoState(eta=0.1, p=2, v=np.zeros(3))


def test_state_hyperparameter_validation():
    with pytest.raises(InvalidArgumentError):
        MeazoState(eta=0.0)
    with pytest.raises(InvalidArgumentError):
        MeazoState(eta=0.1, zeta=0.0)
    with pytest.raises(InvalidArgumentError):
        MeazoState(eta=0.1, beta=1.0)
    AdamState(dim=2, eta=0.1, beta1=0.0)
    with pytest.raises(InvalidArgumentError):
        AdamState(dim=2, eta=0.1, beta1=1.0)
    with pytest.raises(InvalidArgumentError):
        AdamState(dim=0, eta=0.1)
    with pytest.raises(InvalidArgumentError):
        FzooState(eta=0.1, spec=PerturbationSpec(GAUSSIAN, 1e-6), q=1)


def test_forward_only_step_matches_hand_computation_on_affine():
    a = np.array([1.0, 2.0])

    def f(x):
        return float(a @ np.asarray(x, dtype=np.float64))

    spec = PerturbationSpec(distribution=GAUSSIAN, epsilon=1e-4, base_seed=3)
    state = FzooState(eta=0.5, spec=spec, q=3)
    x = np.array([0.3, -0.2])
    counter = EvalCounter()
    out, sigma = fzoo_step(f, x, state, step=6, counter=counter)
    assert counter.full_forward_calls == 4

    dirs = step_directions(spec, 6, 3, 2)
    losses = np.array([f(x + 1e-4 * u) for u in dirs])
    want_sigma = float(np.std(losses))
    assert sigma == pytest.approx(want_sigma, rel=1e-12)
    g = sum((losses[i] - f(x)) * dirs[i] for i in range(3)) / (1e-4 * 3 * want_sigma)
    np.testing.assert_allclose(out, x - 0.5 * g, rtol=1e-10)


def test_forward_only_step_rejects_a_degenerate_loss_scale():
    spec = PerturbationSpec(distribution=RADEMACHER, epsilon=1e-4, base_seed=0)
    state = FzooState(eta=0.1, spec=spec, q=2)
    with pytest.raises(DegenerateScaleError):
        fzoo_step(lambda x: 1.0, np.zeros(3), state, step=0)


def test_forward_only_step_raises_on_nonfinite_loss():
    spec = PerturbationSpec(distribution=GAUSSIAN, epsilon=1e-4, base_seed=0)
    state = FzooState(eta=0.1, spec=spec, q=2)
    with pytest.raises(NumericFailureError):
        fzoo_step(lambda x: float("inf"), np.zeros(2), state, step=0)


# fzoo_step's own loops before it shared the estimators' oracle loop and
# direction sum; the shared arithmetic must match them bit for bit.
def reference_fzoo_step(f, x, state, step, counter=None):
    x = np.asarray(x, dtype=np.float64)
    d = x.size
    q = state.q
    eps = state.epsilon

    f0 = float(f(x))
    if counter is not None:
        counter.add_full(1)
    if not np.isfinite(f0):
        raise NumericFailureError("objective returned non-finite value", point=x, value=f0)

    directions = step_directions(state.spec, step, q, d)
    losses = np.empty(q)
    for i, u in enumerate(directions):
        point = x + eps * u
        fi = float(f(point))
        if counter is not None:
            counter.add_full(1)
        if not np.isfinite(fi):
            raise NumericFailureError("objective returned non-finite value", point=point, value=fi)
        losses[i] = fi

    sigma = float(np.std(losses))
    if sigma == 0.0:
        raise DegenerateScaleError("all perturbed losses are equal; loss scale is undefined")

    acc = np.zeros(d)
    for i, u in enumerate(directions):
        acc += (losses[i] - f0) * u
    g = acc / (eps * q * sigma)
    return x - state.eta * g, sigma


@pytest.mark.parametrize("distribution", DISTRIBUTIONS)
@pytest.mark.parametrize("d", [1, 9, 100])
@pytest.mark.parametrize("q", [2, 5])
def test_forward_only_step_matches_its_old_loops_bitwise(distribution, d, q):
    quad = BlockQuadratic(d, regime="heterogeneous", seed=2)
    x = np.random.default_rng(d + q).standard_normal(d) * 0.2
    x[1::3] = -0.0
    spec = PerturbationSpec(distribution=distribution, epsilon=1e-5, base_seed=11)
    state = FzooState(eta=1e-2, spec=spec, q=q)

    def outcome(step, counter):
        try:
            out, sigma = step(quad.value, x, state, 4, counter)
        except DegenerateScaleError:  # at d=1 every draw but a Gaussian one is +-1
            return "degenerate"
        return out.tobytes(), np.float64(sigma).tobytes()

    got, want = EvalCounter(), EvalCounter()
    assert outcome(fzoo_step, got) == outcome(reference_fzoo_step, want)
    assert got == want and got.full_forward_calls == q + 1

    for bad in (math.inf, math.nan):
        for k in range(q + 1):  # point 0 is x itself, for f0
            def failing_at(calls):
                def f(row):
                    calls.append(row.copy())
                    return bad if len(calls) == k + 1 else quad.value(row)
                return f

            calls, ref_calls = [], []
            got, want = EvalCounter(), EvalCounter()
            with pytest.raises(NumericFailureError) as err:
                fzoo_step(failing_at(calls), x, state, 4, got)
            with pytest.raises(NumericFailureError) as ref:
                reference_fzoo_step(failing_at(ref_calls), x, state, 4, want)
            assert [c.tobytes() for c in calls] == [c.tobytes() for c in ref_calls]
            assert err.value.point.tobytes() == ref.value.point.tobytes() == calls[k].tobytes()
            assert got == want and got.full_forward_calls == k + 1


@pytest.fixture
def draw_count(monkeypatch):
    """Counts sample_direction calls made through step_directions and the estimators."""
    calls = []
    original = zoptim.perturb.sample_direction

    def counted(spec, coord, d):
        calls.append((coord.step, coord.sample_index, coord.block_index))
        return original(spec, coord, d)

    monkeypatch.setattr(zoptim.perturb, "sample_direction", counted)
    return calls


def test_each_direction_is_drawn_once_per_step(draw_count):
    quad = BlockQuadratic(9, regime="heterogeneous", seed=0)
    spec = PerturbationSpec(distribution=GAUSSIAN, epsilon=1e-6, base_seed=3)
    q, t = 3, 7
    x = np.full(9, 0.1)
    want = [(t, i, 0) for i in range(q)]

    dirs = step_directions(spec, t, q, 9)
    scalars = zo_scalars(quad.value, x, spec, q, t, None, dirs)
    x_plain = meazo_step(MeazoState(eta=1e-3), x, scalars, dirs)
    assert draw_count == want

    draw_count.clear()
    part = Partition(9, [np.arange(9)])
    dirs = step_directions(spec, t, q, 9)
    scalars = zo_scalars(quad.value, x, spec, q, t, None, dirs, part)
    x_grouped = meazo_step(MeazoState(eta=1e-3), x, scalars, dirs, part)
    assert draw_count == want
    assert x_grouped.tobytes() == x_plain.tobytes()

    draw_count.clear()
    fzoo_step(quad.value, x, FzooState(eta=1e-3, spec=spec, q=q), t)
    assert draw_count == want


def test_a_given_direction_block_matches_the_self_drawn_one():
    quad = BlockQuadratic(9, regime="heterogeneous", seed=0)
    spec = PerturbationSpec(distribution=GAUSSIAN, epsilon=1e-6, base_seed=3)
    x = np.full(9, 0.1)
    for estimator in (zo_gradient, zo_scalars):
        drawn = estimator(quad.value, x, spec, 3, 5)
        given = estimator(quad.value, x, spec, 3, 5, None, step_directions(spec, 5, 3, 9))
        assert drawn.tobytes() == given.tobytes()
        with pytest.raises(InvalidArgumentError):
            estimator(quad.value, x, spec, 3, 5, None, step_directions(spec, 5, 2, 9))


def test_method_steps_as_its_estimator_and_rule_do_by_hand(draw_count):
    quad = BlockQuadratic(9, regime="heterogeneous", seed=0)
    spec = PerturbationSpec(distribution=GAUSSIAN, epsilon=1e-6, base_seed=3)
    q, t = 3, 7
    x = np.full(9, 0.1)
    method = Method("meazo", 1e-3, spec, q, 9, beta=0.9, beta1=0.5)
    got = method.step(quad.value, x, t)
    assert draw_count == [(t, i, 0) for i in range(q)]

    dirs = step_directions(spec, t, q, 9)
    scalars = zo_scalars(quad.value, x, spec, q, t, None, dirs)
    state = MeazoState(eta=1e-3, beta=0.9)
    assert got.tobytes() == meazo_step(state, x, scalars, dirs).tobytes()
    assert method.state == state
    assert method.state.vhat == state.v / (1.0 - 0.9)


def test_method_builds_each_state_and_rejects_what_it_cannot_step():
    spec = PerturbationSpec(distribution=GAUSSIAN, epsilon=1e-4, base_seed=0)
    part = Partition.contiguous(4, 2)
    assert Method("zo-sgd", 0.1, spec, 2, 4, beta=0.5).state == SgdState(eta=0.1)
    assert Method("radazo", 0.1, spec, 2, 4, beta2=0.9).state.v.shape == (4,)
    assert Method("meazo-grouped", 0.1, spec, 2, 4, part).state.v.shape == (2,)
    fzoo = Method("fzoo", 0.1, spec, 2, 4)
    assert fzoo.state.sigma is None
    fzoo.step(lambda x: float(x @ x), np.ones(4), 0)
    assert fzoo.state.sigma > 0
    for name in ("sgd", "meazo-grouped"):
        with pytest.raises(InvalidArgumentError):
            Method(name, 0.1, spec, 2, 4)
    with pytest.raises(InvalidArgumentError):
        Method("zo-sgd", 0.0, spec, 2, 4)
    with pytest.raises(InvalidArgumentError):
        Method("fo-adam", 0.1, spec, 2, 4).step(lambda x: 0.0, np.zeros(4), 0)


@pytest.mark.parametrize("name", ["meazo", "fzoo"])
def test_method_rejects_a_partition_its_step_cannot_use(name):
    spec = PerturbationSpec(distribution=GAUSSIAN, epsilon=1e-4, base_seed=0)
    with pytest.raises(InvalidArgumentError, match=f"{name} does not support a partition"):
        Method(name, 0.1, spec, 2, 4, partition=Partition.contiguous(4, 2))


def record_estimator_calls(monkeypatch):
    """The names of the estimator functions Method.step calls, in call order."""
    calls = []
    for name in ("zo_scalars", "efficient_grouped_eval", "gradient_estimate"):
        def recorded(*args, _fn=getattr(zoptim.optimizers, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(zoptim.optimizers, name, recorded)
    return calls


VECTOR_RULES = {
    "zo-sgd": lambda state, x, est: zo_sgd_step(x, est, state.eta),
    "zo-adam": zo_adam_step,
    "radazo": radazo_step,
}


@pytest.mark.parametrize("grouped", [False, True], ids=["plain", "grouped"])
@pytest.mark.parametrize("name", sorted(VECTOR_RULES))
def test_vector_state_methods_step_on_the_estimate_of_one_scalars_call(monkeypatch, name,
                                                                        grouped):
    quad = BlockQuadratic(9, regime="heterogeneous", seed=0)
    spec = PerturbationSpec(distribution=UNIFORM, epsilon=1e-6, base_seed=3)
    part = Partition.contiguous(9, 3) if grouped else None
    method = Method(name, 1e-2, spec, 3, 9, part)
    hand = Method(name, 1e-2, spec, 3, 9, part).state
    calls = record_estimator_calls(monkeypatch)
    x = y = np.full(9, 0.1)
    for t in range(3):
        x = method.step(quad.value, x, t)
        assert calls == ["zo_scalars", "gradient_estimate"]
        calls.clear()
        y = VECTOR_RULES[name](hand, y, zo_gradient(quad.value, y, spec, 3, t, partition=part))
        assert x.tobytes() == y.tobytes()


@pytest.mark.parametrize("name", ["meazo", "meazo-grouped"])
def test_scalar_state_methods_build_no_estimate(monkeypatch, name):
    quad = BlockQuadratic(9, regime="heterogeneous", seed=0)
    spec = PerturbationSpec(distribution=GAUSSIAN, epsilon=1e-6, base_seed=3)
    part = Partition.contiguous(9, 3) if name == "meazo-grouped" else None
    method = Method(name, 1e-2, spec, 3, 9, part)
    calls = record_estimator_calls(monkeypatch)
    method.step(quad.value, np.full(9, 0.1), 0)
    assert calls == ["zo_scalars"]


@pytest.mark.parametrize("name", ["zo-sgd", "radazo", "meazo-grouped"])
def test_a_chain_step_reads_its_scalars_from_one_layerwise_pass(monkeypatch, name):
    chain = LayeredChain(3, [2, 3, 1, 2], seed=4)
    part = Partition.from_ranges(chain.d, chain.slices)
    spec = PerturbationSpec(distribution=GAUSSIAN, epsilon=1e-5, base_seed=9)
    cached = Method(name, 1e-2, spec, 2, chain.d, part, chain)
    naive = Method(name, 1e-2, spec, 2, chain.d, part)
    calls = record_estimator_calls(monkeypatch)
    x = y = np.random.default_rng(0).standard_normal(chain.d) * 0.3
    for t in range(3):
        x = cached.step(chain.value, x, t)
        assert calls[0] == "efficient_grouped_eval" and "zo_scalars" not in calls
        y = naive.step(chain.value, y, t)
        calls.clear()
        assert x.tobytes() == y.tobytes()


def test_a_method_over_a_chain_takes_only_the_chains_layers_as_its_partition():
    chain = LayeredChain(3, 2, seed=4)
    (a0, b0), (a1, b1), (a2, b2) = chain.slices
    shifted = Partition.from_ranges(chain.d, [(a0, b0 + 1), (a1 + 1, b1), (a2, b2)])
    spec = PerturbationSpec(distribution=GAUSSIAN, epsilon=1e-5, base_seed=9)
    for name in ("zo-sgd", "meazo-grouped"):
        with pytest.raises(InvalidArgumentError, match="the chain's layers"):
            Method(name, 1e-2, spec, 2, chain.d, shifted, chain)


# The step rules and the trace's v-hat statistics before their means became
# np.add.reduce(a, axis) / n; the new reductions must give the same bytes.
def reference_meazo_step(state, x, scalars, directions):
    q = scalars.size
    g = float(scalars.mean())
    state.v = state.beta * state.v + (1.0 - state.beta) * g * g
    state.t += 1
    upd = np.zeros_like(x)
    for s, u in zip(scalars, directions):
        upd += s * u
    upd /= q
    return x - (state.eta / (math.sqrt(state.vhat[0]) + state.zeta)) * upd


def reference_grouped_meazo_step(state, x, scalars, partition, directions):
    q = scalars.shape[0]
    g = scalars.mean(axis=0)
    state.v = state.beta * state.v + (1.0 - state.beta) * g * g
    state.t += 1
    block = partition.block_of
    coord_scalars = scalars[:, block]
    upd = np.zeros_like(x)
    for i, u in enumerate(directions):
        upd += coord_scalars[i] * u
    upd /= q
    coef = state.eta / (np.sqrt(state.vhat) + state.zeta)
    return x - coef[block] * upd


def reference_vhat_stats(state):
    vhat = getattr(state, "vhat", None)
    if vhat is None or state.t == 0:
        return 0.0, 0.0, 0.0
    if isinstance(vhat, float):
        return float(vhat), float(vhat), float(vhat)
    return float(vhat.min()), float(vhat.max()), float(vhat.mean())


def stats_bytes(stats):
    return np.array(stats).tobytes()


@pytest.mark.parametrize("p", [1, 3, 8])
@pytest.mark.parametrize("q", [1, 2, 10])
def test_step_rule_reductions_match_the_mean_versions_bitwise(p, q):
    d = 17
    rng = np.random.default_rng(100 * p + q)
    part = Partition.contiguous(d, p)
    states = [MeazoState(eta=1e-2, beta=0.9, p=p) for _ in range(2)]
    plain = [MeazoState(eta=1e-2, beta=0.9) for _ in range(2)]
    x = rng.standard_normal(d)
    xs, ys = x.copy(), x.copy()
    for _ in range(6):
        # Scalars over many magnitudes, so a different summation order shows.
        scalars = rng.standard_normal((q, p)) * 10.0 ** rng.integers(-8, 9, size=(q, p))
        dirs = rng.standard_normal((q, d))
        got = meazo_step(states[0], x, scalars, dirs, part)
        want = reference_grouped_meazo_step(states[1], x, scalars, part, dirs)
        assert got.tobytes() == want.tobytes()
        assert states[0].v.tobytes() == states[1].v.tobytes()
        assert stats_bytes(_vhat_stats(states[0])) == stats_bytes(reference_vhat_stats(states[1]))
        xs = meazo_step(plain[0], xs, scalars[:, 0].copy(), dirs)
        ys = reference_meazo_step(plain[1], ys, scalars[:, 0].copy(), dirs)
        assert xs.tobytes() == ys.tobytes() and plain[0].v.tobytes() == plain[1].v.tobytes()
        assert stats_bytes(_vhat_stats(plain[0])) == stats_bytes(reference_vhat_stats(plain[1]))
        x = got


def test_vhat_stats_match_the_mean_version_on_per_coordinate_moments():
    rng = np.random.default_rng(3)
    for dim in (1, 3, 8, 100, 1024):
        state = AdamState(dim=dim, eta=1e-3)
        assert _vhat_stats(state) == (0.0, 0.0, 0.0)
        state.v = rng.standard_normal(dim) ** 2 * 10.0 ** rng.integers(-8, 9, size=dim)
        state.t = 3
        assert stats_bytes(_vhat_stats(state)) == stats_bytes(reference_vhat_stats(state))


@pytest.mark.parametrize("p", [1, 8, 32])
def test_grouped_step_memory_does_not_grow_with_the_block_count(p):
    # The paper's claim: MEAZO's adaptivity at ZO-SGD's memory; a grouped
    # step's points are built a bounded chunk at a time (10 and 40 chunks at
    # p = 8 and 32). Beside one chunk, whose moved directions and numpy
    # iterator buffers perturb.BUFFER_BYTES counts, a step holds its (q, d)
    # direction block; its update's arrays take less than the two together.
    d, q = 1024, 10
    quad = BlockQuadratic(d, regime="heterogeneous", seed=0)
    spec = PerturbationSpec(distribution=GAUSSIAN, epsilon=1e-6, base_seed=0)
    x0 = np.random.default_rng(0).standard_normal(d) * 0.1
    plain = step_peak(Method("meazo", 1e-4, spec, q, d), quad.value, x0)
    grouped = step_peak(Method("meazo-grouped", 1e-4, spec, q, d,
                               partition=Partition.contiguous(d, p)), quad.value, x0)
    assert grouped <= 1.5 * plain, (grouped, plain)
    assert grouped <= zoptim.perturb.BUFFER_BYTES + 8 * q * d, grouped



@pytest.mark.parametrize("fn, args, match", [
    (lambda: MeazoState(eta=0.1, p=0), (), "block count must be >= 1"),
    (lambda: FzooState(eta=0.0, spec=PerturbationSpec("gaussian", 1e-4, 0), q=2), (),
     "eta must be > 0"),
    (meazo_step, (MeazoState(eta=0.1, p=2), np.zeros(4), np.ones((1, 2)), np.ones((1, 4)),
                  Partition.contiguous(6, 2)), "partition is over 6 coordinates, x has 4"),
    (lambda: SgdState(eta=0.0), (), "eta must be > 0, got 0.0"),
    (lambda: AdamState(dim=1, eta=0.0), (), "eta must be > 0, got 0.0"),
    (zo_sgd_step, (np.zeros(1), np.zeros(1), 0.0), "eta must be > 0, got 0.0"),
    # Sizes and counts go through errors.integer.
    (lambda: MeazoState(eta=1e-3, p=1.5), (), "block count must be an integer, got 1.5"),
    (lambda: AdamState(dim=2.5, eta=1e-3), (), "dimension must be an integer, got 2.5"),
    (lambda: FzooState(eta=1e-3, spec=PerturbationSpec("gaussian", 1e-4, 0), q=2.5), (),
     "q must be an integer, got 2.5"),
    (Method, ("zo-sgd", 1e-3, PerturbationSpec("gaussian", 1e-4, 0), 1.5, 4),
     "q must be an integer, got 1.5"),
    (Method, ("zo-sgd", 1e-3, PerturbationSpec("gaussian", 1e-4, 0), 1, None),
     "dimension must be an integer, got None"),
])
def test_optimizers_reject_each_out_of_domain_argument(fn, args, match):
    with pytest.raises(InvalidArgumentError, match=match):
        fn(*args)
