"""Optimizer step rules: hand-computed single steps, equivalences, state shape."""

import math

import numpy as np
import pytest

import zoptim.perturb
from zoptim import (
    AdamState,
    DegenerateScaleError,
    EvalCounter,
    FzooState,
    GroupedMeazoState,
    InvalidArgumentError,
    MeazoState,
    Method,
    NumericFailureError,
    Partition,
    PerturbationSpec,
    SgdState,
    fzoo_step,
    grouped_meazo_step,
    grouped_zo_gradient,
    make_block_quadratic,
    meazo_step,
    radazo_step,
    step_directions,
    zo_adam_step,
    zo_gradient,
    zo_sgd_step,
)
from zoptim.perturb import GAUSSIAN, RADEMACHER


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
    assert state.v == pytest.approx(0.1 * 4.0)
    assert state.t == 1
    upd = (1.0 * u1 + 3.0 * u2) / 2.0
    want = x - (0.2 / (2.0 + 1e-3)) * upd
    np.testing.assert_allclose(out, want, rtol=1e-12)


def test_scalar_adaptive_state_stays_one_scalar_for_any_dimension():
    for d in (1, 50):
        state = MeazoState(eta=1e-3)
        spec = PerturbationSpec(distribution=GAUSSIAN, epsilon=1e-6, base_seed=0)
        quad = make_block_quadratic(d if d == 1 else 49, regime="homogeneous", seed=0)
        x = np.full(quad.d, 0.1)
        for t in range(3):
            _, scalars = zo_gradient(quad.value, x, spec, 2, t)
            x = meazo_step(state, x, scalars, step_directions(spec, t, 2, quad.d))
        assert isinstance(state.v, float)


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
    state = MeazoState(eta=0.1)
    with pytest.raises(InvalidArgumentError):
        meazo_step(state, np.zeros(2), np.array([1.0, 2.0]), iter([np.ones(2)]))


def test_grouped_scalar_adaptive_with_one_block_is_bit_identical_to_ungrouped():
    quad = make_block_quadratic(4, regime="heterogeneous", seed=1)
    spec = PerturbationSpec(distribution=GAUSSIAN, epsilon=1e-6, base_seed=5)
    part = Partition(4, [np.arange(4)])
    plain = MeazoState(eta=1e-3)
    grouped = GroupedMeazoState(p=1, eta=1e-3)
    x_plain = np.full(4, 0.2)
    x_grouped = x_plain.copy()
    for t in range(50):
        dirs = step_directions(spec, t, 2, 4)
        _, s_plain = zo_gradient(quad.value, x_plain, spec, 2, t, None, dirs)
        x_plain = meazo_step(plain, x_plain, s_plain, dirs)
        _, s_grouped = grouped_zo_gradient(quad.value, x_grouped, spec, 2, part, t)
        x_grouped = grouped_meazo_step(
            grouped, x_grouped, s_grouped, part, step_directions(spec, t, 2, 4)
        )
        assert x_plain.tobytes() == x_grouped.tobytes()
    assert grouped.v[0] == plain.v


def test_grouped_scalar_adaptive_equalizes_block_step_lengths():
    part = Partition.from_ranges(2, [(0, 1), (1, 2)])
    state = GroupedMeazoState(p=2, eta=0.1, beta=0.9, zeta=1e-8)
    x = np.zeros(2)
    scalars = np.array([[1.0, 100.0]])
    for t in range(100):
        prev = x
        x = grouped_meazo_step(state, prev, scalars, part, iter([np.ones(2)]))
        step = prev - x
    assert step[0] == pytest.approx(step[1], rel=1e-6)
    assert step[0] == pytest.approx(0.1, rel=1e-6)


def test_grouped_scalar_adaptive_validates_shapes():
    part = Partition.from_ranges(2, [(0, 1), (1, 2)])
    state = GroupedMeazoState(p=2, eta=0.1)
    with pytest.raises(InvalidArgumentError):
        grouped_meazo_step(state, np.zeros(2), np.array([1.0, 2.0]), part, iter([np.ones(2)]))
    with pytest.raises(InvalidArgumentError):
        grouped_meazo_step(
            state, np.zeros(2), np.array([[1.0, 2.0, 3.0]]), part, iter([np.ones(2)])
        )
    with pytest.raises(InvalidArgumentError):
        GroupedMeazoState(p=2, eta=0.1, v=np.zeros(3))


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
    quad = make_block_quadratic(9, regime="heterogeneous", seed=0)
    spec = PerturbationSpec(distribution=GAUSSIAN, epsilon=1e-6, base_seed=3)
    q, t = 3, 7
    x = np.full(9, 0.1)
    want = [(t, i, 0) for i in range(q)]

    dirs = step_directions(spec, t, q, 9)
    _, scalars = zo_gradient(quad.value, x, spec, q, t, None, dirs)
    x_plain = meazo_step(MeazoState(eta=1e-3), x, scalars, dirs)
    assert draw_count == want

    draw_count.clear()
    part = Partition(9, [np.arange(9)])
    dirs = step_directions(spec, t, q, 9)
    _, scalars = grouped_zo_gradient(quad.value, x, spec, q, part, t, None, dirs)
    x_grouped = grouped_meazo_step(GroupedMeazoState(p=1, eta=1e-3), x, scalars, part, dirs)
    assert draw_count == want
    assert x_grouped.tobytes() == x_plain.tobytes()

    draw_count.clear()
    fzoo_step(quad.value, x, FzooState(eta=1e-3, spec=spec, q=q), t)
    assert draw_count == want


def test_a_given_direction_block_matches_the_self_drawn_one():
    quad = make_block_quadratic(9, regime="heterogeneous", seed=0)
    spec = PerturbationSpec(distribution=GAUSSIAN, epsilon=1e-6, base_seed=3)
    x = np.full(9, 0.1)
    est, scalars = zo_gradient(quad.value, x, spec, 3, 5)
    est_b, scalars_b = zo_gradient(quad.value, x, spec, 3, 5, None, step_directions(spec, 5, 3, 9))
    assert est.tobytes() == est_b.tobytes()
    assert scalars.tobytes() == scalars_b.tobytes()
    with pytest.raises(InvalidArgumentError):
        zo_gradient(quad.value, x, spec, 3, 5, None, step_directions(spec, 5, 2, 9))


def test_method_steps_as_its_estimator_and_rule_do_by_hand(draw_count):
    quad = make_block_quadratic(9, regime="heterogeneous", seed=0)
    spec = PerturbationSpec(distribution=GAUSSIAN, epsilon=1e-6, base_seed=3)
    q, t = 3, 7
    x = np.full(9, 0.1)
    method = Method("meazo", 1e-3, spec, q, 9, beta=0.9, beta1=0.5)
    got = method.step(quad.value, x, t)
    assert draw_count == [(t, i, 0) for i in range(q)]

    dirs = step_directions(spec, t, q, 9)
    _, scalars = zo_gradient(quad.value, x, spec, q, t, None, dirs)
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
