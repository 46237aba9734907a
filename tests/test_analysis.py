"""Analysis suite: moment formulas, statistics, bounds, and study drivers."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zoptim import analysis
from zoptim import (
    BlockQuadratic,
    InvalidArgumentError,
    PreconditionError,
    bound_check_run,
    check_meazo_condition,
    check_smoothing_inequalities,
    classical_sgd_bound,
    collapse_study,
    mc_squared_moment,
    meazo_bound,
    moment_report,
    predicted_squared_moment,
    theorem_constants,
    vt_collapse_metric,
    vt_statistics,
    zosgd_bound,
)
from zoptim.perturb import (
    DISTRIBUTIONS, GAUSSIAN, RADEMACHER, TERNARY, UNIFORM, batch_directions, keyed_generator,
)


def test_predicted_squared_moment_gaussian_hand_case():
    got = predicted_squared_moment(np.array([1.0, 0.0]), q=1, distribution=GAUSSIAN)
    np.testing.assert_allclose(got, [3.0, 1.0], rtol=1e-14)


def test_predicted_squared_moment_uniform_hand_cases():
    g = np.array([1.0, 0.0])
    np.testing.assert_allclose(
        predicted_squared_moment(g, q=1, distribution=UNIFORM), [1.5, 0.5], rtol=1e-14
    )
    np.testing.assert_allclose(
        predicted_squared_moment(g, q=2, distribution=UNIFORM), [1.25, 0.25], rtol=1e-14
    )


def test_predicted_squared_moment_gaussian_general_formula():
    g = np.array([0.3, -1.2, 0.5])
    got = predicted_squared_moment(g, q=4, distribution=GAUSSIAN)
    want = (np.dot(g, g) + g * g) / 4 + g * g
    np.testing.assert_allclose(got, want, rtol=1e-14)


def test_monte_carlo_moment_agrees_with_prediction_within_error_bars():
    g = np.array([0.8, -0.6])
    for dist in (GAUSSIAN, UNIFORM):
        mean, se = mc_squared_moment(g, q=2, distribution=dist, n=200_000, seed=3)
        pred = predicted_squared_moment(g, q=2, distribution=dist)
        assert np.all(np.abs(mean - pred) <= 5 * se)


def reference_mc_squared_moment(g, q, distribution, n, seed=0, batch=32768):
    """The allocate-per-batch Monte Carlo loop that mc_squared_moment's reused
    buffers must reproduce bit for bit."""
    g = np.asarray(g, dtype=np.float64)
    d = g.size
    rng = keyed_generator(seed, 0x3C0)
    acc = np.zeros(d)
    acc_sq = np.zeros(d)
    done = 0
    while done < n:
        b = min(batch, n - done)
        u = batch_directions(distribution, (b, q), d, rng)
        s = u @ g
        est = np.einsum("bq,bqd->bd", s, u) / q
        if distribution == UNIFORM:
            est = est * d
        sq = est * est
        acc += sq.sum(axis=0)
        acc_sq += (sq * sq).sum(axis=0)
        done += b
    mean = acc / n
    var = acc_sq / n - mean * mean
    se = np.sqrt(np.maximum(var, 0.0) / n)
    return mean, se


@pytest.mark.parametrize("distribution", DISTRIBUTIONS)
@pytest.mark.parametrize("d", [1, 2, 8])
@pytest.mark.parametrize("q", [1, 3])
def test_buffered_monte_carlo_moment_is_bit_identical_to_the_reference(monkeypatch, distribution,
                                                                       d, q):
    g = np.random.default_rng(d * 10 + q).standard_normal(d)
    with monkeypatch.context() as patch:
        patch.setattr(analysis, "MC_BATCH", 64)
        for n in (1, 63, 64, 133):
            _assert_moment_matches_reference(g, q, distribution, n)
    _assert_moment_matches_reference(g, q, distribution, 40_000)


def _assert_moment_matches_reference(g, q, distribution, n):
    got = mc_squared_moment(g, q, distribution, n, seed=4)
    want = reference_mc_squared_moment(g, q, distribution, n, seed=4, batch=analysis.MC_BATCH)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]), n


def test_numpy_sums_a_row_block_in_row_order_and_a_column_pairwise():
    # mc_squared_moment relies on both: a carried row continues an axis-0 sum
    # at d >= 2, and a d = 1 batch must be summed as one column.
    rng = np.random.default_rng(0)
    for d in (2, 3, 8, 100, 1024):
        for n in (1, 2, 9, 130, 4097):
            a = rng.standard_normal((n, d)) * np.exp(rng.uniform(-20, 20, (n, d)))
            in_order = a[0].copy()
            for row in a[1:]:
                in_order += row
            assert np.array_equal(a.sum(axis=0), in_order)
            for m in {1, n // 2, n - 1} - {0, n}:
                carried = np.vstack([a[:m].sum(axis=0), a[m:]])
                assert np.array_equal(carried.sum(axis=0), in_order)
    column = rng.standard_normal((1000, 1)) * np.exp(rng.uniform(-20, 20, (1000, 1)))
    in_order = column[0].copy()
    for row in column[1:]:
        in_order += row
    assert column.sum(axis=0)[0] == np.add.reduce(column[:, 0])
    assert column.sum(axis=0)[0] != in_order[0]


def buffer_for(rows, distribution, q, d, n):
    """The MC_BUFFER_BYTES that makes mc_squared_moment estimate rows trials per chunk."""
    fixed, per_trial = analysis._mc_buffer_bytes(distribution, q, d, min(analysis.MC_BATCH, n))
    return fixed + rows * per_trial


@pytest.mark.parametrize("distribution", DISTRIBUTIONS)
@pytest.mark.parametrize("d", [1, 2, 3, 8, 100, 1024])
@pytest.mark.parametrize("q", [1, 3, 10])
def test_chunked_monte_carlo_moment_is_bit_identical_to_the_reference(monkeypatch, distribution,
                                                                     d, q):
    g = np.random.default_rng(d * 10 + q).standard_normal(d)
    batch = 16
    monkeypatch.setattr(analysis, "MC_BATCH", batch)
    chunks = []

    def recording(distribution, shape, d, rng, out=None):
        chunks.append(shape[0])
        return batch_directions(distribution, shape, d, rng, out)

    monkeypatch.setattr(analysis, "batch_directions", recording)
    # Buffers of 1 and 5 trials split each batch into chunks; 16 and 40 do not.
    for rows in (1, 5, batch, 40):
        for n in (1, batch - 1, batch, batch + 1, 3 * batch + 5):
            monkeypatch.setattr(analysis, "MC_BUFFER_BYTES",
                                buffer_for(rows, distribution, q, d, n))
            chunks.clear()
            _assert_moment_matches_reference(g, q, distribution, n)
            assert chunks[0] == min(rows, batch, n) and max(chunks) == chunks[0], (rows, n)


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(
    distribution=st.sampled_from(DISTRIBUTIONS),
    d=st.integers(1, 300),
    q=st.integers(1, 12),
    batch=st.integers(1, 40),
    rows=st.integers(1, 50),
    n=st.integers(1, 150),
)
def test_monte_carlo_moment_equals_the_reference_for_any_buffer(distribution, d, q, batch, rows,
                                                                 n):
    g = np.random.default_rng(d).standard_normal(d)
    saved = analysis.MC_BATCH, analysis.MC_BUFFER_BYTES
    analysis.MC_BATCH = batch
    analysis.MC_BUFFER_BYTES = buffer_for(rows, distribution, q, d, n)
    try:
        _assert_moment_matches_reference(g, q, distribution, n)
    finally:
        analysis.MC_BATCH, analysis.MC_BUFFER_BYTES = saved


def test_monte_carlo_moment_memory_does_not_grow_with_the_batch():
    # One whole 32768-trial batch would need 168 MB of directions here.
    g = np.random.default_rng(0).standard_normal(64)
    tracemalloc.start()
    try:
        mc_squared_moment(g, 10, GAUSSIAN, 40_000, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("distribution", DISTRIBUTIONS)
@pytest.mark.parametrize("d", [1, 2, 8, 64])
@pytest.mark.parametrize("q", [1, 4])
def test_monte_carlo_moment_working_set_fits_the_buffer_budget(distribution, d, q):
    # Every working array counts: directions, projections, estimates (a whole
    # batch at d = 1) and the draw's own temporaries.
    g = np.random.default_rng(d).standard_normal(d)
    mc_squared_moment(g, q, distribution, 10, seed=1)  # the generator's first-use allocations
    tracemalloc.start()
    try:
        mc_squared_moment(g, q, distribution, 40_000, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * analysis.MC_BUFFER_BYTES, peak


@pytest.mark.parametrize("distribution, q, d, n", [
    (RADEMACHER, 2, 8, 10_000), (TERNARY, 2, 8, 10_000), (GAUSSIAN, 10, 1024, 30)])
def test_monte_carlo_moment_peak_stays_within_the_buffer_budget(distribution, q, d, n):
    # Several chunks each. Beside the counted arrays, only Python objects and
    # numpy's iterator structs: the integer laws' casts make no iterator buffer,
    # and the closing statistics' temporaries are counted.
    g = np.random.default_rng(d).standard_normal(d)
    mc_squared_moment(g, q, distribution, 10, seed=1)  # the generator's first-use allocations
    tracemalloc.start()
    try:
        mc_squared_moment(g, q, distribution, n, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= analysis.MC_BUFFER_BYTES + 8 * 1024, peak


@pytest.mark.parametrize("field", ["n", "q"])
def test_monte_carlo_moment_rejects_counts_below_one(field):
    args = {"n": 10, "q": 1, field: 0}
    with pytest.raises(InvalidArgumentError, match=f"{field} must be >= 1"):
        mc_squared_moment(np.array([1.0, 0.0]), args["q"], GAUSSIAN, args["n"])


def test_moment_report_rejects_cases_it_cannot_run():
    g = np.array([1.0, 0.0])
    for bad in ((g, 0, GAUSSIAN, 10), (g, 1, GAUSSIAN, 0), (g, 1, "rademacher", 10),
                (np.array([]), 1, GAUSSIAN, 10)):
        with pytest.raises(InvalidArgumentError):
            moment_report(*bad)


def test_moment_report_rejects_a_zero_prediction_before_any_draw(monkeypatch):
    # 0/0 relative errors would come back as NaN with a numpy RuntimeWarning.
    monkeypatch.setattr(analysis, "mc_squared_moment", lambda *a, **k: pytest.fail("drew"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidArgumentError, match="g predicts a zero second moment"):
            moment_report(np.zeros(2), 1, GAUSSIAN, 10)


def test_moment_report_bundles_prediction_and_simulation():
    rep = moment_report(np.array([1.0, 0.0]), q=1, distribution=GAUSSIAN, n=100_000, seed=0)
    assert rep.n_trials == 100_000
    np.testing.assert_allclose(rep.predicted, [3.0, 1.0], rtol=1e-14)
    assert rep.max_rel_err < 0.05
    assert np.all(rep.standard_error > 0)


def test_second_moment_statistics_hand_case():
    stats = vt_statistics(np.array([1.0, 2.0, 3.0, 4.0]))
    assert stats["min"] == 1.0
    assert stats["max"] == 4.0
    assert stats["mean"] == pytest.approx(2.5)
    assert stats["std"] == pytest.approx(math.sqrt(1.25))
    assert stats["kurtosis"] == pytest.approx(2.5625 / 1.25**2 - 3.0)


def test_second_moment_statistics_constant_input_is_degenerate_but_finite():
    stats = vt_statistics(np.full(5, 7.0))
    assert stats["std"] == 0.0
    assert stats["kurtosis"] == 0.0


def test_collapse_metric_hand_case():
    out = vt_collapse_metric(np.array([1.0, 2.0, 3.0]), grad_norm_sq=4.0, q=2)
    assert out["spread"] == pytest.approx(1.0)
    assert out["theory_target_err"] == pytest.approx(0.0)
    single = vt_collapse_metric(np.array([5.0]), grad_norm_sq=8.0, q=2)
    assert single["spread"] == 0.0
    degenerate = vt_collapse_metric(np.array([1.0]), grad_norm_sq=0.0, q=1)
    assert degenerate["theory_target_err"] == math.inf


def test_smoothing_inequalities_hold_on_random_points():
    quad = BlockQuadratic(4, regime="heterogeneous", seed=2)
    rng = np.random.default_rng(0)
    points = [rng.normal(size=4) * 0.1 for _ in range(20)]
    for smoothing in ("ball", "sphere-limit"):
        rows = check_smoothing_inequalities(quad, 1e-3, smoothing, points)
        assert len(rows) == 20
        for row in rows:
            assert row["value_slack"] >= 0.0
            assert row["grad_slack"] >= 0.0
            assert row["grad_gap"] == 0.0


def test_constants_hand_cases():
    c = theorem_constants(d=9, q=10, epsilon=1e-3, L=1000.0, sigma=0.0, G=1.0, beta=0.9, zeta=1e-8)
    assert c.sigma0_sq == pytest.approx((9 * 1e-6 * 1e6 / 20) * 17)
    assert c.sigma1_sq == pytest.approx((4 * 9 - 1) / 10)
    assert c.alpha == pytest.approx(math.sqrt(0.9) * 1.0 + 1e-8)
    c1 = theorem_constants(d=1, q=1, epsilon=1e-3, L=1.0, sigma=0.5, G=1.0, beta=0.9, zeta=1e-8)
    assert c1.sigma1_sq == pytest.approx(3.0)
    assert c1.sigma0_sq == pytest.approx((1e-6 / 2) * 9 + 2 * 0.25)


def test_step_size_condition_boundary():
    # With a tiny G the first term vanishes, so the condition reduces to
    # L * eta / (2 * zeta) <= 1/4.
    assert check_meazo_condition(G=1e-12, L=1.0, sigma1_sq=3.0, beta=0.999, eta=0.5, zeta=1.0)
    assert not check_meazo_condition(
        G=1e-12, L=1.0, sigma1_sq=3.0, beta=0.999, eta=0.5001, zeta=1.0
    )
    assert not check_meazo_condition(G=10.0, L=1.0, sigma1_sq=3.0, beta=0.5, eta=1e-9, zeta=1.0)


def test_meazo_bound_requires_the_step_size_condition():
    c = theorem_constants(d=4, q=1, epsilon=1e-6, L=10.0, sigma=0.0, G=5.0, beta=0.999, zeta=1.0)
    with pytest.raises(PreconditionError):
        meazo_bound(c, f0_minus_fstar=1.0, eta=10.0, T=100, epsilon=1e-6, L=10.0)
    ok = theorem_constants(
        d=4, q=1, epsilon=1e-6, L=10.0, sigma=0.0, G=5.0, beta=1 - 1e-9, zeta=1.0
    )
    val = meazo_bound(ok, f0_minus_fstar=1.0, eta=1e-3, T=100, epsilon=1e-6, L=10.0)
    assert val > 0 and math.isfinite(val)


def test_classical_bound_hand_case_and_preconditions():
    assert classical_sgd_bound(L=2.0, sigma=0.0, eta=0.5, T=10, f0_minus_fstar=1.0) == pytest.approx(
        0.4
    )
    with pytest.raises(PreconditionError):
        classical_sgd_bound(L=2.0, sigma=0.0, eta=1.0, T=10, f0_minus_fstar=1.0)


def test_zosgd_bound_precondition_scales_with_dimension():
    val = zosgd_bound(d=4, q=1, epsilon=1e-6, L=1.0, sigma=0.0, eta=0.01, T=100, f0_minus_fstar=1.0)
    assert val > 0 and math.isfinite(val)
    # (1 + sigma1_sq) = 16 at d=4, q=1 so eta must stay below 2/16.
    with pytest.raises(PreconditionError):
        zosgd_bound(d=4, q=1, epsilon=1e-6, L=1.0, sigma=0.0, eta=0.2, T=100, f0_minus_fstar=1.0)


def test_collapse_study_reports_per_dimension_rows():
    rows = collapse_study(
        dims=(4,),
        optimizers=("meazo", "zo-adam"),
        eta=1e-3,
        q=2,
        threshold=1e-12,
        max_steps=40,
        tail=10,
        x0_norm=0.3,
        seed=1,
    )
    assert len(rows) == 2
    for row in rows:
        assert row["d"] == 4
        assert row["optimizer"] in ("meazo", "zo-adam")
        assert row["steps_to_threshold"] is None
        assert row["terminal_spread"] >= 0.0
        assert len(row["series"]["loss"]) == 40
        assert np.all(np.isfinite(row["vhat_final"]))
    spreads = {row["optimizer"]: row["terminal_spread"] for row in rows}
    assert spreads["meazo"] == 0.0
    assert spreads["zo-adam"] > 0.0


@pytest.mark.parametrize("T", [0, -1])
def test_bound_check_run_rejects_a_step_count_below_one(T):
    quad = BlockQuadratic(4, regime="homogeneous", seed=0)
    with pytest.raises(InvalidArgumentError, match="T must be >= 1"):
        bound_check_run(quad, optimizer="zo-sgd", eta=1e-5, q=2, epsilon=1e-6,
                        distribution=GAUSSIAN, sigma=0.0, noise_seed=0, x0=np.zeros(4), T=T,
                        seed=0)


def test_bound_check_run_tracks_the_trust_region():
    quad = BlockQuadratic(4, regime="homogeneous", seed=0)
    x0 = np.full(4, 1e-3)
    out = bound_check_run(
        quad,
        optimizer="zo-sgd",
        eta=1e-5,
        q=2,
        epsilon=1e-6,
        distribution=GAUSSIAN,
        sigma=0.0,
        noise_seed=0,
        x0=x0,
        T=20,
        seed=0,
        radius=1.0,
    )
    assert out["within_radius"] is True
    assert out["max_point_norm"] < 1.0
    assert out["avg_grad_norm_sq"] > 0.0
    assert out["diverged"] is False
    no_radius = bound_check_run(
        quad,
        optimizer="meazo",
        eta=1e-5,
        q=2,
        epsilon=1e-6,
        distribution=GAUSSIAN,
        sigma=0.0,
        noise_seed=0,
        x0=x0,
        T=20,
        seed=0,
    )
    assert "within_radius" not in no_radius
    with pytest.raises(InvalidArgumentError):
        bound_check_run(
            quad,
            optimizer="nope",
            eta=1e-5,
            q=2,
            epsilon=1e-6,
            distribution=GAUSSIAN,
            sigma=0.0,
            noise_seed=0,
            x0=x0,
            T=20,
            seed=0,
        )
