"""End-to-end behavioral guarantees of the library, one test per guarantee.

These tests exercise the full pipeline (estimators, optimizers, objectives,
analysis, harness) at realistic sizes; the whole module takes several
minutes, dominated by the dimension-collapse study and the step-size sweeps.
"""

import math
import time

import numpy as np
import pytest

from zoptim import (
    AdamState,
    BlockQuadratic,
    EvalCounter,
    ExperimentConfig,
    LayeredChain,
    MeazoState,
    Partition,
    PerturbationSpec,
    batch_directions,
    bound_check_run,
    chain_as_objective,
    check_smoothing_inequalities,
    classical_sgd_bound,
    coarse_fine_sweep,
    collapse_study,
    efficient_grouped_eval,
    equal_energy_point,
    gradient_estimate,
    mc_squared_moment,
    meazo_bound,
    meazo_step,
    predicted_squared_moment,
    robust_log_width,
    run,
    step_directions,
    theorem_constants,
    write_trace_csv,
    zo_adam_step,
    zo_gradient,
    zo_scalars,
    zosgd_bound,
)
from zoptim.perturb import GAUSSIAN, RADEMACHER, UNIFORM, keyed_generator


def unit_gradient(d, seed):
    g = keyed_generator(seed, 0xACC).standard_normal(d)
    return g / np.linalg.norm(g)


def test_gaussian_estimator_second_moment_matches_closed_form():
    started = time.perf_counter()
    for case, (d, q) in enumerate([(2, 1), (8, 1), (8, 4)]):
        g = unit_gradient(d, case)
        predicted = predicted_squared_moment(g, q, GAUSSIAN)
        want = (np.dot(g, g) + g * g) / q + g * g
        np.testing.assert_allclose(predicted, want, rtol=1e-13)
        empirical, se = mc_squared_moment(g, q, GAUSSIAN, n=1_000_000, seed=case)
        assert np.all(np.abs(empirical - predicted) <= 4 * se)
    assert time.perf_counter() - started < 60.0


def test_uniform_estimator_second_moment_matches_closed_form_and_hand_cases():
    started = time.perf_counter()
    hand = np.array([1.0, 0.0])
    np.testing.assert_allclose(
        predicted_squared_moment(hand, 1, UNIFORM), [1.5, 0.5], rtol=1e-13
    )
    np.testing.assert_allclose(
        predicted_squared_moment(hand, 2, UNIFORM), [1.25, 0.25], rtol=1e-13
    )
    for case, (d, q) in enumerate([(2, 1), (2, 2), (8, 1), (8, 4)]):
        g = hand if d == 2 else unit_gradient(d, case)
        predicted = predicted_squared_moment(g, q, UNIFORM)
        want = d * (np.dot(g, g) + 2 * g * g) / (q * (d + 2)) + (q - 1) / q * g * g
        np.testing.assert_allclose(predicted, want, rtol=1e-13)
        empirical, se = mc_squared_moment(g, q, UNIFORM, n=1_000_000, seed=case)
        assert np.all(np.abs(empirical - predicted) <= 4 * se)
    assert time.perf_counter() - started < 60.0


COLLAPSE_DIMS = (9, 25, 49, 100, 1024)
COLLAPSE_SEEDS = (1, 9)
COLLAPSE_Q = 10


@pytest.fixture(scope="module")
def collapse_rows():
    common = dict(
        eta=1e-4,
        q=COLLAPSE_Q,
        threshold=1e-3,
        max_steps=20_000,
        x0_norm=1.0,
        tail=100,
        regime="heterogeneous",
        quad_seed=0,
    )
    out = {"zo": {}, "fo": {}}
    for seed in COLLAPSE_SEEDS:
        out["zo"][seed] = collapse_study(
            dims=COLLAPSE_DIMS, optimizers=("zo-adam",), seed=seed, **common
        )
        out["fo"][seed] = collapse_study(
            dims=(1024,), optimizers=("fo-adam",), seed=seed, **common
        )
    return out


def test_second_moment_collapse_across_dimension(collapse_rows):
    spreads_by_dim = []
    for d in COLLAPSE_DIMS:
        per_seed = [
            [r for r in collapse_rows["zo"][s] if r["d"] == d][0]["terminal_spread"]
            for s in COLLAPSE_SEEDS
        ]
        spreads_by_dim.append(float(np.mean(per_seed)))
    for lo, hi in zip(spreads_by_dim[1:], spreads_by_dim[:-1]):
        assert lo <= hi, f"spread increased across dimension: {spreads_by_dim}"

    for seed in COLLAPSE_SEEDS:
        row = [r for r in collapse_rows["zo"][seed] if r["d"] == 1024][0]
        target = float(np.mean(row["series"]["grad_norm_sq"][-100:])) / COLLAPSE_Q
        vhat = np.asarray(row["vhat_final"])
        maxdev = float(np.max(np.abs(vhat - target)) / target)
        assert maxdev <= 0.25

        fo_row = collapse_rows["fo"][seed][0]
        assert fo_row["terminal_spread"] >= 5.0 * row["terminal_spread"]


BCGD_PARTITION = [[0, 3], [3, 6], [6, 9]]


def bcgd_config(name):
    raw = {
        "objective": {"kind": "quadratic", "d": 9, "regime": "heterogeneous", "seed": 0},
        "optimizer": {"name": name},
        "partition": BCGD_PARTITION,
        "T": 3000,
        "q": 1,
        "distribution": "gaussian",
        "threshold": 1e-3,
        "stop_at_threshold": True,
        "x0": {"mode": "gaussian", "scale": 0.1},
        "seeds": list(range(10)),
        "metric": "final",
    }
    return ExperimentConfig.from_dict(raw)


@pytest.fixture(scope="module")
def bcgd_sweeps():
    return {
        name: coarse_fine_sweep(bcgd_config(name))
        for name in ("meazo-grouped", "zo-adam", "zo-sgd")
    }


def median_steps_to_threshold(sweep):
    vals = [
        tr.steps_to_threshold if tr.steps_to_threshold is not None else math.inf
        for tr in sweep.best_traces
    ]
    return float(np.median(vals))


def test_grouped_adaptive_methods_reach_threshold_no_slower_than_sgd(bcgd_sweeps):
    medians = {name: median_steps_to_threshold(s) for name, s in bcgd_sweeps.items()}
    assert math.isfinite(medians["zo-sgd"])
    assert medians["meazo-grouped"] <= medians["zo-sgd"], medians
    assert medians["zo-adam"] <= medians["zo-sgd"], medians


def test_scalar_adaptive_step_size_window_wider_than_sgd(bcgd_sweeps):
    widths = {
        name: robust_log_width(sweep, factor=10.0)["log10_width"]
        for name, sweep in bcgd_sweeps.items()
    }
    assert widths["meazo-grouped"] > widths["zo-sgd"], widths


def test_prefix_caching_block_forward_counts():
    chain = LayeredChain(p=16, widths=1, seed=0)
    spec = PerturbationSpec(distribution=GAUSSIAN, epsilon=1e-4, base_seed=0)
    x = keyed_generator(0, 0xACC2).standard_normal(chain.d) * 0.1

    efficient = EvalCounter()
    part = Partition.from_ranges(chain.d, list(chain.slices))
    est_eff = gradient_estimate(efficient_grouped_eval(chain, x, spec, 1, 0, efficient),
                                step_directions(spec, 0, 1, chain.d), GAUSSIAN, part)
    assert efficient.block_forward_calls == 16 * 1 * 17 + 15 == 287
    assert efficient.full_forward_calls == 0

    naive = EvalCounter()
    est_naive = zo_gradient(chain_as_objective(chain, naive), x, spec, 1, 0, naive, partition=part)
    assert naive.block_forward_calls == 2 * 1 * 16 * 16 == 512
    assert round(512 / 287, 3) == 1.784
    assert est_eff.tobytes() == est_naive.tobytes()


def test_uniform_scaled_estimator_unbiased_for_quadratic_gradient():
    quad = BlockQuadratic(9, regime="heterogeneous", seed=0)
    x = keyed_generator(0, 0xACC7).standard_normal(9) * 0.05
    grad = quad.gradient(x)
    h = quad.hessian
    epsilon = 1e-6
    n = 1_000_000
    u = batch_directions(UNIFORM, (n,), 9, keyed_generator(0, 0xACC8))
    plus = x + epsilon * u
    minus = x - epsilon * u
    vals_plus = 0.5 * np.einsum("bi,bi->b", plus @ h, plus)
    vals_minus = 0.5 * np.einsum("bi,bi->b", minus @ h, minus)
    delta = (vals_plus - vals_minus) / (2 * epsilon)
    est = 9 * delta[:, None] * u
    mean = est.mean(axis=0)
    se = est.std(axis=0, ddof=1) / math.sqrt(n)
    assert np.all(np.abs(mean - grad) <= 4 * se)


def test_smoothing_inequalities_nonnegative_slack():
    quad = BlockQuadratic(9, regime="heterogeneous", seed=0)
    rng = keyed_generator(0, 0xACC5)
    points = [rng.standard_normal(9) * 0.2 for _ in range(100)]
    for smoothing in ("ball", "sphere-limit"):
        rows = check_smoothing_inequalities(quad, 1e-4, smoothing, points)
        assert len(rows) == 100
        for row in rows:
            assert row["value_slack"] >= 0.0
            assert row["grad_slack"] >= 0.0
            assert row["grad_gap"] == 0.0


def test_scalar_and_coordinate_adaptive_agree_in_one_dimension():
    quad = BlockQuadratic(1, regime="heterogeneous", seed=0)
    spec = PerturbationSpec(distribution=RADEMACHER, epsilon=1e-6, base_seed=4)
    meazo = MeazoState(eta=1e-2, beta=0.999, zeta=1e-8)
    adam = AdamState(dim=1, eta=1e-2, beta1=0.0, beta2=0.999, zeta=1e-8)
    x_m = np.array([0.5])
    x_a = x_m.copy()
    for t in range(100):
        est = zo_gradient(quad.value, x_a, spec, 1, t)
        x_a = zo_adam_step(adam, x_a, est)
        scalars_m = zo_scalars(quad.value, x_m, spec, 1, t)
        x_m = meazo_step(meazo, x_m, scalars_m, step_directions(spec, t, 1, 1))
        assert abs(x_m[0] - x_a[0]) <= 1e-12


def test_trajectory_average_gradient_below_stationarity_bounds():
    quad = BlockQuadratic(9, regime="heterogeneous", seed=0)
    q, epsilon, sigma, radius, f0 = 10, 1e-6, 0.0, 0.4, 0.05
    L = quad.smoothness
    G = L * radius
    seeds = range(5)

    beta, zeta, eta_m, t_m = 1 - 1.5e-8, 1.0, 1e-4, 200
    meazo_runs = [
        bound_check_run(
            quad, "meazo", eta_m, q, epsilon, GAUSSIAN, sigma, 0,
            equal_energy_point(quad, f0, s), t_m, s, beta=beta, zeta=zeta, radius=radius,
        )
        for s in seeds
    ]
    assert all(r["within_radius"] and not r["diverged"] for r in meazo_runs)
    constants = theorem_constants(9, q, epsilon, L, sigma, G, beta, zeta)
    bound_m = meazo_bound(constants, f0, eta_m, t_m, epsilon, L)
    lhs_m = float(np.mean([r["avg_grad_norm_sq"] for r in meazo_runs]))
    assert lhs_m <= bound_m

    eta_s, t_s = 5e-5, 100
    assert eta_s < 2 / ((1 + constants.sigma1_sq) * L)
    sgd_runs = [
        bound_check_run(
            quad, "zo-sgd", eta_s, q, epsilon, GAUSSIAN, sigma, 0,
            equal_energy_point(quad, f0, s), t_s, s, radius=radius,
        )
        for s in seeds
    ]
    assert all(r["within_radius"] and not r["diverged"] for r in sgd_runs)
    bound_s = zosgd_bound(9, q, epsilon, L, sigma, eta_s, t_s, f0)
    lhs_s = float(np.mean([r["avg_grad_norm_sq"] for r in sgd_runs]))
    assert lhs_s <= bound_s

    reduced = zosgd_bound(9, 1e9, 1e-12, L, 0.0, 1e-6, 1000, 1.0)
    classical = classical_sgd_bound(L, 0.0, 1e-6, 1000, 1.0)
    assert abs(reduced - classical) / classical <= 1e-6


def test_deterministic_traces_and_state_memory_shape(tmp_path):
    raw = {
        "objective": {"kind": "quadratic", "d": 9, "regime": "heterogeneous", "seed": 0},
        "optimizer": {"name": "meazo", "eta": 1e-3},
        "T": 50,
        "q": 2,
        "seeds": [0],
    }
    cfg = ExperimentConfig.from_dict(raw)
    paths = []
    for tag in ("first", "second"):
        trace = run(cfg)[0]
        path = tmp_path / f"{tag}.csv"
        write_trace_csv(trace, path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()

    spec = PerturbationSpec(distribution=GAUSSIAN, epsilon=1e-6, base_seed=0)
    for d in (9, 100):
        quad = BlockQuadratic(d, regime="heterogeneous", seed=0)
        state = MeazoState(eta=1e-3)
        x = np.full(d, 0.1)
        for t in range(5):
            scalars = zo_scalars(quad.value, x, spec, 2, t)
            x = meazo_step(state, x, scalars, step_directions(spec, t, 2, d))
        assert state.v.shape == (1,)  # one second-moment scalar, whatever d
        adam = AdamState(dim=d, eta=1e-3)
        assert adam.m.size + adam.v.size == 2 * d


def test_momentum_and_distribution_ablations():
    finals = {}
    for beta1 in (0.9, 0.0):
        raw = {
            "objective": {"kind": "quadratic", "d": 9, "regime": "heterogeneous", "seed": 0},
            "optimizer": {"name": "zo-adam", "eta": 1e-3, "beta1": beta1},
            "T": 1500,
            "q": 1,
            "seeds": list(range(10)),
        }
        traces = run(ExperimentConfig.from_dict(raw))
        assert not any(tr.diverged for tr in traces)
        finals[beta1] = np.array([tr.final_loss for tr in traces])
    gap = abs(finals[0.9].mean() - finals[0.0].mean())
    assert gap < finals[0.9].std(ddof=1)

    tuned = {}
    for dist in ("gaussian", "uniform", "rademacher", "ternary"):
        raw = {
            "objective": {
                "kind": "quadratic",
                "d": 9,
                "regime": "heterogeneous",
                "seed": 0,
                "sigma": 2e-6,
                "noise_seed": 7,
            },
            "optimizer": {"name": "zo-sgd"},
            "T": 2000,
            "q": 1,
            "distribution": dist,
            "seeds": list(range(10)),
        }
        sweep = coarse_fine_sweep(ExperimentConfig.from_dict(raw))
        assert not sweep.all_diverged
        best_row = [r for r in sweep.rows if r["eta"] == sweep.best_eta][0]
        tuned[dist] = best_row["mean_final"]
    ratio = max(tuned.values()) / min(tuned.values())
    assert ratio <= 2.0, tuned
