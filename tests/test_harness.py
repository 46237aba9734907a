"""Experiment harness: configs, runs, traces, budgets, sweeps, robustness."""

import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zoptim import (
    COARSE_GRID,
    TRACE_HEADER,
    ConfigError,
    ExperimentConfig,
    InvalidArgumentError,
    SweepResult,
    Trace,
    coarse_fine_sweep,
    fine_candidates,
    load_config,
    make_objective,
    make_x0,
    resolve_partition,
    robust_log_width,
    robustness_curve,
    run,
    trace_summary,
    transfer_step_size,
    write_summary,
    write_trace_csv,
)
from zoptim.harness import (
    COUNT,
    DIVERGENCE_FACTOR,
    MAX_SEEDS,
    NONNEG,
    OMIT,
    POSITIVE,
    REQUIRED,
    SEED,
    _X0_TAG,
    _argmin_eta,
    _seed_metric,
    read_fields,
)
from zoptim.perturb import keyed_generator


def quad_config(**over):
    raw = {
        "objective": {"kind": "quadratic", "d": 4, "regime": "heterogeneous", "seed": 0},
        "optimizer": {"name": "zo-sgd", "eta": 1e-4},
        "T": 10,
        "q": 2,
        "seeds": [0],
    }
    raw.update(over)
    return ExperimentConfig.from_dict(raw)


def chain_config(**over):
    raw = {
        "objective": {"kind": "chain", "p": 2, "widths": 1, "seed": 0},
        "optimizer": {"name": "meazo-grouped", "eta": 1e-3},
        "partition": "layers:2",
        "T": 5,
        "q": 2,
        "seeds": [0],
    }
    raw.update(over)
    return ExperimentConfig.from_dict(raw)


def test_config_fills_defaults_and_expands_seed_counts():
    cfg = ExperimentConfig.from_dict(
        {
            "objective": {"kind": "quadratic", "d": 9},
            "optimizer": {"name": "meazo", "eta": 1e-3},
            "T": 5,
            "seeds": 3,
        }
    )
    assert cfg.seeds == (0, 1, 2)
    assert cfg.objective["regime"] == "heterogeneous"
    assert cfg.objective["sigma"] == 0.0
    assert cfg.epsilon == 1e-6
    assert cfg.distribution == "gaussian"
    assert cfg.x0 == {"mode": "gaussian", "scale": 0.1}
    assert cfg.metric == "final"


def test_config_caps_integer_seed_counts_and_reads_integer_ranges():
    raw = {"objective": {"kind": "quadratic", "d": 4}, "optimizer": {"name": "zo-sgd", "eta": 1e-3},
           "T": 5}
    assert len(ExperimentConfig.from_dict({**raw, "seeds": MAX_SEEDS}).seeds) == MAX_SEEDS
    with pytest.raises(ConfigError, match="seeds count"):
        ExperimentConfig.from_dict({**raw, "seeds": MAX_SEEDS + 1})
    cfg = ExperimentConfig.from_dict({**raw, "partition": [[0, 2.0], [2, 4]]})
    assert cfg.partition == [[0, 2], [2, 4]]
    for bad in ([[0, 1.5], [1.5, 4]], [[0, "2"], [2, 4]], [[0, 2], [2]], [0, 4]):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({**raw, "partition": bad})


def test_read_fields_reads_each_kind_and_fills_defaults():
    fields = {
        "n": (int, REQUIRED), "x": (float, 0.5), "flag": (bool, OMIT), "seed": (SEED, 0),
        "mode": (("a", "b"), "a"), "any": (object, None), "xs": ([float], OMIT),
    }
    assert read_fields({"n": 3.0, "xs": [1, 2]}, fields, "cfg") == {
        "n": 3, "x": 0.5, "seed": 0, "mode": "a", "any": None, "xs": [1.0, 2.0],
    }
    got = read_fields({"n": 1, "flag": True, "mode": "b", "any": [{}], "seed": 2**64 - 1},
                      fields, "cfg")
    assert (got["flag"], got["mode"], got["any"], got["seed"]) == (True, "b", [{}], 2**64 - 1)
    for bad in ([], {"x": 1}, {"n": 1, "other": 0}, {"n": 1.5}, {"n": "1"}, {"n": True},
                {"n": 1, "x": False}, {"n": 1, "flag": 1}, {"n": 1, "seed": -1},
                {"n": 1, "seed": 2**64}, {"n": 1, "mode": "c"}, {"n": 1, "xs": 1.0},
                {"n": 1, "xs": ["a"]}, {"n": 1, "x": math.nan}, {"n": 1, "x": -math.inf},
                {"n": 1, "xs": [1.0, math.inf]}, {"n": 10**400}, {"n": 1, "x": 10**400}):
        with pytest.raises(ConfigError):
            read_fields(bad, fields, "cfg")


def test_read_fields_checks_the_domain_kinds():
    fields = {"n": (COUNT, 1), "eps": (POSITIVE, 1.0), "s": (NONNEG, 0.0)}
    assert read_fields({"n": 2.0, "eps": 1, "s": 0}, fields, "cfg") == {
        "n": 2, "eps": 1.0, "s": 0.0,
    }
    assert isinstance(read_fields({"eps": 1}, fields, "cfg")["eps"], float)
    for bad, message in (({"n": 0}, "cfg.n must be >= 1, got 0"),
                         ({"n": 1.5}, "cfg.n must be an integer"),
                         ({"eps": 0.0}, "cfg.eps must be > 0, got 0.0"),
                         ({"s": -1e-9}, "cfg.s must be >= 0, got -1e-09"),
                         ({"s": math.nan}, "cfg.s must be a finite number, got nan")):
        with pytest.raises(ConfigError, match=re.escape(message)):
            read_fields(bad, fields, "cfg")


@pytest.mark.parametrize(
    "mutation",
    [
        {"bogus": 1},
        {"objective": {"kind": "quadratic", "d": 9, "oops": 1}},
        {"objective": {"kind": "mystery", "d": 9}},
        {"objective": {"kind": "quadratic", "d": 9, "sigma": -1.0}},
        {"optimizer": {"name": "zo-sgd", "eta": 1e-3, "beta1": 0.9}},
        {"optimizer": {"name": "gradient-descent", "eta": 1e-3}},
        {"T": 0},
        {"q": 0},
        {"distribution": "cauchy"},
        {"metric": "median"},
        {"threshold": 0.0},
        {"x0": {"mode": "equal_energy"}},
        {"x0": {"mode": "somewhere"}},
        {"seeds": []},
        {"coarse_grid": [1e-3]},
        {"coarse_grid": [1e-3, 1e-3]},
        {"partition": "layers:x:y"},
        {"grouped_eval": "sometimes"},
    ],
)
def test_config_rejects_bad_inputs(mutation):
    raw = {
        "objective": {"kind": "quadratic", "d": 9},
        "optimizer": {"name": "zo-sgd", "eta": 1e-3},
        "T": 5,
    }
    raw.update(mutation)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(raw)


def test_config_requires_objective_optimizer_and_step_count():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"optimizer": {"name": "zo-sgd"}, "T": 5})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"objective": {"kind": "quadratic", "d": 9}, "T": 5})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(
            {"objective": {"kind": "quadratic", "d": 9}, "optimizer": {"name": "zo-sgd"}}
        )


def test_config_cross_field_rules():
    with pytest.raises(ConfigError):
        quad_config(optimizer={"name": "meazo-grouped", "eta": 1e-3})
    with pytest.raises(ConfigError):
        quad_config(optimizer={"name": "fzoo", "eta": 1e-9}, q=1)
    with pytest.raises(ConfigError):
        quad_config(optimizer={"name": "fzoo", "eta": 1e-9}, partition=[[0, 2]])
    with pytest.raises(ConfigError):
        quad_config(grouped_eval="efficient", partition=[[0, 2], [2, 4]])
    with pytest.raises(ConfigError):
        chain_config(grouped_eval="efficient", partition=[[0, 2], [2, 4]])
    with pytest.raises(ConfigError):
        quad_config(partition="layers:2")


def test_load_config_reads_json_and_rejects_garbage(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps(
            {
                "objective": {"kind": "quadratic", "d": 4},
                "optimizer": {"name": "zo-sgd", "eta": 1e-4},
                "T": 3,
            }
        )
    )
    cfg = load_config(path)
    assert cfg.T == 3
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(bad)


def test_make_x0_norm_overrides_scale_and_replays_by_seed():
    quad = make_objective({"kind": "quadratic", "d": 4, "regime": "heterogeneous", "seed": 0})
    x_norm = make_x0({"mode": "gaussian", "norm": 0.37, "scale": 99.0}, quad, seed=5)
    assert np.linalg.norm(x_norm) == pytest.approx(0.37, rel=1e-12)
    raw = keyed_generator(5, _X0_TAG).standard_normal(4)
    x_scale = make_x0({"mode": "gaussian", "scale": 0.25}, quad, seed=5)
    np.testing.assert_allclose(x_scale, 0.25 * raw, rtol=1e-15)
    again = make_x0({"mode": "gaussian", "scale": 0.25}, quad, seed=5)
    assert x_scale.tobytes() == again.tobytes()
    other = make_x0({"mode": "gaussian", "scale": 0.25}, quad, seed=6)
    assert x_scale.tobytes() != other.tobytes()


def test_make_x0_equal_energy_hits_the_requested_level():
    quad = make_objective({"kind": "quadratic", "d": 9, "regime": "heterogeneous", "seed": 0})
    x0 = make_x0({"mode": "equal_energy", "f0": 0.05}, quad, seed=2)
    assert quad.value(x0) == pytest.approx(0.05, rel=1e-9)


def test_resolve_partition_variants():
    quad = make_objective({"kind": "quadratic", "d": 4, "regime": "heterogeneous", "seed": 0})
    chain = make_objective({"kind": "chain", "p": 2, "widths": 1, "seed": 0})
    assert resolve_partition(None, quad) is None
    part = resolve_partition([[0, 2], [2, 4]], quad)
    assert part.p == 2
    layers = resolve_partition("layers:2", chain)
    assert [tuple(b[[0, -1]]) for b in layers.blocks] == [(0, 1), (2, 3)]
    with pytest.raises(ConfigError):
        resolve_partition("layers:3", chain)
    with pytest.raises(ConfigError):
        resolve_partition([[0, 3], [2, 4]], quad)


def test_runs_are_deterministic_and_csv_bytes_identical(tmp_path):
    cfg = quad_config(optimizer={"name": "meazo", "eta": 1e-3}, T=20)
    a = run(cfg)[0]
    b = run(cfg)[0]
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trace_csv(a, pa)
    write_trace_csv(b, pb)
    assert pa.read_bytes() == pb.read_bytes()
    first = pa.read_text().splitlines()[0]
    assert first == TRACE_HEADER
    assert first == "step,loss,grad_norm_sq,v_min,v_max,v_mean,fn_evals,block_forwards,elapsed_s"


def test_first_and_last_rows_anchor_the_run():
    cfg = quad_config(T=10)
    trace = run(cfg)[0]
    quad = make_objective(cfg.objective)
    x0 = make_x0(cfg.x0, quad, seed=0)
    g0 = quad.gradient(x0)
    assert trace.steps[0] == 0
    assert trace.losses[0] == pytest.approx(trace.initial_loss, rel=1e-15)
    assert trace.initial_loss == pytest.approx(quad.value(x0), rel=1e-12)
    assert trace.grad_norm_sq[0] == pytest.approx(float(g0 @ g0), rel=1e-12)
    assert trace.steps[-1] == 10
    assert trace.losses[-1] == pytest.approx(trace.final_loss, rel=1e-15)
    assert trace.best_loss <= trace.initial_loss


def test_function_evaluation_budgets_by_method():
    sgd = run(quad_config(T=10, q=2))[0]
    assert sgd.fn_evals[-1] == 2 * 2 * 10
    assert sgd.block_forwards[-1] == 0

    fzoo = run(quad_config(optimizer={"name": "fzoo", "eta": 1e-9}, T=5, q=3))[0]
    assert fzoo.fn_evals[-1] == (3 + 1) * 5
    assert len(fzoo.sigmas) == 5

    grouped = run(
        quad_config(
            optimizer={"name": "meazo-grouped", "eta": 1e-3},
            partition=[[0, 2], [2, 4]],
            T=10,
            q=2,
        )
    )[0]
    assert grouped.fn_evals[-1] == 2 * 2 * 2 * 10
    assert grouped.block_forwards[-1] == 0

    naive_chain = run(chain_config(T=5, q=2))[0]
    assert naive_chain.fn_evals[-1] == 2 * 2 * 2 * 5
    assert naive_chain.block_forwards[-1] == 2 * 2 * 2 * 2 * 5

    efficient_chain = run(chain_config(T=5, q=2, grouped_eval="efficient"))[0]
    assert efficient_chain.fn_evals[-1] == 0
    assert efficient_chain.block_forwards[-1] == (2 * 2 * 3 + 1) * 5


def test_efficient_and_naive_grouped_runs_take_identical_trajectories():
    naive = run(chain_config(T=15))[0]
    efficient = run(chain_config(T=15, grouped_eval="efficient"))[0]
    assert naive.losses == efficient.losses
    assert naive.final_loss == efficient.final_loss
    assert efficient.block_forwards[-1] < naive.block_forwards[-1]


def test_efficient_chain_run_from_signed_zeros_matches_naive():
    # A zero-scale start holds -0.0 coordinates; the prefix fingerprint
    # compares bit patterns, so perturbed points must keep them unchanged.
    chain = make_objective(chain_config().objective)
    assert np.signbit(make_x0({"mode": "gaussian", "scale": 0.0}, chain, 0)).any()
    naive = run(chain_config(T=15, x0={"scale": 0.0}))[0]
    efficient = run(chain_config(T=15, x0={"scale": 0.0}, grouped_eval="efficient"))[0]
    assert not efficient.diverged
    for column in ("losses", "v_min", "v_max", "v_mean"):
        assert getattr(efficient, column) == getattr(naive, column)


def test_divergent_run_is_flagged_and_capped():
    cfg = quad_config(optimizer={"name": "zo-sgd", "eta": 100.0}, T=200)
    trace = run(cfg)[0]
    assert trace.diverged
    assert trace.final_loss == math.inf
    sentinel = DIVERGENCE_FACTOR * trace.initial_loss
    assert _seed_metric(trace, "final") == pytest.approx(sentinel)
    assert trace.steps[-1] < 200


def last_step_blowup(**over):
    # One zo-sgd step at eta 1e2 takes the loss ~5e9 times above its start.
    return quad_config(objective={"kind": "quadratic", "d": 9},
                       optimizer={"name": "zo-sgd", "eta": 1e2}, T=1, **over)


def test_a_run_that_blows_up_on_its_last_step_diverged():
    trace = run(last_step_blowup())[0]
    assert trace.diverged
    assert trace.final_loss == math.inf
    assert trace.steps == [0]  # the trace ends at its last good row


def test_a_sweep_whose_runs_all_blow_up_on_their_last_step_all_diverged():
    sweep = coarse_fine_sweep(last_step_blowup(seeds=3, coarse_grid=[1e2, 1e3]))
    assert sweep.all_diverged
    assert [row["n_diverged"] for row in sweep.rows] == [3, 3]


_PARTITIONS = {"meazo-grouped": [[0, 4], [4, 9]]}


def property_run(name, eta, T, eval_every=1, threshold=1e-3, stop_at_threshold=False):
    return run(quad_config(
        objective={"kind": "quadratic", "d": 9}, optimizer={"name": name, "eta": eta},
        partition=_PARTITIONS.get(name), T=T, eval_every=eval_every, threshold=threshold,
        stop_at_threshold=stop_at_threshold))[0]


def trace_rows(trace):
    return list(zip(trace.steps, trace.losses, trace.grad_norm_sq, trace.v_min, trace.v_max,
                    trace.v_mean, trace.fn_evals, trace.block_forwards))


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(
    name=st.sampled_from(["zo-sgd", "zo-adam", "radazo", "meazo", "meazo-grouped", "fzoo"]),
    log_eta=st.floats(-6.0, 3.0),
    T=st.integers(1, 20),
    eval_every=st.integers(1, 4),
    threshold=st.sampled_from([1e-3, 1.0]),
    stop_at_threshold=st.booleans(),
)
@example(name="zo-sgd", log_eta=2.0, T=1, eval_every=1, threshold=1e-3, stop_at_threshold=False)
def test_every_checked_loss_obeys_one_divergence_rule(name, log_eta, T, eval_every, threshold,
                                                      stop_at_threshold):
    eta = 10.0**log_eta
    trace = property_run(name, eta, T, eval_every, threshold, stop_at_threshold)
    sentinel = DIVERGENCE_FACTOR * max(trace.initial_loss, 1e-300)
    assert all(math.isfinite(loss) and loss <= sentinel for loss in trace.losses)
    assert trace.diverged == (trace.final_loss == math.inf)
    if not trace.diverged:
        stopped = stop_at_threshold and trace.steps_to_threshold is not None
        assert trace.steps[-1] == (trace.steps_to_threshold if stopped else T)
        assert trace.losses[-1] == trace.final_loss
    if T > 1:
        # A shorter run is a prefix of a longer one, up to where both diverge.
        k = T // 2
        assert trace_rows(property_run(name, eta, k))[:k] == trace_rows(
            property_run(name, eta, T))[:k]


def test_run_rejects_a_config_without_seeds():
    config = dataclasses.replace(quad_config(), seeds=())
    with pytest.raises(InvalidArgumentError, match="at least one seed"):
        run(config)


@pytest.mark.parametrize("field,value", [("T", -1), ("T", 0), ("eval_every", 0), ("eval_every", -2)])
def test_run_rejects_a_count_below_one_before_the_first_step(field, value):
    # A directly built config skips from_dict's field checks.
    config = dataclasses.replace(quad_config(), **{field: value})
    with pytest.raises(InvalidArgumentError, match=f"{field} must be >= 1, got {value}"):
        run(config)


def test_seed_metric_reads_the_requested_column():
    trace = run(quad_config(T=10))[0]
    assert _seed_metric(trace, "final") == trace.final_loss
    assert _seed_metric(trace, "best") == trace.best_loss


def test_stop_at_threshold_truncates_the_run():
    base = dict(optimizer={"name": "meazo", "eta": 5e-2}, T=3000, threshold=1e-2)
    full = run(quad_config(**base))[0]
    assert full.steps_to_threshold is not None
    stopped = run(quad_config(**base, stop_at_threshold=True))[0]
    assert stopped.steps_to_threshold == full.steps_to_threshold
    assert stopped.steps[-1] == stopped.steps_to_threshold
    assert stopped.final_loss <= 1e-2
    assert len(stopped.steps) < len(full.steps)


def test_eval_every_thins_the_record_but_keeps_the_endpoint():
    trace = run(quad_config(T=10, eval_every=3))[0]
    assert trace.steps == [0, 3, 6, 9, 10]


def test_noise_stream_changes_the_trajectory():
    quiet = run(quad_config(T=20))[0]
    noisy = run(
        quad_config(
            objective={
                "kind": "quadratic",
                "d": 4,
                "regime": "heterogeneous",
                "seed": 0,
                "sigma": 1e-4,
                "noise_seed": 7,
            },
            T=20,
        )
    )[0]
    other_stream = run(
        quad_config(
            objective={
                "kind": "quadratic",
                "d": 4,
                "regime": "heterogeneous",
                "seed": 0,
                "sigma": 1e-4,
                "noise_seed": 8,
            },
            T=20,
        )
    )[0]
    assert quiet.final_loss != noisy.final_loss
    assert noisy.final_loss != other_stream.final_loss


def test_wall_clock_flag_controls_the_elapsed_column():
    off = run(quad_config(T=5))[0]
    assert all(e == 0.0 for e in off.elapsed)
    assert off.wall_time > 0.0
    on = run(quad_config(T=5, wall_clock=True))[0]
    assert on.elapsed[-1] > 0.0


def test_trace_summary_and_summary_file(tmp_path):
    traces = run(quad_config(optimizer={"name": "fzoo", "eta": 1e-9}, T=5, q=3, seeds=[0, 1]))
    s = trace_summary(traces[0])
    for key in ("seed", "eta", "diverged", "final_loss", "steps_to_threshold", "mean_sigma"):
        assert key in s
    path = tmp_path / "summary.json"
    payload = write_summary(traces, path)
    assert len(payload["runs"]) == 2
    assert json.loads(path.read_text())["runs"][1]["seed"] == 1


def test_fine_candidates_hand_cases():
    cands, bracket = fine_candidates(COARSE_GRID, 1e-4)
    assert bracket == (5e-5, 5e-4)
    np.testing.assert_allclose(cands, [6e-5, 7e-5, 8e-5, 9e-5, 2e-4, 3e-4, 4e-4], rtol=1e-12)

    cands, bracket = fine_candidates(COARSE_GRID, 5e-4)
    assert bracket == (1e-4, 1e-3)
    np.testing.assert_allclose(cands, [2e-4, 3e-4, 4e-4, 6e-4, 7e-4, 8e-4, 9e-4], rtol=1e-12)

    cands, bracket = fine_candidates(COARSE_GRID, 1e-1)
    assert bracket == (5e-2, 5e-1)
    np.testing.assert_allclose(cands, [6e-2, 7e-2, 8e-2, 9e-2, 2e-1, 3e-1, 4e-1], rtol=1e-12)

    cands, bracket = fine_candidates(COARSE_GRID, 1e-6)
    assert bracket == (5e-7, 5e-6)
    np.testing.assert_allclose(cands, [6e-7, 7e-7, 8e-7, 9e-7, 2e-6, 3e-6, 4e-6], rtol=1e-12)

    with pytest.raises(InvalidArgumentError):
        fine_candidates(COARSE_GRID, 2e-4)


def test_step_size_ties_break_toward_the_smaller_one():
    rows = [
        {"eta": 1e-3, "mean_metric": 1.0},
        {"eta": 1e-4, "mean_metric": 1.0},
        {"eta": 1e-2, "mean_metric": 2.0},
    ]
    assert _argmin_eta(rows) == 1e-4


def test_sweep_refines_around_the_coarse_winner():
    cfg = quad_config(
        optimizer={"name": "zo-sgd"},
        T=50,
        q=1,
        coarse_grid=[1e-6, 1e-5, 1e-4],
    )
    sweep = coarse_fine_sweep(cfg)
    assert not sweep.all_diverged
    assert sweep.bracket == (1e-5, 5e-4)
    etas = [row["eta"] for row in sweep.rows]
    assert etas == sorted(etas)
    assert len(etas) == 14
    assert sweep.best_eta >= 1e-4
    assert sweep.best_eta in sweep.traces_by_eta
    curve = robustness_curve(sweep)
    winner_row = [r for r in curve if r["eta"] == sweep.best_eta][0]
    assert winner_row["eta_ratio"] == 1.0
    width = robust_log_width(sweep)
    assert width["lo_eta"] <= sweep.best_eta <= width["hi_eta"]
    assert width["log10_width"] >= 0.0


def test_sweep_where_everything_diverges_is_flagged():
    cfg = quad_config(
        optimizer={"name": "zo-sgd"},
        T=100,
        coarse_grid=[100.0, 500.0],
    )
    sweep = coarse_fine_sweep(cfg)
    assert sweep.all_diverged
    assert len(sweep.rows) == 2
    with pytest.raises(InvalidArgumentError):
        robustness_curve(sweep)
    with pytest.raises(InvalidArgumentError):
        robust_log_width(sweep)


def test_robust_log_width_hand_case():
    rows = [
        {"eta": 1e-4, "mean_metric": 5.0, "mean_best": 5.0, "mean_final": 5.0, "n_diverged": 0},
        {"eta": 5e-4, "mean_metric": 2.0, "mean_best": 2.0, "mean_final": 2.0, "n_diverged": 0},
        {"eta": 1e-3, "mean_metric": 1.0, "mean_best": 1.0, "mean_final": 1.0, "n_diverged": 0},
        {"eta": 5e-3, "mean_metric": 9.0, "mean_best": 9.0, "mean_final": 9.0, "n_diverged": 0},
        {"eta": 1e-2, "mean_metric": 50.0, "mean_best": 50.0, "mean_final": 50.0, "n_diverged": 0},
    ]
    sweep = SweepResult(
        rows=rows,
        best_eta=1e-3,
        bracket=(1e-4, 1e-2),
        all_diverged=False,
        metric="final",
        traces_by_eta={},
    )
    width = robust_log_width(sweep, factor=10.0)
    assert width["lo_eta"] == 1e-4
    assert width["hi_eta"] == 5e-3
    assert width["log10_width"] == pytest.approx(math.log10(50.0))
    tight = robust_log_width(sweep, factor=3.0)
    assert tight["lo_eta"] == 5e-4
    assert tight["hi_eta"] == 1e-3


def test_transferred_step_size_keeps_sgd_within_twice_the_source_loss():
    fzoo_raw = {
        "objective": {"kind": "quadratic", "d": 9, "regime": "homogeneous", "seed": 0},
        "optimizer": {"name": "fzoo", "eta": 1e-9},
        "T": 50,
        "q": 4,
        "seeds": list(range(10)),
    }
    fzoo_traces = run(ExperimentConfig.from_dict(fzoo_raw))
    ratios = []
    for trace in fzoo_traces:
        eta = transfer_step_size(trace)
        sgd_raw = {
            "objective": fzoo_raw["objective"],
            "optimizer": {"name": "zo-sgd", "eta": eta},
            "T": 50,
            "q": 4,
            "seeds": [trace.seed],
        }
        sgd = run(ExperimentConfig.from_dict(sgd_raw))[0]
        assert not sgd.diverged
        ratios.append(sgd.final_loss / trace.final_loss)
    assert float(np.median(ratios)) <= 2.0


def test_transfer_step_size_hand_case():
    trace = run(quad_config(optimizer={"name": "fzoo", "eta": 1e-9}, T=5, q=3))[0]
    assert transfer_step_size(trace) == pytest.approx(1e-9 / np.mean(trace.sigmas))
    empty = Trace(
        seed=0,
        eta=1.0,
        steps=[],
        losses=[],
        grad_norm_sq=[],
        v_min=[],
        v_max=[],
        v_mean=[],
        fn_evals=[],
        block_forwards=[],
        elapsed=[],
        sigmas=[],
        diverged=False,
        initial_loss=1.0,
        final_loss=1.0,
        best_loss=1.0,
        steps_to_threshold=None,
        wall_time=0.0,
    )
    with pytest.raises(InvalidArgumentError):
        transfer_step_size(empty)
