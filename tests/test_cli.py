"""Command-line interface: artifacts, determinism, and exit codes."""

import json
import math
import os
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zoptim import TRACE_HEADER, cli, moment_report
from zoptim.cli import main
from zoptim.errors import InvalidArgumentError


def write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_cfg(**over):
    raw = {
        "objective": {"kind": "quadratic", "d": 4, "regime": "heterogeneous", "seed": 0},
        "optimizer": {"name": "meazo", "eta": 1e-3},
        "T": 20,
        "q": 2,
        "seeds": [0, 1],
    }
    raw.update(over)
    return raw


def test_run_writes_traces_and_summary_deterministically(tmp_path):
    cfg = write_cfg(tmp_path, run_cfg())
    out1 = tmp_path / "out1"
    out2 = tmp_path / "out2"
    assert main(["run", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["run", "--config", cfg, "--out", str(out2)]) == 0
    for seed in (0, 1):
        f1 = out1 / f"trace_seed{seed}.csv"
        f2 = out2 / f"trace_seed{seed}.csv"
        assert f1.read_bytes() == f2.read_bytes()
        assert f1.read_text().splitlines()[0] == TRACE_HEADER
    summary = json.loads((out1 / "summary.json").read_text())
    assert [r["seed"] for r in summary["runs"]] == [0, 1]
    assert all(not r["diverged"] for r in summary["runs"])


def test_run_reports_divergence_with_exit_code_three(tmp_path):
    cfg = write_cfg(
        tmp_path, run_cfg(optimizer={"name": "zo-sgd", "eta": 100.0}, T=100, seeds=[0])
    )
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 3
    summary = json.loads((out / "summary.json").read_text())
    assert summary["runs"][0]["diverged"] is True


LAST_STEP_BLOWUP = run_cfg(objective={"kind": "quadratic", "d": 9},
                           optimizer={"name": "zo-sgd", "eta": 1e2}, T=1, seeds=[0])


def test_run_that_blows_up_on_its_last_step_exits_three(tmp_path):
    cfg = write_cfg(tmp_path, LAST_STEP_BLOWUP)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 3
    run = json.loads((out / "summary.json").read_text())["runs"][0]
    assert run["diverged"] is True
    assert run["final_loss"] == math.inf
    rows = (out / "trace_seed0.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["0"]  # no row for the blown-up step


@pytest.mark.parametrize("command", ["sweep", "robustness"])
def test_sweep_whose_runs_all_blow_up_on_their_last_step_exits_four(tmp_path, command):
    cfg = write_cfg(tmp_path, {**LAST_STEP_BLOWUP, "optimizer": {"name": "zo-sgd"},
                               "seeds": 3, "coarse_grid": [1e2, 1e3]})
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 4
    name = "sweep.json" if command == "sweep" else "robustness.json"
    assert json.loads((out / name).read_text())["all_diverged"] is True


def test_bad_configs_exit_with_code_two(tmp_path):
    unknown = write_cfg(tmp_path, {**run_cfg(), "bogus": 1})
    out = str(tmp_path / "out")
    assert main(["run", "--config", unknown, "--out", out]) == 2
    missing = str(tmp_path / "never-written.json")
    assert main(["run", "--config", missing, "--out", out]) == 2
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert main(["run", "--config", str(garbled), "--out", out]) == 2
    assert main(["run", "--out", out]) == 2
    assert main(["does-not-exist", "--config", missing, "--out", out]) == 2


def test_sweep_writes_results_and_winner_traces(tmp_path):
    cfg = write_cfg(
        tmp_path,
        run_cfg(
            optimizer={"name": "zo-sgd"},
            T=30,
            q=1,
            seeds=[0],
            coarse_grid=[1e-6, 1e-5, 1e-4],
        ),
    )
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "sweep.json").read_text())
    assert payload["metric"] == "final"
    assert not payload["all_diverged"]
    etas = [row["eta"] for row in payload["rows"]]
    assert payload["best_eta"] in etas
    assert (out / "trace_seed0.csv").exists()


def test_sweep_where_everything_diverges_exits_four(tmp_path):
    cfg = write_cfg(
        tmp_path,
        run_cfg(optimizer={"name": "zo-sgd"}, T=100, seeds=[0], coarse_grid=[100.0, 500.0]),
    )
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 4
    payload = json.loads((out / "sweep.json").read_text())
    assert payload["all_diverged"] is True
    assert not (out / "trace_seed0.csv").exists()


def test_robustness_reports_curve_and_width(tmp_path):
    cfg = write_cfg(
        tmp_path,
        run_cfg(
            optimizer={"name": "zo-sgd"},
            T=30,
            q=1,
            seeds=[0],
            coarse_grid=[1e-6, 1e-5, 1e-4],
        ),
    )
    out = tmp_path / "out"
    assert main(["robustness", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "robustness.json").read_text())
    assert {"best_eta", "curve", "width"} <= set(payload)
    assert payload["width"]["log10_width"] >= 0.0
    ratios = [row["eta_ratio"] for row in payload["curve"]]
    assert any(r == 1.0 for r in ratios)


def test_robustness_when_everything_diverges_exits_four(tmp_path):
    cfg = write_cfg(
        tmp_path,
        run_cfg(optimizer={"name": "zo-sgd"}, T=100, seeds=[0], coarse_grid=[100.0, 500.0]),
    )
    out = tmp_path / "out"
    assert main(["robustness", "--config", cfg, "--out", str(out)]) == 4
    assert json.loads((out / "robustness.json").read_text()) == {"all_diverged": True}


def test_verify_moments_passes_on_honest_tolerances(tmp_path):
    cfg = write_cfg(
        tmp_path,
        {
            "cases": [
                {"g": [1.0, 0.0], "q": 1, "distribution": "gaussian", "n": 150000, "tol": 0.05},
                {"g": [1.0, 0.0], "q": 2, "distribution": "uniform", "n": 150000, "tol": 0.05},
            ]
        },
    )
    out = tmp_path / "out"
    assert main(["verify-moments", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "moments.json").read_text())
    assert payload["all_pass"] is True
    assert payload["cases"][0]["predicted"] == [3.0, 1.0]


def test_verify_moments_fails_on_impossible_tolerance(tmp_path):
    cfg = write_cfg(
        tmp_path,
        {"cases": [{"g": [1.0, 0.0], "q": 1, "n": 2000, "tol": 1e-9}]},
    )
    out = tmp_path / "out"
    assert main(["verify-moments", "--config", cfg, "--out", str(out)]) == 3
    payload = json.loads((out / "moments.json").read_text())
    assert payload["all_pass"] is False
    bad = write_cfg(tmp_path, {"cases": [{"g": [1.0], "what": 1}]}, name="bad.json")
    assert main(["verify-moments", "--config", bad, "--out", str(out)]) == 2


MOMENT_CASES = [
    {"g": [0.6, -0.8], "q": 1, "distribution": "gaussian", "n": 40_000, "tol": 1e-6, "seed": 3},
    {"g": [0.5, 0.1, -0.3, 0.2, 0.7, -0.1, 0.0, 0.4], "q": 4, "distribution": "gaussian",
     "n": 70_000, "tol": 0.1, "seed": 11},
    {"g": [1.0, 0.0], "q": 2, "distribution": "uniform", "n": 50_000, "tol": 0.1},
    {"g": [0.3], "q": 3, "distribution": "uniform", "n": 33_000, "tol": 0.1, "seed": 5},
]


@pytest.mark.parametrize("cpus", [1, 4])
def test_concurrent_verify_moments_equals_sequential_moment_reports(tmp_path, monkeypatch, cpus):
    cases = []
    for case in MOMENT_CASES:
        rep = moment_report(np.array(case["g"]), case["q"], case["distribution"], case["n"],
                            seed=case.get("seed", 0))
        cases.append({
            "g": case["g"], "q": case["q"], "distribution": case["distribution"],
            "n": rep.n_trials, "predicted": rep.predicted.tolist(),
            "empirical": rep.empirical.tolist(), "max_rel_err": rep.max_rel_err,
            "tol": case["tol"], "pass": rep.max_rel_err <= case["tol"],
        })
    want = json.dumps({"cases": cases, "all_pass": False}, indent=2) + "\n"
    assert [c["pass"] for c in cases] == [False, True, True, True]

    # More workers than this machine may have cores, switching threads often.
    monkeypatch.setattr(cli, "_cpu_count", lambda: cpus)
    cfg = write_cfg(tmp_path, {"cases": MOMENT_CASES})
    out = tmp_path / "out"
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        assert main(["verify-moments", "--config", cfg, "--out", str(out)]) == 3
    finally:
        sys.setswitchinterval(interval)
    assert (out / "moments.json").read_text() == want


@pytest.mark.parametrize(
    "bad",
    [
        {1: {"n": 0}},
        {1: {"n": 0}, 2: {"q": 0}},
        {1: {"distribution": "rademacher"}, 3: {"n": 0}},
        {1: {"g": []}, 2: {"q": "a"}},
    ],
    ids=["zero-n", "zero-n-then-zero-q", "no-formula-then-zero-n", "empty-g-then-string-q"],
)
def test_verify_moments_names_the_first_bad_case(tmp_path, capsys, bad):
    cases = [dict(case) for case in MOMENT_CASES]
    for i, over in bad.items():
        cases[i].update(over)
    cfg = write_cfg(tmp_path, {"cases": cases})
    out = tmp_path / "out"
    assert main(["verify-moments", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "cases[1]" in err and "cases[2]" not in err and "cases[3]" not in err
    assert not out.exists()


def test_verify_moments_names_a_case_that_fails_on_its_worker(tmp_path, monkeypatch, capsys):
    run = cli.analysis.moment_report

    def moment_report_failing_for_q4(g, q, distribution, n, seed=0):
        if q == 4:
            raise InvalidArgumentError("raised on the worker")
        return run(g, q, distribution, n, seed=seed)

    monkeypatch.setattr(cli.analysis, "moment_report", moment_report_failing_for_q4)
    cfg = write_cfg(tmp_path, {"cases": MOMENT_CASES})
    assert main(["verify-moments", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "cases[1]: raised on the worker" in capsys.readouterr().err


@pytest.mark.parametrize("n_cases, cpus, workers", [(5, 3, 3), (2, 8, 2), (4, 1, 1)])
def test_moment_workers_are_one_per_case_up_to_the_cores(tmp_path, monkeypatch, n_cases, cpus,
                                                         workers):
    import concurrent.futures

    pools = []

    class RecordingPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli, "_cpu_count", lambda: cpus)
    cases = [{"g": [1.0, 0.5], "n": 10, "tol": 10.0}] * n_cases
    cfg = write_cfg(tmp_path, {"cases": cases})
    assert main(["verify-moments", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert pools == [workers]


def test_verify_moments_rejects_unknown_top_level_keys(tmp_path):
    cfg = write_cfg(
        tmp_path,
        {"cases": [{"g": [1.0, 0.0], "n": 2000}], "tol": 1e-9},
    )
    out = tmp_path / "out"
    assert main(["verify-moments", "--config", cfg, "--out", str(out)]) == 2
    assert not (out / "moments.json").exists()


def bounds_cfg(**over):
    raw = {
        "d": 9,
        "regime": "heterogeneous",
        "quad_seed": 0,
        "q": 10,
        "epsilon": 1e-6,
        "distribution": "gaussian",
        "sigma": 0.0,
        "noise_seed": 0,
        "f0": 0.05,
        "radius": 0.4,
        "seeds": 2,
        "meazo": {"eta": 1e-4, "T": 200, "beta": 1 - 1.5e-8, "zeta": 1.0},
        "zosgd": {"eta": 5e-5, "T": 100},
        "reduction": {
            "d": 9,
            "q": 1e9,
            "epsilon": 1e-12,
            "L": 1100.0,
            "sigma": 0.0,
            "eta": 1e-6,
            "T": 1000,
            "f0": 1.0,
            "tol": 1e-6,
        },
    }
    raw.update(over)
    return raw


def test_verify_bounds_passes_on_a_valid_setup(tmp_path):
    cfg = write_cfg(tmp_path, bounds_cfg())
    out = tmp_path / "out"
    assert main(["verify-bounds", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "bounds.json").read_text())
    assert payload["all_pass"] is True
    assert payload["reduction"]["pass"] is True
    for side in payload["sides"]:
        assert side["empirical_mean"] <= side["bound"]
        assert side["all_within_radius"] is True


def test_verify_bounds_rejects_missing_and_failing_setups(tmp_path):
    incomplete = bounds_cfg()
    del incomplete["radius"]
    cfg = write_cfg(tmp_path, incomplete)
    out = str(tmp_path / "out")
    assert main(["verify-bounds", "--config", cfg, "--out", out]) == 2
    hasty = bounds_cfg(meazo={"eta": 1e-4, "T": 50, "beta": 0.9, "zeta": 1.0})
    cfg2 = write_cfg(tmp_path, hasty, name="hasty.json")
    assert main(["verify-bounds", "--config", cfg2, "--out", out]) == 3


@pytest.mark.parametrize(
    "over",
    [{"zosgd": {"eta": 5e-5, "T": 0}}, {"reduction": {**bounds_cfg()["reduction"], "tol": -1}}],
    ids=["zosgd-zero-T", "reduction-negative-tol"],
)
def test_verify_bounds_reads_every_section_before_any_run(tmp_path, monkeypatch, over):
    calls = []
    monkeypatch.setattr(cli.analysis, "bound_check_run", lambda *a, **k: calls.append(a))
    # The meazo side also breaks its step-size precondition (exit 3 on its own);
    # the malformed section is found first.
    cfg = write_cfg(tmp_path, bounds_cfg(meazo={"eta": 1e-4, "T": 50, "beta": 0.9}, **over))
    out = tmp_path / "out"
    assert main(["verify-bounds", "--config", cfg, "--out", str(out)]) == 2
    assert calls == []
    assert not (out / "bounds.json").exists()


@pytest.mark.parametrize("key", ["beta", "zeta"])
def test_verify_bounds_zosgd_side_takes_no_second_moment_keys(tmp_path, monkeypatch, capsys, key):
    # zo-sgd keeps no second moment: a beta or zeta on its side is an unknown key.
    calls = []
    monkeypatch.setattr(cli.analysis, "bound_check_run", lambda *a, **k: calls.append(a))
    cfg = write_cfg(tmp_path, bounds_cfg(zosgd={"eta": 5e-5, "T": 100, key: 7.0}))
    out = tmp_path / "out"
    assert main(["verify-bounds", "--config", cfg, "--out", str(out)]) == 2
    assert f"unknown zosgd keys: ['{key}']" in capsys.readouterr().err
    assert calls == []
    assert not (out / "bounds.json").exists()


@pytest.mark.parametrize(
    "over, named",
    [
        ({"optimizers": ["zo-adam", "meazo", "bogus"]}, "'bogus'"),
        ({"optimizers": ["meazo", "zo-sgd"]}, "zo-sgd keeps no second moment"),
        ({"dims": [4, 8]}, "got 8"),
    ],
    ids=["unknown-optimizer", "no-second-moment", "nonsquare-d"],
)
def test_fig2_checks_every_entry_before_the_first_step(tmp_path, monkeypatch, capsys, over,
                                                       named):
    calls = []
    monkeypatch.setattr(cli.analysis, "_run_one", lambda *a: calls.append(a))
    cfg = write_cfg(tmp_path, {"dims": [4], "optimizers": ["meazo"], "max_steps": 5, **over})
    out = tmp_path / "out"
    assert main(["fig2", "--config", cfg, "--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize(
    "over, named",
    [
        ({"dims": []}, "config.dims must list at least one entry"),
        ({"optimizers": []}, "config.optimizers must list at least one entry"),
        ({"x0_norm": -1}, "config.x0_norm must be > 0"),
        ({"threshold": -1}, "config.threshold must be > 0"),
        ({"eta": 0}, "config.eta must be > 0"),
        ({"q": 0}, "config.q must be >= 1"),
        ({"epsilon": -1e-6}, "config.epsilon must be > 0"),
        ({"zeta": 0}, "config.zeta must be > 0"),
        ({"max_steps": 2.5}, "config.max_steps must be an integer"),
        ({"tail": -3}, "config.tail must be >= 1"),
        ({"dims": [4, 0]}, "config.dims entry must be >= 1"),
        ({"beta1": 1}, "config.beta1 must be in [0, 1)"),
        ({"beta2": 1.5}, "config.beta2 must be in (0, 1)"),
        ({"beta2": 0}, "config.beta2 must be in (0, 1)"),
    ],
    ids=["empty-dims", "empty-optimizers", "negative-x0-norm", "negative-threshold", "zero-eta",
         "zero-q", "negative-epsilon", "zero-zeta", "fractional-max-steps", "negative-tail",
         "zero-d", "beta1-one", "beta2-past-one", "zero-beta2"],
)
def test_fig2_fields_outside_their_domain_exit_two_before_any_step(tmp_path, monkeypatch, capsys,
                                                                    over, named):
    calls = []
    monkeypatch.setattr(cli.analysis, "_run_one", lambda *a: calls.append(a))
    cfg = write_cfg(tmp_path, {"dims": [4], "optimizers": ["meazo"], "max_steps": 5, **over})
    out = tmp_path / "out"
    assert main(["fig2", "--config", cfg, "--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


def test_fig2_writes_rows_and_series(tmp_path):
    cfg = write_cfg(
        tmp_path,
        {
            "dims": [4],
            "optimizers": ["meazo", "zo-adam"],
            "eta": 1e-3,
            "q": 2,
            "threshold": 1e-12,
            "max_steps": 60,
            "tail": 10,
            "series": True,
        },
    )
    out = tmp_path / "out"
    assert main(["fig2", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "fig2.json").read_text())
    assert len(payload["rows"]) == 2
    meazo_row = [r for r in payload["rows"] if r["optimizer"] == "meazo"][0]
    assert meazo_row["vhat_min"] == meazo_row["vhat_max"]
    for name in ("fig2_meazo_d4.csv", "fig2_zo-adam_d4.csv"):
        lines = (out / name).read_text().splitlines()
        assert lines[0] == "step,loss,grad_norm_sq,spread"
        assert len(lines) == 61
    bad = write_cfg(tmp_path, {"dims": [4], "whoops": True}, name="bad.json")
    assert main(["fig2", "--config", bad, "--out", str(out)]) == 2


@pytest.mark.parametrize(
    "over",
    [
        {"objective": {"kind": "quadratic", "d": 8}},
        {"seeds": [-1]},
        {"seeds": [2**64]},
        {"optimizer": {"name": "meazo", "eta": 1e-3, "beta": 1.5}},
        {"optimizer": {"name": "zo-adam", "eta": 1e-3, "beta1": 1.5}},
        {"T": "abc"},
        {"T": 2.5},
        {"q": "abc"},
        {"eval_every": "abc"},
        {"epsilon": "abc"},
        {"threshold": "abc"},
        {"stop_at_threshold": "false"},
        {"wall_clock": 1},
        {"coarse_grid": ["a", "b"]},
        {"partition": [["a", 2], [2, 4]], "optimizer": {"name": "meazo-grouped", "eta": 1e-3}},
        {"objective": {"kind": "chain", "p": 2, "widths": "abc"}},
        {"objective": "ab"},
        {"optimizer": "ab"},
        {"x0": "ab"},
        {"x0": 5},
        {"x0": {"mode": "equal_energy", "f0": -1.0}},
        {"x0": {"mode": "gaussian", "scale": -0.1}},
        {"x0": {"mode": "gaussian", "norm": -1.0}},
        {"optimizer": {"name": "meazo", "eta": -1.0}},
        {"optimizer": {"name": "zo-adam", "eta": 1e-3, "zeta": 0.0}},
        {"partition": [[0, 2], [2, 4]]},
        # A stop far past d must be rejected before a block is allocated.
        {"partition": [[0, 2], [2, 2**40]], "optimizer": {"name": "meazo-grouped", "eta": 1e-3}},
        # Range bounds are integers: neither truncated nor parsed from strings.
        {"partition": [[0, 1.5], [1, 4]], "optimizer": {"name": "meazo-grouped", "eta": 1e-3}},
        {"partition": [[0, 1], ["1", 4]], "optimizer": {"name": "meazo-grouped", "eta": 1e-3}},
        {"partition": [[0, 1, 2], [2, 4]], "optimizer": {"name": "meazo-grouped", "eta": 1e-3}},
        # A seed count past the cap is rejected before any seed is expanded.
        {"seeds": 2**40},
        # Config numbers are finite: JSON has no NaN or Infinity.
        {"objective": {"kind": "quadratic", "d": 4, "sigma": float("nan")}},
        {"x0": {"mode": "equal_energy", "f0": float("nan")}},
        {"optimizer": {"name": "meazo", "eta": float("inf")}},
        # Sizes numpy refuses before it allocates anything.
        {"q": 2**62},
        {"objective": {"kind": "chain", "p": 2, "widths": 2**62}},
        {"objective": {"kind": "chain", "p": 2, "widths": [1, 2**62, 1]},
         "optimizer": {"name": "zo-adam", "eta": 1e-3}},
    ],
)
def test_out_of_domain_and_mistyped_fields_exit_two(tmp_path, over):
    cfg = write_cfg(tmp_path, run_cfg(**over))
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "over, named",
    [
        ({"x0": {"scale": -0.1}}, "x0.scale must be >= 0"),
        ({"x0": {"norm": -1.0}}, "x0.norm must be >= 0"),
        ({"optimizer": {"name": "meazo", "eta": -1.0}}, "optimizer.eta must be > 0"),
        ({"optimizer": {"name": "meazo", "eta": 1e-3, "zeta": -3.0}}, "optimizer.zeta must be > 0"),
        ({"optimizer": {"name": "meazo", "eta": 1e-3, "beta": 1}}, "optimizer.beta must be in (0, 1)"),
        ({"optimizer": {"name": "meazo", "eta": 1e-3, "beta": 0}}, "optimizer.beta must be in (0, 1)"),
        ({"optimizer": {"name": "zo-adam", "eta": 1e-3, "beta1": 1}},
         "optimizer.beta1 must be in [0, 1)"),
        ({"optimizer": {"name": "radazo", "eta": 1e-3, "beta2": -0.1}},
         "optimizer.beta2 must be in (0, 1)"),
    ],
    ids=["negative-x0-scale", "negative-x0-norm", "negative-eta", "negative-zeta", "beta-one",
         "beta-zero", "beta1-one", "negative-beta2"],
)
def test_run_fields_outside_their_domain_exit_two_before_any_step(tmp_path, monkeypatch, capsys,
                                                                   over, named):
    calls = []
    monkeypatch.setattr(cli.harness, "_run_seed", lambda *a: calls.append(a))
    cfg = write_cfg(tmp_path, run_cfg(**over))
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("name", ["zo-sgd", "meazo-grouped"])
def test_an_empty_partition_exits_two_naming_the_field(tmp_path, capsys, name):
    cfg = write_cfg(tmp_path, run_cfg(partition=[], optimizer={"name": name, "eta": 1e-3}))
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config.partition" in err and "concatenate" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, payload",
    [
        ("verify-bounds", bounds_cfg(d=8)),
        ("verify-bounds", bounds_cfg(d="abc")),
        ("verify-bounds", bounds_cfg(zosgd={"eta": "x", "T": 100})),
        ("verify-bounds", bounds_cfg(meazo={"eta": 1e-4, "T": 0})),
        ("verify-bounds", bounds_cfg(zosgd={"eta": 0.0, "T": 100})),
        ("verify-bounds", bounds_cfg(reduction={"d": 9})),
        ("verify-bounds", bounds_cfg(reduction={**bounds_cfg()["reduction"], "q": 0})),
        ("verify-bounds", bounds_cfg(reduction={**bounds_cfg()["reduction"], "L": 0})),
        ("verify-bounds", bounds_cfg(reduction={**bounds_cfg()["reduction"], "eta": 0})),
        ("verify-bounds", bounds_cfg(reduction={**bounds_cfg()["reduction"], "d": 0, "q": 1})),
        ("fig2", {"dims": [8], "max_steps": 5}),
        ("fig2", {"dims": [4], "eta": "x", "max_steps": 5}),
        ("fig2", {"dims": [4], "optimizers": ["sgd"], "max_steps": 5}),
        ("fig2", {"dims": [4], "optimizers": [[1]], "max_steps": 5}),
        ("fig2", {"dims": [4], "series": "false", "max_steps": 5}),
        ("fig2", {"dims": [4], "tail": 0, "max_steps": 5}),
        ("fig2", {"dims": [4], "max_steps": 0}),
        ("verify-moments", {"cases": [{"g": [1.0, 0.0], "q": "a", "n": 100}]}),
        ("verify-moments", {"cases": [{"g": "abc", "n": 100}]}),
        ("verify-moments", {"cases": [{"g": [1.0, 0.0], "q": 0, "n": 100}]}),
        # numpy refuses this buffer before it allocates anything.
        ("verify-moments", {"cases": [{"g": [1.0, 0.0], "q": 10**18, "n": 100}]}),
        # A repeated step size would stand in for the winner's upper neighbour.
        ("sweep", run_cfg(coarse_grid=[1e-3, 1e-3])),
        ("robustness", run_cfg(coarse_grid=[1e-4, 1e-3, 1e-3])),
        ("verify-bounds", bounds_cfg(sigma=-1.0)),
        ("verify-bounds", bounds_cfg(reduction={**bounds_cfg()["reduction"], "sigma": -1.0})),
        ("verify-bounds", bounds_cfg(reduction={**bounds_cfg()["reduction"], "epsilon": -1e-12})),
    ],
    ids=[
        "bounds-nonsquare-d", "bounds-string-d", "bounds-string-eta", "bounds-zero-T",
        "bounds-zero-eta", "bounds-incomplete-reduction", "reduction-zero-q",
        "reduction-zero-L", "reduction-zero-eta", "reduction-zero-d", "fig2-nonsquare-dims",
        "fig2-string-eta", "fig2-unknown-optimizer", "fig2-list-optimizer",
        "fig2-string-series", "fig2-zero-tail", "fig2-zero-max-steps", "moments-string-q",
        "moments-string-g", "moments-zero-q", "moments-unallocatable-q",
        "sweep-duplicate-grid", "robustness-duplicate-grid", "bounds-negative-sigma",
        "reduction-negative-sigma", "reduction-negative-epsilon",
    ],
)
def test_verification_configs_with_bad_fields_exit_two(tmp_path, command, payload):
    cfg = write_cfg(tmp_path, payload)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "command, payload, field",
    [
        ("verify-moments", {"cases": [{"g": [1.0, 0.0], "n": 100, "tol": -1}]}, "cases[0].tol"),
        ("verify-bounds", bounds_cfg(reduction={**bounds_cfg()["reduction"], "tol": -1}),
         "reduction.tol"),
    ],
    ids=["moments", "bounds"],
)
def test_negative_verify_tolerance_is_a_config_error(tmp_path, capsys, command, payload, field):
    # A bad tolerance is a config error, not a failed check.
    cfg = write_cfg(tmp_path, payload)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert f"{field} must be >= 0" in capsys.readouterr().err
    assert not out.exists()


REDUCTION = bounds_cfg()["reduction"]


@pytest.mark.parametrize(
    "command, payload, message",
    [
        ("verify-bounds", bounds_cfg(reduction={**REDUCTION, "f0": -1.0}),
         "reduction.f0 must be >= 0"),
        ("verify-bounds", bounds_cfg(reduction={**REDUCTION, "d": 9.5}),
         "reduction.d must be an integer"),
        ("verify-bounds", bounds_cfg(reduction={**REDUCTION, "T": 0}), "reduction.T must be >= 1"),
        ("verify-bounds", bounds_cfg(reduction={**REDUCTION, "L": -1.0}),
         "reduction.L must be > 0"),
        ("verify-bounds", bounds_cfg(f0=-1.0), "config.f0 must be >= 0"),
        ("verify-bounds", bounds_cfg(radius=0.0), "config.radius must be > 0"),
        ("verify-bounds", bounds_cfg(d=0), "config.d must be >= 1"),
        ("verify-bounds", bounds_cfg(meazo={"eta": -1e-4, "T": 20}), "meazo.eta must be > 0"),
        ("verify-bounds", bounds_cfg(zosgd={"eta": 0.0, "T": 20}), "zosgd.eta must be > 0"),
        ("verify-bounds", bounds_cfg(meazo={"eta": 1e-4, "T": 20, "zeta": -3.0}),
         "meazo.zeta must be > 0"),
        ("verify-bounds", bounds_cfg(meazo={"eta": 1e-4, "T": 20, "beta": 1}),
         "meazo.beta must be in (0, 1)"),
        ("verify-moments", {"cases": [{"g": [1.0, 0.0], "n": 100}, {"g": [0.0, 0.0], "n": 100}]},
         "cases[1]: g predicts a zero second moment"),
        ("verify-moments", {"cases": [{"g": [1.0, 0.0], "q": 1.5, "n": 100}]},
         "cases[0].q must be an integer"),
    ],
    ids=["reduction-negative-f0", "reduction-fractional-d", "reduction-zero-T",
         "reduction-negative-L", "bounds-negative-f0", "bounds-zero-radius", "bounds-zero-d",
         "meazo-negative-eta", "zosgd-zero-eta", "meazo-negative-zeta", "meazo-beta-one",
         "moments-zero-g",
         "moments-fractional-q"],
)
def test_out_of_domain_verify_fields_exit_two_naming_the_field(tmp_path, capsys, command,
                                                                payload, message):
    cfg = write_cfg(tmp_path, payload)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


CONTRACT_POOL = (None, True, "x", -1, 0, 0.5, 1.5, [], {}, [1], float("nan"), float("inf"))
# A decay rate's edges: with the pool's 0 and 1.5, each side of both ends.
DECAY_POOL = (1, -0.1)
CONTRACT_BASE = {
    "objective": {
        "kind": "quadratic", "d": 4, "regime": "heterogeneous", "seed": 0,
        "sigma": 0.1, "noise_seed": 0,
    },
    "optimizer": {"name": "meazo-grouped", "eta": 1e-3, "beta": 0.999, "zeta": 1e-8},
    "partition": [[0, 2], [2, 4]],
    "T": 3,
    "q": 2,
    "epsilon": 1e-6,
    "distribution": "gaussian",
    "seeds": [0],
    "eval_every": 1,
    "threshold": 1e-3,
    "stop_at_threshold": False,
    "x0": {"mode": "gaussian", "scale": 0.1},
    "wall_clock": False,
    "grouped_eval": "naive",
    "metric": "final",
    "coarse_grid": [1e-3, 1e-2],
}


CONTRACT_BASES = {
    "run": CONTRACT_BASE,
    "verify-bounds": bounds_cfg(
        seeds=1,
        meazo={"eta": 1e-4, "T": 20, "beta": 1 - 1.5e-8, "zeta": 1.0},
        zosgd={"eta": 5e-5, "T": 20},
    ),
    "fig2": {
        "dims": [4], "optimizers": ["meazo", "zo-adam"], "eta": 1e-3, "q": 2,
        "threshold": 1e-3, "max_steps": 5, "x0_norm": 0.3, "seed": 0,
        "regime": "heterogeneous", "quad_seed": 0, "tail": 3, "epsilon": 1e-6,
        "beta1": 0.9, "beta2": 0.999, "zeta": 1e-8, "distribution": "gaussian",
        "series": True,
    },
    "verify-moments": {
        "cases": [
            {"g": [1.0, 0.0], "q": 1, "distribution": "gaussian", "n": 100, "tol": 1.0, "seed": 0}
        ],
    },
}


# The kind each number, flag and named-choice field of CONTRACT_BASES is
# read as: "int" and "count" (>= 1) and "seed" (>= 0) take integral numbers,
# "float", "positive" (> 0), "nonneg" (>= 0), "decay" (in (0, 1)) and
# "decay0" (in [0, 1)) any finite number, "flag" a boolean, and "choice" one
# of its names, which no pool value is.
CONTRACT_KINDS = {
    "run": {
        "objective.kind": "choice", "objective.d": "int", "objective.regime": "choice",
        "objective.seed": "seed", "objective.sigma": "nonneg", "objective.noise_seed": "seed",
        "optimizer.name": "choice", "optimizer.eta": "positive", "optimizer.beta": "decay",
        "optimizer.zeta": "positive", "T": "count", "q": "count", "epsilon": "positive",
        "distribution": "choice", "eval_every": "count", "threshold": "positive",
        "stop_at_threshold": "flag", "x0.mode": "choice", "x0.scale": "nonneg",
        "wall_clock": "flag", "grouped_eval": "choice", "metric": "choice",
    },
    "verify-bounds": {
        "d": "count", "regime": "choice", "quad_seed": "seed", "q": "count",
        "epsilon": "positive", "distribution": "choice", "sigma": "nonneg",
        "noise_seed": "seed", "f0": "nonneg", "radius": "positive", "seeds": "count",
        "meazo.eta": "positive", "meazo.T": "count", "meazo.beta": "decay",
        "meazo.zeta": "positive", "zosgd.eta": "positive", "zosgd.T": "count",
        "reduction.d": "count", "reduction.q": "positive", "reduction.epsilon": "positive",
        "reduction.L": "positive", "reduction.sigma": "nonneg", "reduction.eta": "positive",
        "reduction.T": "count", "reduction.f0": "nonneg", "reduction.tol": "nonneg",
    },
    "fig2": {
        "eta": "positive", "q": "count", "threshold": "positive", "max_steps": "count",
        "x0_norm": "positive", "seed": "seed", "regime": "choice", "quad_seed": "seed",
        "tail": "count", "epsilon": "positive", "beta1": "decay0", "beta2": "decay",
        "zeta": "positive", "distribution": "choice", "series": "flag",
    },
    "verify-moments": {
        "cases.0.q": "count", "cases.0.distribution": "choice", "cases.0.n": "count",
        "cases.0.tol": "nonneg", "cases.0.seed": "seed",
    },
}


def in_kind(value, kind):
    """Whether a pool value lies inside a CONTRACT_KINDS kind."""
    if kind in ("flag", "choice"):
        return kind == "flag" and isinstance(value, bool)
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        return False
    if kind in ("int", "count", "seed") and value != int(value):
        return False
    if kind in ("decay", "decay0"):
        return (0 < value if kind == "decay" else 0 <= value) and value < 1
    low = {"count": 1, "seed": 0, "nonneg": 0}.get(kind)
    return value > 0 if kind == "positive" else low is None or value >= low


def contract_fields(raw, path=()):
    """Every key path of a config, nested sections and the first entry of a
    list of sections included, with its value."""
    items = raw.items() if isinstance(raw, dict) else [(0, raw[0])]
    for key, value in items:
        yield path + (key,), value
        if isinstance(value, dict) or (value and isinstance(value, list)
                                       and isinstance(value[0], dict)):
            yield from contract_fields(value, path + (key,))


def test_every_field_set_to_every_pool_value_exits_with_a_contract_code(tmp_path):
    # Exit codes: 0 success, 2 bad config, 3 numeric failure or failed
    # verification, 4 every run diverged; a traceback escaping main would
    # fail the test. A value outside its field's kind is a bad config.
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "out"
    n = 0
    for command, base in CONTRACT_BASES.items():
        seen = set()
        kinds = CONTRACT_KINDS[command]
        for path, base_value in contract_fields(base):
            kind = kinds.get(".".join(map(str, path)))
            # Every field but a list or a section has a kind here.
            assert kind is not None or isinstance(base_value, (list, dict)), (command, path)
            for value in CONTRACT_POOL + (DECAY_POOL if kind in ("decay", "decay0") else ()):
                raw = json.loads(json.dumps(base))
                section = raw
                for key in path[:-1]:
                    section = section[key]
                section[path[-1]] = value
                cfg.write_text(json.dumps(raw))
                code = main([command, "--config", str(cfg), "--out", str(out / str(n))])
                assert code in (0, 2, 3, 4), (command, path, value, code)
                if kind is not None and not in_kind(value, kind):
                    assert code == 2, (command, path, value, code)
                seen.add(code)
                n += 1
        assert {0, 2} <= seen, command


# Every number a leaf can take is at most 20, so no drawn size allocates
# much; CAPS then bounds the counts that set how long an example runs.
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 20) | st.floats(-20, 20) | st.text(max_size=3)
    | st.sampled_from([float("nan"), float("inf"), 1e-6]),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=3), kids,
                                                                max_size=3),
    max_leaves=6,
)
CAPS = {"T": 3, "max_steps": 5, "n": 64, "seeds": 2, "dims": 16}


def capped(value, key=None):
    """value with every number under a CAPS key, in lists too, cut to its cap."""
    if isinstance(value, dict):
        return {k: capped(v, k) for k, v in value.items()}
    if isinstance(value, list):
        return [capped(v, key) for v in value]
    if key in CAPS and isinstance(value, (int, float)) and not isinstance(value, bool):
        return min(value, CAPS[key])
    return value


@pytest.mark.parametrize("command", ["run", "sweep", "robustness", "verify-moments",
                                     "verify-bounds", "fig2"])
@settings(max_examples=100, derandomize=True, deadline=None)
@given(data=st.data())
def test_random_nested_json_configs_exit_with_a_contract_code(command, data):
    # Up to three fields or whole sections are replaced by a number (often in
    # the field's domain) or random nested JSON, and the whole config by a
    # value that is not an object or merged with one (an object in its place
    # would run fig2's full default study); main returns a contract code and
    # no exception escapes it.
    base = CONTRACT_BASES.get(command, CONTRACT_BASE)
    raw = json.loads(json.dumps(base))
    changes = data.draw(st.dictionaries(
        st.sampled_from([(), *(path for path, _ in contract_fields(base))]),
        st.integers(0, 20) | st.floats(0, 20) | JSON, max_size=3))
    # Inner paths first, so each path still leads through the base's sections.
    for path in sorted(changes, key=len, reverse=True):
        if not path:
            raw = {**raw, **changes[path]} if isinstance(changes[path], dict) else changes[path]
            continue
        section = raw
        for key in path[:-1]:
            section = section[key]
        section[path[-1]] = changes[path]
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "cfg.json")
        with open(cfg, "w") as fh:
            json.dump(capped(raw), fh)
        code = main([command, "--config", cfg, "--out", os.path.join(tmp, "out")])
    assert code in (0, 2, 3, 4), (raw, code)
