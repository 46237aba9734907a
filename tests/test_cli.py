"""Command-line interface: artifacts, determinism, and exit codes."""

import json

import pytest

from zoptim import TRACE_HEADER
from zoptim.cli import main


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
        {"partition": [[0, 2], [2, 4]]},
    ],
)
def test_out_of_domain_and_mistyped_fields_exit_two(tmp_path, over):
    cfg = write_cfg(tmp_path, run_cfg(**over))
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
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
        ("fig2", {"dims": [8], "max_steps": 5}),
        ("fig2", {"dims": [4], "eta": "x", "max_steps": 5}),
        ("fig2", {"dims": [4], "optimizers": ["sgd"], "max_steps": 5}),
        ("fig2", {"dims": [4], "optimizers": [[1]], "max_steps": 5}),
        ("fig2", {"dims": [4], "series": "false", "max_steps": 5}),
        ("verify-moments", {"cases": [{"g": [1.0, 0.0], "q": "a", "n": 100}]}),
        ("verify-moments", {"cases": [{"g": "abc", "n": 100}]}),
        ("verify-moments", {"cases": [{"g": [1.0, 0.0], "q": 0, "n": 100}]}),
    ],
    ids=[
        "bounds-nonsquare-d", "bounds-string-d", "bounds-string-eta", "bounds-zero-T",
        "bounds-zero-eta", "bounds-incomplete-reduction", "fig2-nonsquare-dims",
        "fig2-string-eta", "fig2-unknown-optimizer", "fig2-list-optimizer",
        "fig2-string-series", "moments-string-q", "moments-string-g", "moments-zero-q",
    ],
)
def test_verification_configs_with_bad_fields_exit_two(tmp_path, command, payload):
    cfg = write_cfg(tmp_path, payload)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


CONTRACT_POOL = (None, True, "x", -1, 0, 0.5, 1.5, [], {}, [1])
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


def contract_fields(raw, path=()):
    """Every key path of a config, nested sections included."""
    for key, value in raw.items():
        yield path + (key,)
        if isinstance(value, dict):
            yield from contract_fields(value, path + (key,))


def test_every_field_set_to_every_pool_value_exits_with_a_contract_code(tmp_path):
    # Exit codes: 0 success, 2 bad config, 3 numeric failure, 4 every run
    # diverged; a traceback escaping main would fail the test.
    base = tmp_path / "cfg.json"
    out = tmp_path / "out"
    seen = set()
    for path in contract_fields(CONTRACT_BASE):
        for value in CONTRACT_POOL:
            raw = json.loads(json.dumps(CONTRACT_BASE))
            section = raw
            for key in path[:-1]:
                section = section[key]
            section[path[-1]] = value
            base.write_text(json.dumps(raw))
            code = main(["run", "--config", str(base), "--out", str(out / str(len(seen)))])
            assert code in (0, 2, 3, 4), (path, value, code)
            seen.add(code)
    assert {0, 2} <= seen
