"""Tests of the benchmark's outside-in tracer.

    PYTHONPATH=src python -m pytest -q perfbench/test_tracer.py
"""

import json
import os
import time

import pytest

import zoptim.cli
import zoptim.estimators
import zoptim.perturb
from tracer import LAYERS, Tracer

QUADRATIC = {
    "objective": {"kind": "quadratic", "d": 9, "regime": "heterogeneous", "seed": 0},
    "optimizer": {"name": "meazo-grouped", "eta": 5e-3},
    "partition": [[0, 3], [3, 6], [6, 9]],
    "T": 60,
    "q": 2,
    "seeds": [0, 1],
}
CHAIN = {
    "objective": {"kind": "chain", "p": 3, "widths": 3, "seed": 0},
    "optimizer": {"name": "meazo-grouped", "eta": 1e-3},
    "partition": "layers:3",
    "grouped_eval": "efficient",
    "T": 40,
    "q": 2,
    "epsilon": 1e-4,
    "seeds": [0, 1],
}


def run_cli(tmp_path, config, out, tracer=None, command="run"):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    argv = [command, "--config", str(path), "--out", str(tmp_path / out)]
    if tracer is None:
        return zoptim.cli.main(argv)
    with tracer:
        return zoptim.cli.main(argv)


@pytest.mark.parametrize("config", [QUADRATIC, CHAIN], ids=["quadratic", "chain"])
def test_wrapped_counts_equal_program_counters(tmp_path, config):
    tracer = Tracer()
    assert run_cli(tmp_path, config, "traced", tracer) == 0
    runs = json.loads((tmp_path / "traced" / "summary.json").read_text())["runs"]
    m = tracer.metrics()
    assert m["estimators.fn_evals"] == sum(r["fn_evals"] for r in runs)
    assert m["estimators.block_forwards"] == sum(r["block_forwards"] for r in runs)
    assert m["estimators.fn_evals"] + m["estimators.block_forwards"] > 0
    assert m["harness.runs"] == len(runs)
    assert m["perturb.regen_ratio"] == 2.0  # meazo-grouped replays each direction once


def test_regen_ratio_counts_keys_per_run(tmp_path):
    # Every step size of a sweep draws the same streams again; that is not
    # regeneration inside a run.
    sweep = {**QUADRATIC, "optimizer": {"name": "meazo-grouped"}, "T": 20, "seeds": [0],
             "coarse_grid": [1e-3, 1e-2]}
    tracer = Tracer()
    assert run_cli(tmp_path, sweep, "traced", tracer, command="sweep") == 0
    m = tracer.metrics()
    assert m["harness.runs"] > 2
    assert m["perturb.regen_ratio"] == 2.0


def test_diverged_runs_are_counted(tmp_path):
    config = {**QUADRATIC, "optimizer": {"name": "zo-sgd", "eta": 10.0}, "partition": None,
              "seeds": [0]}
    tracer = Tracer()
    assert run_cli(tmp_path, config, "traced", tracer) == 3
    m = tracer.metrics()
    assert m["harness.runs"] == m["harness.runs_diverged"] == 1
    assert m["harness.diverged_step_frac"] == 1.0


def test_chain_saving_matches_prefix_caching_formula(tmp_path):
    tracer = Tracer()
    assert run_cli(tmp_path, CHAIN, "traced", tracer) == 0
    p, q = CHAIN["objective"]["p"], CHAIN["q"]
    assert tracer.metrics()["estimators.block_forward_saving"] == pytest.approx(
        2 * q * p * p / (p * q * (p + 1) + p - 1))


@pytest.mark.parametrize("config", [QUADRATIC, CHAIN], ids=["quadratic", "chain"])
def test_traced_trace_csvs_are_byte_identical(tmp_path, config):
    assert run_cli(tmp_path, config, "plain") == 0
    assert run_cli(tmp_path, config, "traced", Tracer()) == 0
    names = sorted(n for n in os.listdir(tmp_path / "plain") if n.endswith(".csv"))
    assert names == sorted(n for n in os.listdir(tmp_path / "traced") if n.endswith(".csv"))
    assert names
    for name in names:
        assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "traced" / name).read_bytes()


def test_self_times_sum_to_traced_wall_time(tmp_path):
    tracer = Tracer()
    started = time.perf_counter()
    assert run_cli(tmp_path, QUADRATIC, "traced", tracer) == 0
    wall = time.perf_counter() - started
    m = tracer.metrics()
    layer_sum = sum(m[f"{layer}.self_s"] for layer in LAYERS)
    assert layer_sum == pytest.approx(m["trace.wall_s"], rel=1e-9)
    assert layer_sum == pytest.approx(wall, rel=0.05)
    assert tracer.self_times().min() >= 0.0


def test_uninstall_restores_every_original(tmp_path):
    before = (zoptim.estimators.sample_direction, zoptim.cli.main,
              zoptim.objectives.BlockQuadratic.value)
    tracer = Tracer()
    with tracer:
        assert zoptim.estimators.sample_direction is not before[0]
    after = (zoptim.estimators.sample_direction, zoptim.cli.main,
             zoptim.objectives.BlockQuadratic.value)
    assert after == before
    assert zoptim.estimators.sample_direction is zoptim.perturb.sample_direction
