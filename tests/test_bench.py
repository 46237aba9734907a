"""The parent/change runner, summary and per-call runner of bench/."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
import ab  # noqa: E402


def test_a_child_imports_its_tree_with_cleared_blas_threads_and_its_own_bytecode_cache(
        monkeypatch, tmp_path):
    for key in (*ab.BLAS_ENV, "PYTHONDONTWRITEBYTECODE"):
        monkeypatch.setenv(key, "1")
    monkeypatch.setenv("PYTHONPATH", "/elsewhere")
    env = ab.env(tmp_path)
    assert env["PYTHONPATH"] == str(tmp_path / "src")
    assert env["PYTHONPYCACHEPREFIX"] == str(tmp_path / ".perfbench_out" / "pycache")
    assert not {*ab.BLAS_ENV, "PYTHONDONTWRITEBYTECODE"} & set(env)


def test_rounds_alternate_the_first_side_starting_with_the_parent():
    calls = []
    out = ab.alternate(3, lambda side, i: calls.append((side, i)) or i)
    assert calls == [("parent", 0), ("change", 0), ("change", 1), ("parent", 1),
                     ("parent", 2), ("change", 2)]
    assert out == {"parent": [0, 1, 2], "change": [0, 1, 2]}


def test_a_bench_merge_keeps_the_other_keys(tmp_path):
    path = tmp_path / "BENCH.json"
    path.write_text(json.dumps({"other": {"a": 1}, "perfbench": {"bcgd-sweep": {"b": 2}}}))
    ab.merge(str(path), {"c": 3}, "perfbench", "verify")
    payload = json.loads(path.read_text())
    assert payload["other"] == {"a": 1}
    assert payload["perfbench"] == {"bcgd-sweep": {"b": 2}, "verify": {"c": 3}}
    assert {"python", "numpy", "blas_threads", "nproc"} <= set(payload["machine"])
    assert "zoptim_path" not in payload["machine"]


def test_outputs_diff_of_a_checkout_against_itself_finds_no_difference():
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "outputs_diff.py"),
                           "--parent", str(ROOT), "--configs", "4"],
                          capture_output=True, text=True, check=True, timeout=300,
                          env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    # Four run configs, three of them once more with a file-level fault each,
    # which exits 2 (a generated run config is valid and exits 0 or 3).
    assert summary["by_command"] == {"run": 7, "sweep": 1, "robustness": 1, "fig2": 1,
                                     "verify-moments": 1, "verify-bounds": 1}
    assert summary["configs_run"] == 12 and summary["parent_runs"] > 0
    assert summary["parent_exit_codes"]["run"]["2"] == 3
    assert summary["differing_runs"] == 0
    assert summary["differing_outputs"] == summary["differing_messages"] == {}
    assert summary["exit_codes_moved"] == {}


def test_a_summary_counts_ties_for_neither_side_and_flips_wins_when_higher_is_better():
    values = {"parent": [1.0, 2.0, 3.0, 4.0], "change": [0.5, 2.0, 3.5, 2.5]}
    lower = ab.summarise(values)
    assert (lower["pairs"], lower["change_wins"], lower["change_losses"]) == (4, 2, 1)
    assert lower["parent"] == {"median": 2.5, "q1": 1.25, "q3": 3.75, "min": 1.0}
    assert lower["change"]["median"] == 2.25 and lower["change"]["min"] == 0.5
    assert lower["median_gap"] == 0.25 and lower["parent_iqr"] == 2.5
    assert lower["change_vs_parent"] == pytest.approx(-0.1)
    higher = ab.summarise(values, better="higher")
    assert (higher["change_wins"], higher["change_losses"]) == (1, 2)


def test_a_summary_of_one_pair_has_both_quartiles_at_its_value():
    row = ab.summarise({"parent": [3.0], "change": [2.0]})
    assert row["parent"] == {"median": 3.0, "q1": 3.0, "q3": 3.0, "min": 3.0}
    assert row["parent_iqr"] == 0.0 and row["change_wins"] == 1


def micro(case, parent, out):
    return subprocess.run([sys.executable, str(ROOT / "bench" / "micro.py"), case, "--parent",
                           str(parent), "--rounds", "1", "--repeats", "1", "--out", str(out)],
                          capture_output=True, text=True, timeout=300,
                          env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})


def test_micro_merges_a_row_whose_digests_agree_between_the_trees(tmp_path):
    proc = micro("chain", ROOT, tmp_path / "BENCH.json")
    assert proc.returncode == 0, proc.stderr
    chain = json.loads((tmp_path / "BENCH.json").read_text())["micro"]["chain"]
    rows = chain["rows"]
    assert list(rows) == ["p=8 q=4 width=16"]
    row = rows["p=8 q=4 width=16"]
    assert row["digests_equal"] and row["pairs"] == 1 and row["change"]["min"] > 0
    # The geometric mean of one row is that row.
    assert chain["pooled"] == {k: v for k, v in row.items() if k not in ("calls", "digests_equal")}
    proc = micro("step", ROOT, tmp_path / "BENCH.json")
    assert proc.returncode == 0, proc.stderr
    step = json.loads((tmp_path / "BENCH.json").read_text())["micro"]["step"]["rows"]
    assert list(step) == [*(f"{name} d=9 q=1" for name in ("zo-sgd", "zo-adam", "radazo", "meazo")),
                          "fzoo d=9 q=2", "meazo-grouped d=9 q=1",
                          "zo-adam d=1024 q=10", "meazo d=1024 q=10"]
    assert all(row["digests_equal"] and row["change"]["min"] > 0 for row in step.values())


def test_micro_exits_non_zero_naming_a_row_whose_digests_differ(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "src" / "zoptim" / "__init__.py", "a") as fh:
        fh.write("\n_eval = efficient_grouped_eval\n\n\n"
                 "def efficient_grouped_eval(*args):\n    return -_eval(*args)\n")
    proc = micro("chain", tmp_path, tmp_path / "BENCH.json")
    assert proc.returncode != 0
    assert proc.stderr.splitlines()[-1].endswith("differ between rounds or trees on: "
                                                 "p=8 q=4 width=16")
