"""The parent/change runner that every bench/ script measures through."""

import json
import os
import subprocess
import sys
from pathlib import Path

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
    assert summary["by_command"] == {"run": 4, "sweep": 1, "robustness": 1, "fig2": 1,
                                     "verify-moments": 1, "verify-bounds": 1}
    assert summary["configs_run"] == 9 and summary["parent_runs"] > 0
    assert summary["differing_runs"] == 0
    assert summary["differing_outputs"] == summary["differing_messages"] == {}
    assert summary["exit_codes_moved"] == {}
