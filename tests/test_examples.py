"""The README's quick start and the fast demos run as written and print their claims."""

import importlib.util
import math
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def quick_start():
    """The python block under the README's Quick start heading."""
    section = (ROOT / "README.md").read_text().split("## Quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def demo_output(name, capsys):
    """What demos/<name>.py prints from its main()."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "demos" / f"{name}.py")
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    demo.main()
    return capsys.readouterr().out


def test_readme_quick_start_and_grouped_accounting_demo_run(capsys):
    exec(compile(quick_start(), "README.md quick start", "exec"), {})
    low_level, *seeds = capsys.readouterr().out.splitlines()
    assert math.isfinite(float(low_level))
    assert [line.split()[0] for line in seeds] == ["0", "1", "2"]
    assert all(math.isfinite(float(line.split()[1])) for line in seeds)

    out = demo_output("grouped_forward_accounting", capsys)
    assert "naive block forwards      512" in out
    assert "efficient block forwards  287" in out
    assert "estimates bit-identical   True" in out


# step_size_robustness.py is left out: it takes about 9 s.
@pytest.mark.parametrize("name, claim", [
    ("estimator_moments", "  q=1: closed form (1.5, 0.5)  expected (1.5, 0.5)\n"),
    ("stationarity_bounds", "scalar-adaptive step-size condition satisfied: True\n"),
], ids=["estimator_moments", "stationarity_bounds"])
def test_demo_prints_its_claim(capsys, name, claim):
    assert claim in demo_output(name, capsys)


def test_dimension_collapse_demo_shows_first_order_spread_far_above_zeroth_order(capsys):
    out = demo_output("dimension_collapse", capsys)
    fo, zo = re.search(r"At d=100, first-order Adam's spread is ([\d.]+) vs ZO-Adam's ([\d.]+)",
                       out).groups()
    assert float(fo) > 10 * float(zo)
