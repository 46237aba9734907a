"""The README's quick start and the grouped-forward accounting demo run as written."""

import importlib.util
import math
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def quick_start():
    """The python block under the README's Quick start heading."""
    section = (ROOT / "README.md").read_text().split("## Quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_start_and_grouped_accounting_demo_run(capsys):
    exec(compile(quick_start(), "README.md quick start", "exec"), {})
    low_level, *seeds = capsys.readouterr().out.splitlines()
    assert math.isfinite(float(low_level))
    assert [line.split()[0] for line in seeds] == ["0", "1", "2"]
    assert all(math.isfinite(float(line.split()[1])) for line in seeds)

    spec = importlib.util.spec_from_file_location(
        "grouped_forward_accounting", ROOT / "demos" / "grouped_forward_accounting.py")
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    demo.main()
    out = capsys.readouterr().out
    assert "naive block forwards      512" in out
    assert "efficient block forwards  287" in out
    assert "estimates bit-identical   True" in out
