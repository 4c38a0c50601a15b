"""The package's exported names and the README's Python example."""

import contextlib
import importlib
import io
import math
import re
from pathlib import Path

import pytest

import kappacov

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = (
    "core",
    "errors",
    "ustats",
    "estimators",
    "closedform",
    "spectral",
    "samplers",
    "inference",
    "cli",
)


def test_package_names_resolve():
    assert len(set(kappacov.__all__)) == len(kappacov.__all__)
    for name in kappacov.__all__:
        assert hasattr(kappacov, name), name


@pytest.mark.parametrize("module_name", MODULES)
def test_module_names_resolve(module_name):
    module = importlib.import_module(f"kappacov.{module_name}")
    assert len(set(module.__all__)) == len(module.__all__)
    for name in module.__all__:
        assert hasattr(module, name), f"{module_name}.{name}"


def test_readme_quick_start_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quick start (Python)", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert len(lines) == 2
    values = [float(value) for value in lines[0].split()]
    assert len(values) == 4 and all(math.isfinite(value) for value in values)
    statistic, p_value = map(float, lines[1].split())
    assert statistic > 0.0
    assert 0.0 < p_value <= 1.0
