"""Smoke tests: every shipped example script runs end-to-end.

The slower studies (budget, cliffs) are exercised with reduced scope via
environment-independent subprocess runs of the fast examples, plus import
checks for all of them — a broken import or API drift in any example fails
here.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = sorted(
    (Path(__file__).resolve().parent.parent / "examples").glob("*.py")
)
FAST = {"quickstart.py", "pipeline_visualizer.py", "custom_specs.py",
        "inference_serving.py", "hardware_sensitivity.py",
        "serving_capacity.py", "parallelization_study.py"}


def test_examples_exist():
    names = {p.name for p in EXAMPLES}
    assert "quickstart.py" in names
    assert len(EXAMPLES) >= 8


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_compiles_and_has_main(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # import side effects only
    assert hasattr(module, "main"), f"{path.name} must define main()"
    assert module.__doc__, f"{path.name} must have a module docstring"


@pytest.mark.parametrize(
    "path", [p for p in EXAMPLES if p.name in FAST], ids=lambda p: p.stem
)
def test_fast_example_runs(path):
    proc = subprocess.run(
        [sys.executable, str(path)],
        capture_output=True,
        text=True,
        timeout=240,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip(), f"{path.name} produced no output"
