"""Every demo, and the README's library tour, runs to completion as a script."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import tfalgebra

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_all_demos_are_collected():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_zero(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(tfalgebra.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120
    )
    assert out.returncode == 0, out.stderr


def test_readme_library_tour_runs(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    tour = readme.split("```python\n", 1)[1].split("```", 1)[0]
    env = dict(os.environ, PYTHONPATH=str(Path(tfalgebra.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", tour], capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "Z/2\n"
