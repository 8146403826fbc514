"""Each narrative script in demos/ runs to completion from the repo root,
and the README's library example prints what it promises."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).parent.parent
DEMOS = sorted((REPO_ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    env = dict(os.environ, PYTHONPATH="src")
    done = subprocess.run(
        [sys.executable, str(script.relative_to(REPO_ROOT))],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_readme_library_example_prints_its_four_lines():
    readme = (REPO_ROOT / "README.md").read_text()
    section = readme[readme.index("## Library in one minute"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=REPO_ROOT,
        env=dict(os.environ, PYTHONPATH="src"),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "EngelOutcome(reached=True, steps=2)",
        "EngelOutcome(reached=False, steps=None)",
        "3",
        "GraphMetrics(vertex_count=3, edge_count=3, component_count=1, diameter=1,"
        " clique_number=3, planar=True, isolated_count=0)",
    ]
