"""Smoke test: every demo script, and the README's library tour, runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import zollforms

REPO = Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO / "demos").glob("*.py"))
SRC = str(Path(zollforms.__file__).resolve().parent.parent)


def _run(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], env=env, cwd=REPO,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    _run([str(demo)])


def test_library_tour_runs():
    """The ```python block under the README's "## Library tour"."""
    tour = (REPO / "README.md").read_text().split("## Library tour", 1)[1].split("\n## ", 1)[0]
    _run(["-c", tour.split("```python\n", 1)[1].split("```", 1)[0]])
