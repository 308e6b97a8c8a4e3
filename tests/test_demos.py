"""Every script in demos/, and the README's quick tour, runs to completion
against the package in src/."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(script):
    proc = run_python([str(script)])
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_tour_runs():
    readme = (ROOT / "README.md").read_text()
    tour = re.search(r"^## Quick tour\n\n```python\n(.*?)^```", readme, re.M | re.S)
    assert tour, "README.md has no python block under '## Quick tour'"
    proc = run_python(["-c", tour.group(1)])
    assert proc.returncode == 0, proc.stderr
