"""Each script in demos/ runs to completion, with warnings as errors, and
prints the same text twice."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-W", "error", str(script)], capture_output=True,
                          env=env, cwd=ROOT, timeout=120)


def test_demos_exist():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.name)
def test_demo_runs_and_is_deterministic(script):
    first, second = _run(script), _run(script)
    assert first.returncode == 0, first.stderr.decode()
    assert first.stdout.strip()
    assert second.returncode == 0, second.stderr.decode()
    assert first.stdout == second.stdout
