"""Every demo script runs to completion in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_six_demos_are_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    # RuntimeWarnings are errors, as pyproject's filterwarnings makes them in the tests
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
