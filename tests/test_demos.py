import os
import subprocess
import sys
from pathlib import Path

import pytest

import spherelab

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("script", sorted(p.name for p in DEMOS.glob("demo_*.py")))
def test_demo_passes(script):
    # each demo prints PASS/FAIL gates and exits nonzero when one fails
    src = str(Path(spherelab.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, str(DEMOS / script)], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "PASS" in proc.stdout
    assert not any(line.startswith("FAIL") for line in proc.stdout.splitlines()), proc.stdout
