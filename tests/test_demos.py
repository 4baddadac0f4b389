"""Smoke test: the demos that call the fixed point, drift norms, the envelope
entry points and simulate still run."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", ["01_heat_kernel_basics", "02_dyadic_blocks_and_besov",
                                  "03_parametrix_series",
                                  "04_mild_solution_fixed_point", "05_envelope_bounds",
                                  "06_monte_carlo_validation", "07_path_modulus"])
def test_demo_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
