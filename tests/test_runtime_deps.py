"""The package runs on numpy alone: SciPy is a test dependency only."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

BLOCKED_ROUND_TRIPS = """
import sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
import numpy as np
import gaborwt
import gaborwt.cli
from gaborwt import (
    Signal1D, SplineParams, build_channel_table, design_dual_tree,
    dtcwt1d_forward, dtcwt1d_inverse, dtcwt2d_forward, dtcwt2d_inverse,
)
rng = np.random.default_rng(5)
p = SplineParams(3.0, 0.0)
d = design_dual_tree(p, 1024, 4)
x = rng.standard_normal(1024)
print(np.max(np.abs(dtcwt1d_inverse(dtcwt1d_forward(Signal1D(x), d), d).samples - x)))
img = rng.standard_normal((64, 64))
t = build_channel_table(p, img.shape, 4)
print(np.max(np.abs(dtcwt2d_inverse(dtcwt2d_forward(img, t), t) - img)))
"""

LOADED_SCIPY = """
import sys
import gaborwt
print(",".join(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def _run(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_designs_and_round_trips_with_scipy_blocked():
    err1d, err2d = (float(v) for v in _run(BLOCKED_ROUND_TRIPS).split())
    assert err1d <= 1e-13 and err2d <= 1e-13


def test_import_loads_no_scipy_module():
    assert _run(LOADED_SCIPY).strip() == ""
