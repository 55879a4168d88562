"""The import graph: `import mlphase` loads numpy and scipy.special only.

scipy.optimize (with scipy.sparse, spatial, fft and linprog behind it),
scipy.linalg and mpmath are imported by the functions that call them, so a
process that only evaluates or samples never pays for them. Each check runs
in a fresh interpreter, since the test session itself has imported them.
"""
import os
import subprocess
import sys

import mlphase

_SCRIPT = r"""
import sys

import numpy as np

import mlphase
import mlphase.cli

LAZY = ("scipy.optimize", "scipy.linalg", "mpmath")
loaded = [m for m in LAZY if m in sys.modules]
assert not loaded, f"import mlphase loaded {loaded}"

gen = mlphase.make_erlang(2, 1.5)
x = np.array([0.5, 1.0, 2.0])
pdf = mlphase.ph_pdf(gen, x)
cdf = mlphase.ph_cdf(gen, x)
e = np.exp(-1.5 * x)
assert np.allclose(pdf, 1.5 ** 2 * x * e, rtol=1e-12), pdf
assert np.allclose(cdf, 1.0 - e * (1.0 + 1.5 * x), rtol=1e-12), cdf
assert "scipy.linalg" in sys.modules
assert "scipy.optimize" not in sys.modules, "ph_pdf loaded scipy.optimize"

data = np.random.default_rng(5).exponential(0.5, size=50)
config = mlphase.FitConfig(structure="exponential", fit_alpha=False,
                           fit_nu=False, restarts=1, max_iterations=50)
fit = mlphase.fit_pmml(data, config, mlphase.RandomStream(5))
assert fit.converged, fit
rate = -fit.model.base.ph.T[0, 0]
assert abs(rate - 1.0 / data.mean()) < 1e-4 * rate, (rate, 1.0 / data.mean())
assert "scipy.optimize" in sys.modules
assert "mpmath" not in sys.modules, "the Erlang paths loaded mpmath"
"""


def test_lazy_scipy_imports():
    src = os.path.dirname(os.path.dirname(os.path.abspath(mlphase.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
