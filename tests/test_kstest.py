"""The package's KS p-value against scipy.stats, bit for bit.

scipy.stats is the oracle here only; the package itself never imports it.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import stats

import sixvertex
from sixvertex import kstest
from sixvertex.kstest import kolmogorov_sf, ks_2samp_pvalue


def _bits(p) -> str:
    return float(p).hex()  # 'nan' on both sides for NaN


def _branch(n, x) -> str:
    """The branch P(D_n >= x) takes under the Simard-L'Ecuyer selection rules."""
    t, s = n * x, n * x * x
    if x <= 0.5 / n:
        return "support cut-off"
    if x >= 1.0:
        return "x >= 1"
    if t <= 1.0:
        return "Ruben-Gambino n <= 140" if n <= 140 else "Ruben-Gambino n > 140"
    if t >= n - 1:
        return "Ruben-Gambino t >= n-1"
    if x >= 0.5:
        return "smirnov x >= 0.5"
    if n <= 140:
        return "Durbin" if s <= 0.754693 else "Pomeranz" if s <= 4 else "smirnov n <= 140"
    if s >= 370.0:
        return "n x^2 >= 370"
    if s >= 2.2:
        return "smirnov n > 140"
    return "Durbin" if n <= 100000 and n * x ** 1.5 <= 1.4 else "Pelz-Good"


# the helper each branch must call, if any
SPIED = {"Durbin": "_kolmogn_dmtw", "Pomeranz": "_kolmogn_pomeranz",
         "Pelz-Good": "_kolmogn_pelz_good", "smirnov x >= 0.5": "_smirnov_tail",
         "smirnov n <= 140": "_smirnov_tail", "smirnov n > 140": "_smirnov_tail"}
BRANCHES = set(SPIED) | {"support cut-off", "x >= 1", "Ruben-Gambino n <= 140",
                         "Ruben-Gambino n > 140", "Ruben-Gambino t >= n-1", "n x^2 >= 370"}

GRID_N = (1, 2, 3, 5, 8, 10, 16, 20, 75, 140, 141, 250, 1000, 5000, 100001)
GRID_X = (0.0, 0.001, 0.003, 0.01, 0.02, 0.03, 0.05, 0.08, 0.1, 0.15, 0.2, 0.3,
          0.45, 0.5, 0.6, 0.9, 1.0)


def _grid():
    for n in GRID_N:
        xs = set(GRID_X)
        for k in range(min(n, 12) + 1):  # the knots k/n of the piecewise polynomial
            xs.update((np.nextafter(k / n, 0.0), k / n, np.nextafter(k / n, 1.0)))
            xs.add((k + 0.5) / n)  # Pomeranz rounds the fraction of n x at 1/2
        xs.update(np.sqrt(np.array([0.754693, 4.0, 2.2, 370.0]) / n))
        yield from ((n, float(x)) for x in sorted(xs) if 0.0 <= x <= 1.0)


def test_grid_reaches_every_branch_and_matches_kstwo(monkeypatch):
    calls = []
    for name in set(SPIED.values()):
        real = getattr(kstest, name)
        monkeypatch.setattr(kstest, name,
                            lambda *a, _f=real, _n=name: calls.append(_n) or _f(*a))
    seen = set()
    for n, x in _grid():
        branch = _branch(n, x)
        seen.add(branch)
        calls.clear()
        got = kolmogorov_sf(np.float64(x), np.float64(n))
        assert calls == ([SPIED[branch]] if branch in SPIED else []), (n, x, branch)
        assert _bits(got) == _bits(stats.kstwo.sf(x, float(n))), (n, x, branch)
    assert seen == BRANCHES


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # scipy at 1 against 1 sample
def test_sample_pvalues_match_ks_2samp():
    rng = np.random.default_rng(7)
    for case in range(150):
        n1 = int(rng.integers(1, 701))
        n2 = n1 if case % 2 else int(rng.integers(1, 701))
        lam = rng.uniform(0.5, 30.0)
        a = rng.poisson(lam, n1)
        b = rng.poisson(lam * (1.0, 1.05, 1.3, 2.0)[case % 4], n2)
        want = stats.ks_2samp(a, b, method="asymp").pvalue
        assert _bits(ks_2samp_pvalue(a, b)) == _bits(want), (n1, n2)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_one_against_one_gives_nan_as_scipy_does():
    # round(1*1/2) = 0 samples: no distribution to read a p-value from
    assert np.isnan(stats.ks_2samp([1], [2], method="asymp").pvalue)
    assert np.isnan(ks_2samp_pvalue([1], [2]))
    with pytest.raises(ValueError, match="empty"):
        ks_2samp_pvalue([], [1, 2])


def test_cli_start_up_and_runs_leave_scipy_unimported(tmp_path):
    code = (
        "import sys\n"
        "import sixvertex.cli\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not scipy_modules(), scipy_modules()\n"
        "main = sixvertex.cli.main\n"
        "assert main(['converge', '--seed', '1', '--sizes', '20,40', '--replicas', '2']) == 0\n"
        "assert main(['verify', '--seed', '1', '--n', '1', '--trials', '5',\n"
        "             '--max-size', '6', '--replicas', '20']) == 0\n"
        "assert not scipy_modules(), scipy_modules()\n"
    )
    src = os.path.dirname(os.path.dirname(sixvertex.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
