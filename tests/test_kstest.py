"""The ergodic check's KS p-value, lln._ks_pvalue, against scipy.stats and
an exact rational oracle; and the package's runtime dependencies and line
length.

scipy.stats is the oracle here only; the package itself never imports it.
"""

import ast
import math
import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import sixvertex
from sixvertex.lln import KS_ALPHA, _ks_pvalue

ROOT = Path(__file__).resolve().parents[1]


def _gap(h, R):
    """Two samples of size R whose count gap, and so KS statistic, is h/R."""
    return [0] * h + [1] * (R - h), [1] * R


def test_pvalues_match_ks_2samp_exact_bit_for_bit():
    rng = np.random.default_rng(7)
    compared = 0
    for R in range(1, 601):
        lam = rng.uniform(0.5, 30.0)
        for shift in (1.0, (1.05, 1.3, 2.0)[R % 3]):
            a, b = rng.poisson(lam, R), rng.poisson(lam * shift, R)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                want = stats.ks_2samp(a, b, method="exact").pvalue
            if caught:  # scipy's sum left [0, 1] and it fell back to method="asymp"
                continue
            compared += 1
            assert _ks_pvalue(a, b).hex() == float(want).hex(), (R, shift)
    assert compared > 1100


def test_pvalues_match_the_alternating_binomial_sum():
    for R in range(1, 201):
        for h in range(1, R + 1):
            terms = sum((-1) ** (k + 1) * math.comb(2 * R, R - k * h) for k in range(1, R // h + 1))
            exact = float(Fraction(2 * terms, math.comb(2 * R, R)))
            assert _ks_pvalue(*_gap(h, R)) == pytest.approx(exact, rel=1e-12, abs=0), (R, h)


def test_the_exact_cut_is_never_stricter_than_the_asymptotic_one():
    # on these samples ks_2samp(method="asymp") reads d = h/R exactly and
    # returns kstwo.sf(d, round(R/2)), the p-value the check used before
    for R in [*range(2, 201), 500]:
        hs = np.arange(1, R + 1)
        kept = hs[stats.kstwo.sf(hs / R, np.round(R / 2)) > KS_ALPHA]
        assert all(_ks_pvalue(*_gap(int(h), R)) > KS_ALPHA for h in kept), R
    # the benchmark's 500 replicas: both cuts at h = 52
    assert kept.max() == 51 and _ks_pvalue(*_gap(52, 500)) <= KS_ALPHA


def test_pvalues_that_reach_one():
    assert _ks_pvalue([3, 1, 2], [2, 3, 1]) == 1.0  # no gap
    assert _ks_pvalue([1], [2]) == _ks_pvalue([2], [1]) == _ks_pvalue([1], [1]) == 1.0
    assert _ks_pvalue(*_gap(2, 69)) == 1.0  # the float sum is 1.0000000000000002


@pytest.mark.parametrize("a, b", [([], []), ([], [1]), ([1], []), ([1, 2], [1]),
                                  ([1], [1, 2, 3])])
def test_unequal_or_empty_samples_are_rejected(a, b):
    with pytest.raises(ValueError, match="KS samples"):
        _ks_pvalue(a, b)


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


def test_src_imports_only_the_standard_library_and_its_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", d).group() for d in project["dependencies"]}
    assert declared == {"numpy"}
    allowed = set(sys.stdlib_module_names) | declared | {"sixvertex"}
    for path in sorted((ROOT / "src" / "sixvertex").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in allowed, f"{path.name}:{node.lineno} imports {name}"


def test_src_lines_are_at_most_100_characters():
    for path in sorted((ROOT / "src" / "sixvertex").glob("*.py")):
        for number, line in enumerate(path.read_text().splitlines(), start=1):
            assert len(line) <= 100, f"{path.name}:{number} has {len(line)} characters"
