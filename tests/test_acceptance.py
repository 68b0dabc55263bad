"""End-to-end acceptance battery.

Each test pins one headline guarantee of the package, with explicit
tolerances and budgets:

 1. row stochasticity of the color rules up to n=4 (exact, < 10 s)
 2. low-priority color ignorance and mod-2 erasure up to n=3 (exact, < 30 s)
 3. the two-color table reproduces its frozen copy byte for byte
 4. the four-symbol collapse equals the modified minimum (exhaustive, n <= 3)
 5. the point-process degeneration: exact corner laws and pathwise coupling
 6. the two height functions are complements: H = y - h, up to 2000x2000
 7. boundary lines never lower the folded height (10^4 boxes, zero violations)
 8. the crossing array is superadditive on every sampled trajectory
 9. height ratios reach the closed-form limit shape (n = 2000, +-0.02)
10. the degenerate model reaches its own limit and matches the shape identity
11. inhomogeneous ratios stabilize and the crossing/height identity is exact
12. outputs are byte-identical across worker counts and reruns
"""

import itertools
import json
import math
import time

import numpy as np

from handmade import H_BIG_TABLE, H_SMALL_TABLE, build_handmade
from sixvertex import lmatrix
from sixvertex.cli import main
from sixvertex.degenerations import (
    verify_hammersley_coupling,
    verify_hammersley_equivalence,
    verify_tpng_equivalence,
)
from sixvertex.lattice import (
    complement,
    height_H,
    height_h,
    make_coloring,
    make_field,
    sample_cs6v,
    sample_s6v,
    verify_monotonicity,
)
from sixvertex.lln import (
    convergence_experiment,
    hammersley_limit,
    limit_shape_g,
    sample_shell_ensembles,
    verify_prop_X_height,
    verify_superadditivity,
)
from sixvertex.serialize import ensemble_to_bytes

SEED = 20260817


def test_01_stochasticity_exact_to_four_colors():
    start = time.monotonic()
    for n in (1, 2, 3, 4):
        rep = lmatrix.verify_stochastic(n)
        assert rep.passed, rep.summary()
        assert rep.cases > 0
    assert time.monotonic() - start < 10.0


def test_02_color_ignorance_and_erasure_exact():
    start = time.monotonic()
    for n in (1, 2, 3):
        for m in range(1, n + 1):
            rep = lmatrix.verify_color_ignorance(n, m)
            assert rep.passed, rep.summary()
        for cuts in lmatrix.contiguous_partitions(n):
            rep = lmatrix.verify_mod2_erasure(n, cuts)
            assert rep.passed, rep.summary()
    assert time.monotonic() - start < 30.0


def test_03_two_color_table_is_golden():
    from pathlib import Path
    frozen = (Path(__file__).parent / "data" / "l2_golden.txt").read_text()
    assert "\n".join(lmatrix.golden_table_lines()) + "\n" == frozen
    keys = {line.rsplit(" ", 1)[0] for line in frozen.splitlines()}
    assert "10 10 11 11" not in keys and "00 00 11 11" not in keys
    rep = lmatrix.verify_golden_table()
    assert rep.passed, rep.summary()


def test_04_collapse_equals_modified_min():
    for n in (1, 2, 3):
        rep = verify_tpng_equivalence(n)
        assert rep.passed, rep.summary()
        assert rep.cases == 16 ** n


def test_05_point_process_degeneration():
    for w, h in itertools.product((1, 2, 3), repeat=2):
        for p in (0.25, 0.5, 0.75):
            rep = verify_hammersley_equivalence(w, h, p)
            assert rep.passed, rep.summary()
    rep = verify_hammersley_coupling(100, 100, 0.25, range(SEED, SEED + 20))
    assert rep.passed, rep.summary()
    assert rep.cases == 20


def test_06_height_functions_are_complements():
    e = build_handmade()
    h = height_h(e)
    assert np.array_equal(h[:, 1:], H_SMALL_TABLE)
    assert np.array_equal(height_H(complement(e))[:, 1:], H_BIG_TABLE)
    field = make_field(0.2, 0.6)
    for w, ht, seed in ((64, 64, SEED), (512, 256, SEED + 1),
                        (2000, 2000, SEED + 2)):
        hh = height_h(sample_s6v(w, ht, field, seed))
        HH = height_H(sample_cs6v(w, ht, field, seed))
        assert np.array_equal(HH, np.arange(ht + 1)[None, :] - hh)


def test_07_boundary_monotonicity_ten_thousand_boxes():
    rep = verify_monotonicity(trials=10_000, max_size=30,
                              field=make_field(0.3, 0.7), seed=SEED)
    assert rep.cases == 10_000
    assert rep.violations == []


def test_08_superadditivity_of_the_crossing_array():
    for field in (make_field(0.3, 0.7),
                  make_field([[0.1, 0.4], [0.3, 0.2], [0.25, 0.35]],
                             [[0.7, 0.8], [0.6, 0.9], [0.75, 0.65]])):
        scheme = make_coloring(2, 1, field)
        ensembles = sample_shell_ensembles((2, 1), field, 6, 20, SEED)
        rep = verify_superadditivity(ensembles, scheme, 6)
        assert rep.violations == []
        assert rep.cases == 20 * 28  # all pairs 0 <= m <= n <= 6
        for e in ensembles[:3]:
            idrep = verify_prop_X_height(e, scheme)
            assert idrep.passed, idrep.summary()


def test_09_limit_shape_of_the_step_model():
    field = make_field(0.2, 0.6)
    rep = convergence_experiment((1, 1), field, [2000], 8, SEED, model="s6v")
    target = limit_shape_g(1.0, 1.0, 0.2, 0.6)
    assert math.isclose(target, 3 - 2 * math.sqrt(2), abs_tol=1e-14)
    assert abs(rep.final_mean - target) <= 0.02
    # a direction inside the flat facet of the reversed parameters
    field = make_field(0.7, 0.3)
    rep = convergence_experiment((1, 2), field, [2000], 8, SEED, model="s6v")
    assert rep.reference == 1.0
    assert abs(rep.final_mean - 1.0) <= 0.02


def test_10_limit_of_the_point_process():
    rep = convergence_experiment((1, 1), make_field(0.0, 0.75), [2000], 8,
                                 SEED, model="hammersley")
    assert abs(rep.final_mean - 2 / 3) <= 0.02
    rng = np.random.default_rng(SEED)
    for _ in range(100):
        x, y = rng.uniform(0.05, 4.0, size=2)
        p = rng.uniform(0.05, 0.95)
        assert abs(hammersley_limit(x, y, p)
                   - (y - limit_shape_g(x, y, 0.0, 1.0 - p))) <= 1e-10


def test_11_inhomogeneous_ratios_stabilize():
    field = make_field([[0.2, 0.3], [0.35, 0.25]],
                       [[0.6, 0.7], [0.65, 0.75]])
    rep = convergence_experiment((1, 1), field, [1000, 2000], 6, SEED,
                                 model="cs6v")
    assert rep.reference is None
    means = rep.ratios.mean(axis=0)
    assert abs(means[1] - means[0]) <= 0.03
    assert rep.replica_std <= 0.02
    scheme = make_coloring(1, 1, field)
    assert (scheme.N, scheme.bx, scheme.by) == (2, 2, 2)
    for e in sample_shell_ensembles((1, 1), field, 5, 10, SEED):
        idrep = verify_prop_X_height(e, scheme)
        assert idrep.passed, idrep.summary()


def test_12_worker_count_never_changes_output(tmp_path, monkeypatch):
    monkeypatch.delenv("SIXVERTEX_WORKERS", raising=False)
    # library level: replica-parallel sampling is traversal independent
    field = make_field(0.3, 0.7)
    byte_sets = []
    for workers in (1, 4):
        es = sample_shell_ensembles((1, 1), field, 4, 8, SEED, workers)
        byte_sets.append([ensemble_to_bytes(e) for e in es])
    assert byte_sets[0] == byte_sets[1]

    # CLI level: reports and ensembles are byte-identical across 1/4/8 workers
    csvs, jsons = [], []
    for w in ("1", "4", "8"):
        cp = tmp_path / f"c{w}.csv"
        jp = tmp_path / f"c{w}.json"
        rc = main(["converge", "--seed", str(SEED), "--sizes", "100,200",
                   "--replicas", "8", "--workers", w,
                   "--csv", str(cp), "--json", str(jp)])
        assert rc == 0
        csvs.append(cp.read_bytes())
        jsons.append(jp.read_bytes())
    assert csvs[0] == csvs[1] == csvs[2]
    assert jsons[0] == jsons[1] == jsons[2]

    bins = []
    for run in ("a", "b"):
        bp = tmp_path / f"e{run}.bin"
        rc = main(["sample", "--seed", str(SEED), "--model", "colored",
                   "--blocks", "4", "--dir", "1,1", "--out", str(bp)])
        assert rc == 0
        bins.append(bp.read_bytes())
    assert bins[0] == bins[1]

    reports = []
    for w in ("1", "4"):
        rp = tmp_path / f"v{w}.json"
        rc = main(["verify", "--seed", str(SEED), "--n", "2", "--trials",
                   "20", "--replicas", "40", "--workers", w,
                   "--out", str(rp)])
        assert rc == 0
        reports.append(json.loads(rp.read_text()))
    assert reports[0] == reports[1]
    assert reports[0]["passed"] is True
