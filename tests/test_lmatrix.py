"""One-color rule, n-color fold, exact laws, and the two-coin sampler."""

import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sixvertex import lmatrix, weights
from sixvertex.degenerations import verify_hammersley_equivalence, verify_tpng_equivalence
from sixvertex.lmatrix import (
    coin_law,
    contiguous_partitions,
    fold_projection,
    format_colors,
    l1_weight,
    ln_distribution,
    ln_weight,
    outcome_table,
    parse_colors,
    partition_projection,
    sample_vertex,
    validate_partition,
    verify_color_ignorance,
    verify_golden_table,
    verify_mod2_erasure,
    verify_sampler_matrix,
    verify_stochastic,
    vertex_outcome,
)
from sixvertex.weights import B1, B2, ONE, ONE_MINUS_B1, ONE_MINUS_B2, ZERO

L1_NONZERO = {
    (1, 0, 1, 0): ONE,
    (0, 1, 0, 1): ONE,
    (0, 0, 0, 0): B2,
    (0, 0, 1, 1): ONE_MINUS_B2,
    (1, 1, 1, 1): B1,
    (1, 1, 0, 0): ONE_MINUS_B1,
}


@pytest.mark.parametrize("key", list(itertools.product((0, 1), repeat=4)))
def test_one_color_rule(key):
    assert l1_weight(*key) is L1_NONZERO.get(key, ZERO)


def test_color_string_round_trip():
    bits, n = parse_colors("1011")
    assert (bits, n) == (0b1101, 4)
    assert format_colors(bits, n) == "1011"
    with pytest.raises(ValueError):
        parse_colors("10x1")
    with pytest.raises(ValueError):
        parse_colors("")


def test_fold_projection_example():
    bits, n = parse_colors("1011")
    assert [fold_projection(bits, r) for r in range(1, n + 1)] == [1, 1, 0, 1]
    assert fold_projection(bits, 0) == 0


def test_one_color_fold_is_identity():
    for i, j, k, l in itertools.product((0, 1), repeat=4):
        assert ln_weight(i, j, k, l, 1) is l1_weight(i, j, k, l)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_fold_factorization(n):
    """The n-color weight is the product of one-color weights of the folds."""
    for i, j, k, l in itertools.product(range(1 << n), repeat=4):
        expected = weights.star_product(
            l1_weight(fold_projection(i, r), fold_projection(j, r),
                      fold_projection(k, r), fold_projection(l, r))
            for r in range(1, n + 1))
        assert ln_weight(i, j, k, l, n) is expected


def test_two_color_spot_values():
    assert ln_weight(0, 0, 0, 0, 2) is B2
    assert ln_weight(0, 0, 1, 1, 2) is ONE_MINUS_B2
    # distinct colors crossing straight through: governed by the shared
    # crossing coin, because the combined level is doubly occupied
    assert ln_weight(parse_colors("10")[0], parse_colors("01")[0],
                     parse_colors("10")[0], parse_colors("01")[0], 2) is B1
    assert ln_weight(parse_colors("10")[0], parse_colors("01")[0],
                     parse_colors("11")[0], parse_colors("00")[0],
                     2) is ONE_MINUS_B1
    # contradictory coin demands across the two levels
    assert ln_weight(parse_colors("10")[0], parse_colors("10")[0],
                     parse_colors("11")[0], parse_colors("11")[0], 2) is ZERO
    assert ln_weight(0, 0, parse_colors("11")[0], parse_colors("11")[0], 2) is ZERO


@pytest.mark.parametrize("n", [1, 2, 3])
def test_support_at_most_four(n):
    for i in range(1 << n):
        for j in range(1 << n):
            support = {
                (k, l)
                for k in range(1 << n) for l in range(1 << n)
                if ln_weight(i, j, k, l, n) is not ZERO
            }
            assert len(support) <= 4
            outcomes = {vertex_outcome(i, j, n, X, N)
                        for X in (False, True) for N in (False, True)}
            assert support == outcomes


@pytest.mark.parametrize("n", [1, 2, 3])
def test_level_parity_conservation(n):
    for i, j, k, l in itertools.product(range(1 << n), repeat=4):
        if ln_weight(i, j, k, l, n) is ZERO:
            continue
        for r in range(1, n + 1):
            assert (fold_projection(i, r) ^ fold_projection(j, r)
                    == fold_projection(k, r) ^ fold_projection(l, r))


@given(st.integers(1, 3), st.data())
def test_nonzero_weights_preserve_any_prefix_parity(n, data):
    i = data.draw(st.integers(0, (1 << n) - 1))
    j = data.draw(st.integers(0, (1 << n) - 1))
    X = data.draw(st.booleans())
    N = data.draw(st.booleans())
    k, l = vertex_outcome(i, j, n, X, N)
    assert ln_weight(i, j, k, l, n) is not ZERO


def test_empty_inputs_law():
    d = ln_distribution(0, 0, 3, 0.3, 0.7)
    assert d.outcomes == ((0, 0), (1, 1))
    assert d.probs == pytest.approx((0.7, 0.3), abs=1e-15)


def test_distribution_sums_to_one():
    for i in range(4):
        for j in range(4):
            d = ln_distribution(i, j, 2, 0.42, 0.87)
            assert sum(d.probs) == pytest.approx(1.0, abs=1e-12)
            assert d.as_dict() == dict(zip(d.outcomes, d.probs))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sampler_matrix_equivalence(n):
    rep = verify_sampler_matrix(n)
    assert rep.passed, rep.summary()


def test_outcome_table_matches_vertex_outcome():
    for n in (1, 2, 3):
        tab = outcome_table(n)
        for i in range(1 << n):
            for j in range(1 << n):
                for X in (0, 1):
                    for N in (0, 1):
                        k, l = vertex_outcome(i, j, n, bool(X), bool(N))
                        assert tab[i, j, X, N] == (k << n) | l
        with pytest.raises(ValueError):
            tab[0, 0, 0, 0] = 0  # table is shared and must stay frozen


def test_sample_vertex_thresholds():
    for i, j in itertools.product(range(4), repeat=2):
        for u1, u2 in ((0.1, 0.1), (0.1, 0.9), (0.9, 0.1), (0.9, 0.9)):
            assert sample_vertex(i, j, 2, 0.5, 0.5, u1, u2) == \
                vertex_outcome(i, j, 2, u1 < 0.5, u2 >= 0.5)


def test_coin_law_total_mass():
    law = coin_law(0b11, 0b01, 2, 0.3, 0.7)
    assert sum(law.values()) == pytest.approx(1.0, abs=1e-12)
    assert set(law) <= set(ln_distribution(0b11, 0b01, 2, 0.3, 0.7).outcomes)


def test_empirical_law_three_sigma():
    """10^6 table-driven draws agree with the exact law within 3 sigma."""
    n, i, j, b1, b2 = 2, 0b11, 0b10, 0.3, 0.7
    rng = np.random.default_rng(12345)
    draws = 1_000_000
    X = (rng.random(draws) < b1).astype(np.intp)
    N = (rng.random(draws) >= b2).astype(np.intp)
    packed = outcome_table(n)[i, j, X, N]
    counts = np.bincount(packed, minlength=1 << (2 * n))
    law = ln_distribution(i, j, n, b1, b2).as_dict()
    for (k, l), p in law.items():
        freq = counts[(k << n) | l] / draws
        sigma = (p * (1 - p) / draws) ** 0.5
        assert abs(freq - p) <= 3 * sigma + 1e-9, ((k, l), freq, p)
    assert counts.sum() == draws
    support = {(k << n) | l for k, l in law}
    assert set(np.nonzero(counts)[0]) <= support


def test_partition_projection_examples():
    bits, n = parse_colors("110")
    assert partition_projection(bits, (2, 3), n) == 0b00
    bits, n = parse_colors("1011")
    assert partition_projection(bits, (3, 4), n) == 0b10


def test_partition_validation():
    validate_partition((2, 3), 3)
    with pytest.raises(ValueError):
        validate_partition((2,), 3)  # must end at n
    with pytest.raises(ValueError):
        validate_partition((3, 2), 3)
    with pytest.raises(ValueError):
        validate_partition((), 3)


def test_contiguous_partitions_enumeration():
    assert set(contiguous_partitions(3)) == {(3,), (1, 3), (2, 3), (1, 2, 3)}
    assert len(list(contiguous_partitions(4))) == 8


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_rows_are_stochastic(n):
    rep = verify_stochastic(n)
    assert rep.passed, rep.summary()


@pytest.mark.parametrize("n, m", [(2, 1), (3, 1), (3, 2)])
def test_merging_low_priority_colors(n, m):
    rep = verify_color_ignorance(n, m)
    assert rep.passed, rep.summary()


@pytest.mark.parametrize("n", [2, 3])
def test_erasure_under_any_contiguous_merge(n):
    for cuts in contiguous_partitions(n):
        rep = verify_mod2_erasure(n, cuts)
        assert rep.passed, rep.summary()


def test_golden_internal_consistency():
    rep = verify_golden_table()
    assert rep.passed, rep.summary()


def test_range_guards():
    with pytest.raises(ValueError):
        verify_stochastic(5)
    with pytest.raises(ValueError):
        ln_distribution(0, 0, 9, 0.5, 0.5)
    with pytest.raises(ValueError):
        ln_weight(0, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        ln_weight(4, 0, 0, 0, 2)
    with pytest.raises(ValueError):
        ln_distribution(0, 0, 2, 1.2, 0.5)


def _scalar_vertex_outcome(i, j, n, cross, nucleate):
    """Reference two-coin rule, one level at a time."""
    si = sj = prev_k = prev_l = k = l = 0
    for r in range(n):
        si ^= (i >> r) & 1
        sj ^= (j >> r) & 1
        if si != sj:
            kr, lr = si, sj
        else:
            kr = lr = int(cross if si else nucleate)
        k |= (kr ^ prev_k) << r
        l |= (lr ^ prev_l) << r
        prev_k, prev_l = kr, lr
    return k, l


def test_two_coin_rule_matches_scalar_oracle():
    for n in (1, 2, 3, 4):
        tab = outcome_table(n)
        for i, j, X, N in itertools.product(range(1 << n), range(1 << n), (0, 1), (0, 1)):
            k, l = _scalar_vertex_outcome(i, j, n, X, N)
            assert vertex_outcome(i, j, n, bool(X), bool(N)) == (k, l)
            assert tab[i, j, X, N] == (k << n) | l
    rng = np.random.default_rng(32)
    for i, j in rng.integers(0, 1 << 32, (500, 2)).tolist():
        for X, N in itertools.product((False, True), repeat=2):
            assert vertex_outcome(i, j, 32, X, N) == _scalar_vertex_outcome(i, j, 32, X, N)


# ---------------------------------------------------------------------------
# The exhaustive verifiers fail when the one-color table is wrong

@pytest.fixture
def mutate_l1(monkeypatch):
    """Replace entries of the one-color code table and clear every cache built on it."""
    def clear():
        lmatrix._key_codes.cache_clear()
        lmatrix._ln_distribution_cached.cache_clear()

    def mutate(key, weight):
        codes = lmatrix._L1_CODES.copy()
        codes[int("".join(map(str, key)), 2)] = weight.code
        codes.setflags(write=False)
        monkeypatch.setattr(lmatrix, "_L1_CODES", codes)
        clear()

    yield mutate
    monkeypatch.undo()
    clear()


# Key (0,0;0,0) weighted b1 instead of b2: cases, violation counts and first
# violations, the same as those of the per-key loops these verifiers replaced.
EMPTY_VERTEX_AS_B1 = [
    (lambda: verify_stochastic(2), 272, 93,
     "row (00,00): weights not a unity family: (2, 5, 7, 7)"),
    (lambda: verify_color_ignorance(3, 2), 16384, 282,
     "marginal mismatch i=000 j=000 prefix=(00,00) at (0.3,0.0): 0.6 vs 0.3"),
    (lambda: verify_mod2_erasure(3, (1, 3)), 16384, 282,
     "erasure mismatch cuts=(1, 3) i=000 j=000 target=(00,00) at (0.3,0.0): 0.6 vs 0.3"),
    (lambda: verify_sampler_matrix(2), 530, 114,
     "law mismatch i=00 j=00 outcome=(0, 0) at (0.0,0.3): 0.3 vs 0.0"),
    (lambda: verify_tpng_equivalence(2), 256, 7, "key (0,0;0,0): b1 vs 1"),
    (verify_golden_table, 68, 2, "contradictory key present: (0, 0, 3, 3)"),
    (lambda: verify_hammersley_equivalence(2, 2, 0.25), 3, 2, "P(H=0): 0.0 vs 0.31640625"),
]


@pytest.mark.parametrize("verifier, cases, count, first", EMPTY_VERTEX_AS_B1,
                         ids=["stochastic", "color-ignorance", "mod2-erasure", "sampler-law",
                              "modified-min", "golden-table", "hammersley-law"])
def test_verifier_sees_a_wrong_one_color_weight(verifier, cases, count, first, mutate_l1):
    assert verifier().passed
    mutate_l1((0, 0, 0, 0), B1)
    rep = verifier()
    assert (rep.passed, rep.cases, len(rep.violations)) == (False, cases, count)
    assert rep.violations[0] == first
