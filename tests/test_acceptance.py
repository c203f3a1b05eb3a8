"""End-to-end acceptance suite.

One test per shipped guarantee, each restating the guarantee, running it
in full, and enforcing the wall-clock budget it ships with.  Every
randomized step carries an explicit fixed seed.
"""

import time

import numpy as np
import pytest

from qfermat.cohomology import (
    algebra_twist_multiset,
    hilbert_polynomial,
    section_dimension_sum,
    sheaf_cohomology,
)
from qfermat.fiber import center_dim, radical_is_ideal, specialize
from qfermat.indices import tables, weight_histogram
from qfermat.qmatrix import (
    canonical_generic_representative,
    classify,
    enumerate_admissible,
    enumerate_generic,
    sample_admissible,
)
from qfermat.rewrite import (
    graded_dimension,
    is_central,
    multiply,
    normal_form,
    normal_form_random_schedule,
)
from qfermat.structure import (
    build_table,
    frobenius_pairing,
    is_symmetric_pairing,
    verify_associativity,
)

# ---------------------------------------------------------
# 1. classification: 3000 generic matrices, a single orbit
# ---------------------------------------------------------


def test_criterion_1_classification():
    start = time.monotonic()
    matrices = enumerate_generic()
    assert len(matrices) == 3000
    report = classify()
    assert report.generic_count == 3000
    assert report.orbit_count_all_actions == 1
    assert time.monotonic() - start <= 60.0


# ---------------------------------------------------------
# 2. grading histogram of the 625-element index set
# ---------------------------------------------------------


def test_criterion_2_weight_histogram():
    assert weight_histogram() == (1, 121, 381, 121, 1)
    recount = np.bincount(tables().weight).tolist()
    assert tuple(recount) == (1, 121, 381, 121, 1)
    assert sum(recount) == 625


# ---------------------------------------------------------
# 3. structure-table soundness and perfect pairing
# ---------------------------------------------------------


def test_criterion_3_table_soundness():
    start = time.monotonic()
    matrices = [canonical_generic_representative()]
    matrices += sample_admissible(25, seed=31415)
    for N in matrices:
        table = build_table(N)
        exact = verify_associativity(table, "exact-bilinear")
        assert exact.ok and not exact.violations
        sampled = verify_associativity(table, "sampled=1000000", seed=271828)
        assert sampled.ok and not sampled.violations
        assert sampled.checks >= 10 ** 6
    # each generic pairing is E(a, comp a), read off N's entries directly
    t, rows = tables(), np.arange(625)
    digits = t.idx.astype(np.int64)
    for N in enumerate_generic():
        p = frobenius_pairing(build_table(N))
        lower = np.tril(np.array(N.entries, dtype=np.int64), -1)
        assert (p == np.einsum("ij,ai,aj->a", lower, digits, 4 - digits) % 5).all()
        assert (p == p[t.comp]).all()
    # and is perfect: over all 625^2 pairs, a + b is the top index
    # (4,4,4,4,4) exactly when the digits sum to 4, that is for b = comp(a),
    # a permutation, and no such pair carries
    top = t.sum_idx == 624
    assert (top == (digits[:, None] + digits[None] == 4).all(axis=-1)).all()
    assert np.array_equal(np.flatnonzero(top), rows * 625 + t.comp)
    assert np.array_equal(np.sort(t.comp), rows)
    assert not t.carry_code[top].any()
    assert time.monotonic() - start <= 300.0


# ---------------------------------------------------------
# 4. pairing symmetry == zero row sums, over every admissible matrix
# ---------------------------------------------------------


def test_criterion_4_symmetry_equivalence():
    # admissibility already forces zero row sums, so agreement here means
    # both sides hold identically; the discriminating direction (unequal
    # row sums give an asymmetric pairing) is exercised on arbitrary skew
    # matrices in the structure-module tests
    checked = 0
    for N in enumerate_admissible():
        symmetric = is_symmetric_pairing(build_table(N))
        zero_row_sums = all(s == 0 for s in N.row_sums())
        assert symmetric == zero_row_sums
        assert symmetric
        checked += 1
    assert checked == 15625


# ---------------------------------------------------------
# 5. rewriting: relation collapse, central fifth powers,
#    associativity, confluence
# ---------------------------------------------------------


def _random_word(rng, max_len: int):
    return tuple(int(x) for x in rng.integers(0, 5, size=rng.integers(0, max_len + 1)))


def test_criterion_5_rewriting_suite():
    start = time.monotonic()
    N = canonical_generic_representative()

    relation = normal_form((0,) * 5, N)
    for k in range(1, 5):
        relation = relation + normal_form((k,) * 5, N)
    assert relation.is_zero()

    for i in range(5):
        assert is_central(normal_form((i,) * 5, N), N)

    rng = np.random.default_rng(9794)
    for _ in range(10 ** 4):
        x = normal_form(_random_word(rng, 6), N)
        y = normal_form(_random_word(rng, 6), N)
        z = normal_form(_random_word(rng, 6), N)
        assert multiply(multiply(x, y, N), z, N) == multiply(x, multiply(y, z, N), N)

    for _ in range(10 ** 4):
        word = _random_word(rng, 8)
        assert normal_form_random_schedule(word, N, rng) == normal_form(word, N)

    assert time.monotonic() - start <= 120.0


# ---------------------------------------------------------
# 6. dimension bridge between the graded slices and the
#    Hilbert polynomial
# ---------------------------------------------------------


@pytest.mark.xfail(
    strict=True,
    reason="at n = 0 the Hilbert polynomial is the Euler characteristic 0 "
           "while the degree-0 slice is one-dimensional; the bridge holds "
           "for n >= 1, and section counts recover the slice at every n >= 0",
)
def test_criterion_6_dimension_bridge_including_degree_zero():
    poly = hilbert_polynomial(algebra_twist_multiset())
    for n in range(0, 4):
        assert poly(n) == graded_dimension(5 * n)


def test_criterion_6_dimension_bridge_positive_window():
    twists = algebra_twist_multiset()
    poly = hilbert_polynomial(twists)
    assert [poly(n) for n in (1, 2, 3)] == [125, 875, 2875]
    assert [graded_dimension(5 * n) for n in (1, 2, 3)] == [125, 875, 2875]
    assert graded_dimension(0) == 1 and poly(1) == 125
    # the degree-0 slice is recovered by the section count, where the
    # offsetting top cohomology of the lowest twist does not cancel it
    for n in range(0, 4):
        assert section_dimension_sum(twists, n) == graded_dimension(5 * n)
    assert poly(0) == 0


# ---------------------------------------------------------
# 7. middle cohomology vanishes; Euler characteristic matches
#    the polynomial on the window
# ---------------------------------------------------------


def test_criterion_7_cohomology_window():
    twists = algebra_twist_multiset()
    poly = hilbert_polynomial(twists)
    for n in range(-5, 11):
        h = sheaf_cohomology(twists, n)
        assert h[1] == 0 and h[2] == 0
        assert h[0] - h[1] + h[2] - h[3] == poly(n)


# ---------------------------------------------------------
# 8. fiber oracles: graded center scan == dense solve, radical
#    closed under multiplication
# ---------------------------------------------------------

FIXTURE_POINTS = (
    (1, 1, 1, 1, -4),
    (1, -1, 1, -1, 0),
    (1, 2, -3, 4, -4),
)


def test_criterion_8_fiber_oracles(canonical_table):
    start = time.monotonic()
    for coords in FIXTURE_POINTS:
        F = specialize(canonical_table, coords)
        assert center_dim(F, method="graded") == center_dim(F, method="solve")
        assert radical_is_ideal(F)
    assert time.monotonic() - start <= 600.0
