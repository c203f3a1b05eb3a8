from fractions import Fraction
from math import comb

import pytest

from qfermat.cohomology import (
    RatPolynomial,
    TwistMultiset,
    algebra_twist_multiset,
    cohomology_dim,
    dt_polynomial_pair,
    euler_characteristic,
    hilbert_polynomial,
    section_dimension_sum,
    sheaf_cohomology,
)
from qfermat.errors import PreconditionError
from qfermat.rewrite import graded_dimension

# ---------------------------------------------------------
# rational polynomials
# ---------------------------------------------------------


def test_polynomial_construction_and_normalization():
    p = RatPolynomial([1, 2, 0, 0])
    assert p.degree == 1
    assert p.coeffs == (Fraction(1), Fraction(2))
    assert RatPolynomial([]).degree == -1
    assert RatPolynomial(["1/2", 0, "3"]).coeffs == (Fraction(1, 2), 0, Fraction(3))


def test_polynomial_arithmetic():
    p = RatPolynomial([1, 1])       # 1 + x
    q = RatPolynomial([-1, 1])      # -1 + x
    assert p * q == RatPolynomial([-1, 0, 1])
    assert p + q == RatPolynomial([0, 2])
    assert p - p == RatPolynomial([])
    assert -p == RatPolynomial([-1, -1])
    assert p * 3 == RatPolynomial([3, 3])
    assert 3 * p == RatPolynomial([3, 3])


def test_polynomial_evaluation_exact():
    p = RatPolynomial(["1/6", 0, "5/6"])
    assert p(1) == 1
    assert p(Fraction(1, 2)) == Fraction(1, 6) + Fraction(5, 24)
    assert RatPolynomial()(100) == 0


def test_polynomial_json_roundtrip():
    p = RatPolynomial([0, "125/6", 0, "625/6"])
    assert RatPolynomial.from_json(p.to_json()) == p
    assert p.to_json() == ["0", "125/6", "0", "625/6"]


# ---------------------------------------------------------
# twist multisets
# ---------------------------------------------------------


def test_parse_twist_multiset():
    tw = TwistMultiset.parse("0:1,-1:121,-2:381,-3:121,-4:1")
    assert tw.pairs == ((-4, 1), (-3, 121), (-2, 381), (-1, 121), (0, 1))
    assert tw.total == 625
    assert tw == algebra_twist_multiset()


def test_parse_rejects_garbage():
    with pytest.raises(PreconditionError):
        TwistMultiset.parse("nope")
    with pytest.raises(PreconditionError):
        TwistMultiset.parse("")
    with pytest.raises(PreconditionError):
        TwistMultiset([(0, 0)])
    with pytest.raises(PreconditionError):
        TwistMultiset([(0, -2)])


def test_multiset_merges_repeats():
    tw = TwistMultiset([(0, 1), (0, 2), (-1, 3)])
    assert tw.pairs == ((-1, 3), (0, 3))
    assert tw.to_json() == [[-1, 3], [0, 3]]


def test_algebra_multiset_matches_weight_histogram():
    tw = algebra_twist_multiset()
    assert dict(tw.pairs) == {0: 1, -1: 121, -2: 381, -3: 121, -4: 1}


# ---------------------------------------------------------
# Hilbert polynomial
# ---------------------------------------------------------


def test_structure_sheaf_polynomial_on_ambient_space():
    # sanity anchor: a single untwisted summand gives the ambient count
    one = TwistMultiset([(0, 1)])
    p = hilbert_polynomial(one)
    for n in range(6):
        assert p(n) == comb(n + 3, 3)


def test_algebra_hilbert_polynomial_frozen():
    p = hilbert_polynomial(algebra_twist_multiset())
    assert p.to_json() == ["0", "125/6", "0", "625/6"]
    values = [p(n) for n in range(6)]
    assert values == [0, 125, 875, 2875, 6750, 13125]
    assert p.coeffs[3] == Fraction(625, 6)


def test_hilbert_polynomial_additive_in_multiset():
    a = TwistMultiset([(0, 2)])
    b = TwistMultiset([(-1, 3)])
    ab = TwistMultiset([(0, 2), (-1, 3)])
    assert hilbert_polynomial(ab) == hilbert_polynomial(a) + hilbert_polynomial(b)


# ---------------------------------------------------------
# cohomology closed forms
# ---------------------------------------------------------


def test_cohomology_dim_known_values():
    assert cohomology_dim(0, 0) == 1
    assert cohomology_dim(1, 0) == 4
    assert cohomology_dim(2, 0) == 10
    assert cohomology_dim(-1, 0) == 0
    assert cohomology_dim(-4, 3) == 1
    assert cohomology_dim(-5, 3) == 4
    assert cohomology_dim(-3, 3) == 0
    for d in range(-8, 9):
        assert cohomology_dim(d, 1) == 0
        assert cohomology_dim(d, 2) == 0


def test_cohomology_dim_rejects_bad_degree():
    with pytest.raises(PreconditionError):
        cohomology_dim(0, 4)
    with pytest.raises(PreconditionError):
        cohomology_dim(0, -1)


def test_serre_duality_pattern():
    for d in range(-10, 11):
        assert cohomology_dim(d, 0) == cohomology_dim(-4 - d, 3)


def test_euler_characteristic_interpolates_everywhere():
    one = TwistMultiset([(0, 1)])
    p = hilbert_polynomial(one)
    for n in range(-9, 10):
        h = sheaf_cohomology(one, n)
        assert h[0] - h[1] + h[2] - h[3] == p(n)


# ---------------------------------------------------------
# the 625-component decomposition
# ---------------------------------------------------------


def test_sheaf_cohomology_of_algebra_at_zero():
    assert sheaf_cohomology(algebra_twist_multiset(), 0) == (1, 0, 0, 1)


def test_middle_cohomology_vanishes_on_window():
    tw = algebra_twist_multiset()
    for n in range(-5, 11):
        h = sheaf_cohomology(tw, n)
        assert h[1] == 0 and h[2] == 0


def test_euler_matches_hilbert_on_window():
    tw = algebra_twist_multiset()
    p = hilbert_polynomial(tw)
    for n in range(-5, 11):
        assert euler_characteristic(tw, n) == p(n)


def test_section_sum_bridges_to_graded_dimension():
    # h^0 of the decomposition equals the degree-5n slice of the algebra,
    # including n = 0 where the Euler characteristic alone would miss the
    # h^3 contribution of the top twist
    tw = algebra_twist_multiset()
    for n in range(0, 4):
        assert section_dimension_sum(tw, n) == graded_dimension(5 * n)


def test_dimension_vs_euler_at_zero():
    # the honest discrepancy: chi counts 1 - 1 = 0 at n = 0 while the
    # coordinate algebra has a one-dimensional degree-0 slice
    tw = algebra_twist_multiset()
    p = hilbert_polynomial(tw)
    assert p(0) == 0
    assert graded_dimension(0) == 1
    assert sheaf_cohomology(tw, 0)[3] == 1


# ---------------------------------------------------------
# deviation pairs
# ---------------------------------------------------------


def test_dt_pair_splits_background():
    h = RatPolynomial([3])
    left, right = dt_polynomial_pair(h)
    assert left == h
    assert left + right == hilbert_polynomial(algebra_twist_multiset())


def test_dt_pair_degree_one_allowed():
    h = RatPolynomial([2, 5])
    left, right = dt_polynomial_pair(h)
    assert (left + right)(7) == hilbert_polynomial(algebra_twist_multiset())(7)


def test_dt_pair_coefficientwise_example():
    # deviation 5n + 2 against the standard background
    left, right = dt_polynomial_pair(RatPolynomial([2, 5]))
    assert right.coeffs == (Fraction(-2), Fraction(125, 6) - 5, Fraction(0),
                            Fraction(625, 6))


def test_dt_pair_rejects_degree_two():
    with pytest.raises(PreconditionError):
        dt_polynomial_pair(RatPolynomial([0, 0, 1]))
