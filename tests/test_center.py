"""The center of the sheaf algebra, read off the index group.

t^a times t^b is zeta^E(a,b) times the component at a + b, so t^a is central
exactly when E(a, .) = E(., a): the center is spanned by the t^a with a in
Z = {a : E(a, b) = E(b, a) for all b}, the kernel of the commutator form
E - E^T.  Z is a subgroup of order 25 that is closed under the complement
a -> (4,...,4) - a, so the Frobenius pairing restricts to it, and as a sheaf
the center is O + O(-1) + O(-2)^21 + O(-3) + O(-4), with the cohomology of
the structure sheaf of a Calabi-Yau threefold.
"""

from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from qfermat import cohomology, indices, qmatrix, rewrite, structure


def _center(N):
    E = structure.exponent_matrix(N)
    return np.flatnonzero((E == E.T).all(axis=1))


@pytest.fixture(scope="module")
def generic():
    return qmatrix.enumerate_generic()


def test_center_is_a_calabi_yau_subgroup_for_every_generic_matrix(generic):
    t = indices.tables()
    subgroups, twist_sets = Counter(), set()
    for N in generic:
        Z = _center(N)
        assert len(Z) == 25, N
        member = np.zeros(625, dtype=bool)
        member[Z] = True
        assert member[t.sum_idx[np.ix_(Z, Z)]].all(), N
        assert member[t.neg[Z]].all() and member[t.comp[Z]].all(), N
        # the 5 constant indices k(1,...,1) and 20 orderings of the digits 0..4
        digits = t.idx[Z].tolist()
        assert sum(len(set(d)) == 1 for d in digits) == 5, N
        assert sum(sorted(d) == [0, 1, 2, 3, 4] for d in digits) == 20, N
        subgroups[tuple(Z)] += 1
        twist_sets.add(cohomology.TwistMultiset(Counter((-t.weight[Z]).tolist()).items()))
    assert len(generic) == 3000
    # the center moves with the matrix: the 120 orderings of 0..4 fall into
    # six such subgroups, and each is the center of 500 generic matrices
    assert sorted(subgroups.values()) == [500] * 6
    assert twist_sets == {cohomology.TwistMultiset(
        [(0, 1), (-1, 1), (-2, 21), (-3, 1), (-4, 1)])}
    twists, = twist_sets
    assert cohomology.hilbert_polynomial(twists) == cohomology.RatPolynomial(
        [0, Fraction(5, 6), 0, Fraction(25, 6)])
    assert cohomology.sheaf_cohomology(twists, 0) == (1, 0, 0, 1)


# t^(1,4,0,0,0), ..., t^(1,0,0,0,4) generate the index group, so t^a is
# central in the sheaf algebra iff it commutes with these four.  Commuting
# with the degree-1 generators t_i, as rewrite.is_central tests, is
# stronger: of the 60 generic matrices at every 50th place, 46 let only 5 of
# the 25 monomials of Z pass it.
GROUP_GENERATORS = [rewrite.AlgElement.monomial(g) for g in (
    (1, 4, 0, 0, 0), (1, 0, 4, 0, 0), (1, 0, 0, 4, 0), (1, 0, 0, 0, 4))]


def test_center_agrees_with_rewriting_commutators(generic):
    monomials = [rewrite.AlgElement.monomial(a) for a in indices.tables().idx.tolist()]
    for N in generic[::100]:
        commuting = [
            k for k, x in enumerate(monomials)
            if all(rewrite.multiply(x, g, N) == rewrite.multiply(g, x, N)
                   for g in GROUP_GENERATORS)]
        assert commuting == _center(N).tolist(), N
