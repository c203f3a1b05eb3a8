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


# E(a, b) = <a L, b> with L the strict lower triangle of N, and N is skew
# mod 5, so E - E^T is the skew form omega_N(a, b) = a N b mod 5.  The
# positions 125, 25, 5 and 1 hold the indices e_k with digit k equal to 1
# and the last digit 4; the index with first digits x is sum_k x_k e_k, at
# position x . (125, 25, 5, 1), so omega_N is the 4 x 4 form W on the e_k.
def test_algebra_depends_on_the_matrix_only_through_its_skew_form(generic):
    t = indices.tables()
    idx = t.idx.astype(np.int64)
    entries = np.array([N.entries for N in generic], dtype=np.int64)
    rng = np.random.default_rng(41)
    for k in rng.choice(len(generic), 20, replace=False):
        E = structure.exponent_matrix(generic[k]).astype(np.int64)
        assert ((E - E.T - idx @ entries[k] @ idx.T) % 5 == 0).all(), generic[k]

    forms = idx[[125, 25, 5, 1]] @ entries @ idx[[125, 25, 5, 1]].T % 5
    classes = {}
    for k, W in enumerate(forms):
        classes.setdefault(tuple(W.ravel().tolist()), []).append(k)
    assert sorted(map(len, classes.values())) == [125] * 24
    # a form of rank 2 over F_5 has a kernel of 5^2 vectors x, x W = 0; it
    # is the center found above, and the 4 scalings of a form share it
    kernels = {}
    for w, members in classes.items():
        kernel = np.flatnonzero((idx[:, :4] @ forms[members[0]] % 5 == 0).all(axis=1))
        assert kernel.tolist() == _center(generic[members[0]]).tolist()
        kernels.setdefault(tuple(kernel.tolist()), set()).add(w)
    assert sorted(map(len, kernels)) == [25] * 6
    for ws in kernels.values():
        w = np.array(min(ws))
        assert ws == {tuple((c * w % 5).tolist()) for c in range(1, 5)}

    # same form, isomorphic tables: D = E' - E is symmetric, so it is the
    # coboundary f(a+b) - f(a) - f(b) of f(a) = 3 D(a, a), and e_a -> zeta^f(a) e_a
    # maps one table onto the other; the carries do not depend on N
    first, *rest = next(iter(classes.values()))
    E0 = structure.exponent_matrix(generic[first])
    for k in rest:
        D = (structure.exponent_matrix(generic[k]) - E0) % 5  # int8, as are f and the sum
        f = 3 * np.diagonal(D) % 5
        assert ((f[t.sum_idx] - f[:, None] - f[None, :] - D) % 5 == 0).all(), generic[k]
