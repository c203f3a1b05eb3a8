import itertools
from fractions import Fraction

import numpy as np
import pytest

from qfermat import fiber, indices
from qfermat.cyclotomic import CycNum, ONE, root_power
from qfermat.errors import PreconditionError
from qfermat.fiber import (
    FiberAlgebra,
    FiberPoint,
    MonomialAlgebra,
    center_dim,
    gram_entry,
    is_semisimple,
    radical_basis,
    radical_dim,
    radical_is_ideal,
    specialize,
)

FULL = (1, 1, 1, 1, -4)
DEGENERATE = (1, -1, 1, -1, 0)
MIXED = (1, 2, -3, 4, -4)

# ---------------------------------------------------------
# point validation
# ---------------------------------------------------------


def test_point_accepts_hyperplane_solutions():
    p = FiberPoint(FULL)
    assert p.full_support()
    q = FiberPoint(DEGENERATE)
    assert q.support() == (True, True, True, True, False)


def test_point_rejects_bad_input():
    with pytest.raises(PreconditionError):
        FiberPoint((1, 1, 1, 1, 1))  # sum is 5
    with pytest.raises(PreconditionError):
        FiberPoint((0, 0, 0, 0, 0))
    with pytest.raises(PreconditionError):
        FiberPoint((1, -1, 0, 0))  # wrong length


def test_point_parse_and_fractions():
    p = FiberPoint.parse("1/2, 1/2, -1, 3, -3")
    assert p.coords[0] == CycNum((Fraction(1, 2), 0, 0, 0))
    assert p.integer_coords() is None
    q = FiberPoint.parse("1,1,1,1,-4")
    assert q.integer_coords() == (1, 1, 1, 1, -4)
    with pytest.raises(PreconditionError):
        FiberPoint.parse("1,1,x,1,-4")


def test_point_scaling_and_cyclotomic_coords():
    p = FiberPoint(FULL)
    doubled = p.scaled(2)
    assert doubled.integer_coords() == (2, 2, 2, 2, -8)
    twisted = p.scaled(root_power(1))
    assert twisted.integer_coords() is None
    assert FiberPoint([root_power(1), -root_power(1), 0, 0, 0]).support() == \
        (True, True, False, False, False)
    with pytest.raises(PreconditionError):
        p.scaled(0)


# ---------------------------------------------------------
# specialization
# ---------------------------------------------------------


def test_specialize_produces_unital_algebra(canonical_table):
    F = specialize(canonical_table, FULL)
    assert F.dim == 625
    assert F.unit_index == 0
    rng = np.random.default_rng(2)
    for b in rng.integers(0, 625, size=30):
        assert F.scalar(0, int(b)) == ONE
        assert F.target(0, int(b)) == int(b)
        assert F.scalar(int(b), 0) == ONE


def test_specialize_gate_rejects_corrupted_table(canonical_table):
    old = canonical_table.entry((0, 0, 1, 1, 3), (0, 1, 4, 4, 1))[0]
    bad = canonical_table.replace_exponent((0, 0, 1, 1, 3), (0, 1, 4, 4, 1),
                                           (old + 1) % 5)
    with pytest.raises(PreconditionError):
        specialize(bad, FULL)


def test_coefficient_formula_sampled(canonical_table):
    # scalar(a, b) = zeta^E(a,b) times the product of coordinates at carries
    F = specialize(canonical_table, MIXED)
    point = [CycNum((c, 0, 0, 0)) for c in MIXED]
    t = indices.tables()
    rng = np.random.default_rng(5)
    for _ in range(150):
        i, j = (int(x) for x in rng.integers(0, 625, size=2))
        expect = root_power(int(canonical_table.exp[i, j]))
        for pos in range(5):
            if t.carry_code[i, j] >> pos & 1:
                expect = expect * point[pos]
        assert F.scalar(i, j) == expect
        assert F.target(i, j) == int(t.sum_idx[i, j])


def test_full_support_point_kills_nothing(canonical_table):
    F = specialize(canonical_table, FULL)
    assert F.mono_nonzero.all()


def test_missing_support_kills_carried_products(canonical_table):
    F = specialize(canonical_table, DEGENERATE)  # coordinate 4 is zero
    t = indices.tables()
    dead = (t.carry_code >> 4 & 1).astype(bool)
    assert (~F.mono_nonzero[dead]).all()
    assert F.mono_nonzero[~dead].all()


def test_specialize_accepts_point_object_or_coords(canonical_table):
    a = specialize(canonical_table, FiberPoint(FULL))
    b = specialize(canonical_table, FULL)
    assert a.point == b.point


# ---------------------------------------------------------
# frozen fixture values
# ---------------------------------------------------------


def test_fixture_dimensions(canonical_table):
    expected = {
        FULL: (25, 0, True),
        DEGENERATE: (25, 500, False),
        MIXED: (25, 0, True),
    }
    for coords, (c, r, ss) in expected.items():
        F = specialize(canonical_table, coords)
        assert center_dim(F, method="graded") == c
        assert radical_dim(F) == r
        assert is_semisimple(F) is ss


def test_zero_matrix_fiber_is_commutative_semisimple(zero_table):
    F = specialize(zero_table, FULL)
    assert center_dim(F, method="graded") == 625
    assert radical_dim(F) == 0
    assert is_semisimple(F)


def test_center_graded_equals_solve_on_one_point(canonical_table):
    F = specialize(canonical_table, FULL)
    assert center_dim(F, method="graded") == center_dim(F, method="solve")
    assert center_dim(F, method="both") == 25


def test_center_dim_method_validation(canonical_table):
    F = specialize(canonical_table, FULL)
    with pytest.raises(PreconditionError):
        center_dim(F, method="magic")
    with pytest.raises(PreconditionError):
        center_dim(MonomialAlgebra.nilpotent_pair(), method="graded")


# ---------------------------------------------------------
# projective rescaling
# ---------------------------------------------------------


def test_integer_rescaling_preserves_all_invariants(canonical_table):
    F1 = specialize(canonical_table, DEGENERATE)
    F2 = specialize(canonical_table, FiberPoint(DEGENERATE).scaled(2))
    assert center_dim(F1, method="graded") == center_dim(F2, method="graded")
    assert radical_dim(F1) == radical_dim(F2)
    assert is_semisimple(F1) == is_semisimple(F2)


def test_rescaling_scales_coefficients_by_carry_count(canonical_table):
    F1 = specialize(canonical_table, MIXED)
    F2 = specialize(canonical_table, FiberPoint(MIXED).scaled(3))
    t = indices.tables()
    rng = np.random.default_rng(10)
    for _ in range(100):
        i, j = (int(x) for x in rng.integers(0, 625, size=2))
        k = int(t.carry_code[i, j]).bit_count()
        assert F2.scalar(i, j) == F1.scalar(i, j) * CycNum((3 ** k, 0, 0, 0))


def test_cyclotomic_rescaling_keeps_radical_pattern(canonical_table):
    # scale by a root of unity: coordinates leave the integers, so the exact
    # field path runs; spot-check with the generic trace entry that the trace
    # values vanish on the same rows
    F1 = specialize(canonical_table, DEGENERATE)
    F2 = specialize(canonical_table, FiberPoint(DEGENERATE).scaled(root_power(2)))
    assert F2._subset_ints is None
    flags = fiber._radical_flags(F1)
    neg = indices.tables().neg
    rng = np.random.default_rng(12)
    for a in rng.integers(0, 625, size=12):
        assert (not fiber.gram_entry(F2, int(a), int(neg[a]))) == bool(flags[int(a)])


def test_cyclotomic_rescaling_keeps_center(canonical_table):
    F = specialize(canonical_table, FiberPoint(FULL).scaled(root_power(1)))
    assert center_dim(F, method="both") == 25


# ---------------------------------------------------------
# trace form and radical structure
# ---------------------------------------------------------


def test_gram_matrix_is_antidiagonal_sampled(canonical_table):
    F = specialize(canonical_table, MIXED)
    t = indices.tables()
    rng = np.random.default_rng(21)
    for _ in range(10):
        i, j = (int(x) for x in rng.integers(0, 625, size=2))
        if int(t.neg[i]) != j:
            assert not gram_entry(F, i, j)


def test_gram_symmetry_sampled(canonical_table):
    F = specialize(canonical_table, DEGENERATE)
    t = indices.tables()
    rng = np.random.default_rng(22)
    for a in rng.integers(0, 625, size=10):
        i = int(a)
        j = int(t.neg[i])
        assert gram_entry(F, i, j) == gram_entry(F, j, i)


def test_fast_radical_path_matches_generic_trace(canonical_table):
    F = specialize(canonical_table, DEGENERATE)
    flags = fiber._radical_flags(F)
    t = indices.tables()
    rng = np.random.default_rng(23)
    for a in rng.integers(0, 625, size=15):
        i = int(a)
        direct = gram_entry(F, i, int(t.neg[i]))
        assert (not direct) == bool(flags[i])


def test_radical_basis_members_square_to_zero_direction(canonical_table):
    # radical vectors are unit vectors whose pairing partner has zero trace
    F = specialize(canonical_table, DEGENERATE)
    basis = radical_basis(F)
    assert len(basis) == 500
    for vec in basis[::50]:
        (pos, val), = vec.items()
        assert val == ONE
        assert not gram_entry(F, int(indices.tables().neg[pos]), pos)


def test_radical_closure_on_degenerate_point(canonical_table):
    F = specialize(canonical_table, DEGENERATE)
    assert radical_is_ideal(F)


# |support| -> (radical dimension, center of A_p / J, squared dimension of its
# simple modules) for the canonical matrix
SUPPORT_FACTS = {2: (620, 5, 1), 3: (600, 1, 25), 4: (500, 5, 25), 5: (0, 25, 25)}


def test_fiber_radical_and_quotient_are_read_off_the_support(canonical_table):
    # at a point p with support sigma the radical is spanned by the e_a with a
    # outside G_sigma = {a : supp a in sigma}, a subgroup of order
    # 5^(|sigma|-1); A_p / J is the twisted group algebra of G_sigma, whose
    # center is spanned by the kernel of omega_N(a, b) = a N b mod 5 on
    # G_sigma, of order 5^(|sigma|-1-r) for r the F_5 rank of omega_N there
    t = indices.tables()
    idx = t.idx.astype(np.int64)
    n = np.array(canonical_table.source_matrix.entries, dtype=np.int64)
    seen = {}
    for size in SUPPORT_FACTS:
        for sigma in itertools.combinations(range(5), size):
            point = [int(i in sigma) for i in range(5)]
            point[sigma[-1]] = 1 - size
            F = specialize(canonical_table, point)
            outside = [i for i in range(5) if i not in sigma]
            G = np.flatnonzero((t.idx[:, outside] == 0).all(axis=1)).tolist()
            assert len(G) == 5 ** (size - 1)
            radical = sorted(pos for vec in radical_basis(F) for pos in vec)
            assert radical == sorted(set(range(625)) - set(G)), sigma
            kernel = int((idx[G] @ n @ idx[G].T % 5 == 0).all(axis=1).sum())
            if size < 5:  # the 625-dimensional solve is left out
                where = {g: k for k, g in enumerate(G)}
                quotient = MonomialAlgebra([[where[int(t.sum_idx[a, b])] for b in G] for a in G],
                                           [[F.scalar(a, b) for b in G] for a in G])
                assert center_dim(quotient, method="solve") == kernel, sigma
            seen.setdefault(size, set()).add((len(radical), kernel, len(G) // kernel))
    assert seen == {size: {facts} for size, facts in SUPPORT_FACTS.items()}


def test_semisimple_iff_radical_trivial(canonical_table):
    F = specialize(canonical_table, FULL)
    assert radical_dim(F) == 0
    assert is_semisimple(F)
    assert radical_basis(F) == []
    assert radical_is_ideal(F)


# ---------------------------------------------------------
# small monomial algebras (generic code path)
# ---------------------------------------------------------


def test_nilpotent_pair_fixture():
    M = MonomialAlgebra.nilpotent_pair()
    assert radical_dim(M) == 1
    assert not is_semisimple(M)
    assert center_dim(M) == 2  # commutative: 1 and r both central
    assert radical_is_ideal(M)
    basis = radical_basis(M)
    assert len(basis) == 1
    assert set(basis[0]) == {1}


def test_nilpotent_pair_gram_values():
    M = MonomialAlgebra.nilpotent_pair()
    assert gram_entry(M, 0, 0) == CycNum((2, 0, 0, 0))
    assert not gram_entry(M, 0, 1)
    assert not gram_entry(M, 1, 0)
    assert not gram_entry(M, 1, 1)


def test_group_like_pair_is_semisimple():
    # basis (1, g) with g*g = 1: semisimple, center 2, radical 0
    M = MonomialAlgebra(targets=[[0, 1], [1, 0]], scalars=[[1, 1], [1, 1]])
    assert radical_dim(M) == 0
    assert is_semisimple(M)
    assert center_dim(M) == 2


def test_monomial_algebra_validation():
    with pytest.raises(ValueError):
        MonomialAlgebra(targets=[[0, 1]], scalars=[[1, 1], [1, 0]])
