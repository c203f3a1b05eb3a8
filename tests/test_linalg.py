from fractions import Fraction

from oracles import kernel_basis, rank
from qfermat.cyclotomic import CycNum, ONE, root_power
from qfermat.linalg import ExactRREF

# ---------------------------------------------------------
# rank over the rationals
# ---------------------------------------------------------


def q(v):
    """The rational v as a field element."""
    return CycNum((v, 0, 0, 0))


def dense(rows):
    return [{j: q(v) for j, v in enumerate(r) if v} for r in rows]


def test_rank_known_matrices():
    assert rank(dense([[1, 0], [0, 1]])) == 2
    assert rank(dense([[1, 2], [2, 4]])) == 1
    assert rank(dense([[0, 0], [0, 0]])) == 0
    assert rank(dense([[1, 2, 3], [4, 5, 6], [7, 8, 9]])) == 2
    assert rank(dense([[2, 0, 1], [0, 3, 0], [0, 0, 5], [2, 3, 6]])) == 3


def test_rank_ignores_duplicate_and_scaled_rows():
    rows = dense([[1, 2, 0], [2, 4, 0], [Fraction(1, 2), 1, 0], [0, 0, 7]])
    assert rank(rows) == 2


def test_incremental_rref_contains():
    r = ExactRREF()
    r.add_row({0: q(1), 1: q(2)})
    r.add_row({2: q(5)})
    assert r.rank == 2
    assert r.contains({0: q(3), 1: q(6), 2: q(-1)})
    assert not r.contains({1: q(1)})
    assert r.contains({})


def test_pivot_is_the_least_column_scaled_to_one():
    # the documented pivot choice, and pivot rows kept free of each other's
    # pivot columns by back-substitution
    r = ExactRREF()
    assert r.add_row({1: q(2), 3: q(4)}) == 1
    assert r.add_row({1: q(1), 2: q(3), 3: q(5)}) == 2
    assert r.pivots == {1: {1: ONE, 3: q(2)}, 2: {2: ONE, 3: ONE}}
    assert r.add_row({1: q(1), 3: q(2)}) is None
    assert r.add_row({3: q(7)}) == 3
    assert r.pivots == {1: {1: ONE}, 2: {2: ONE}, 3: {3: ONE}}


# ---------------------------------------------------------
# kernels
# ---------------------------------------------------------


def annihilates(rows, vec):
    for row in rows:
        total = None
        for col, val in vec.items():
            if col in row:
                term = row[col] * val
                total = term if total is None else total + term
        if total is not None and total != total - total:
            return False
    return True


def test_kernel_basis_rational():
    rows = dense([[1, 2, 3], [0, 1, 1]])
    basis = kernel_basis(rows, 3)
    assert len(basis) == 1
    assert annihilates(rows, basis[0])


def test_kernel_dimension_counts():
    rows = dense([[1, 1, 1, 1]])
    assert len(kernel_basis(rows, 4)) == 3
    assert len(kernel_basis([], 4)) == 4
    rows = dense([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert kernel_basis(rows, 3) == []


# ---------------------------------------------------------
# generic field coefficients (fifth roots of unity)
# ---------------------------------------------------------


def test_rank_over_cyclotomic_field():
    z = root_power(1)
    rows = [
        {0: ONE, 1: z},
        {0: z.inv(), 1: ONE},           # scalar multiple of the first row
        {2: ONE + z, 3: root_power(3)},
    ]
    assert rank(rows) == 2


def test_kernel_over_cyclotomic_field():
    z = root_power(1)
    rows = [{0: ONE, 1: z}]
    basis = kernel_basis(rows, 2)
    assert len(basis) == 1
    vec = basis[0]
    total = None
    for col, val in vec.items():
        term = rows[0].get(col, ONE - ONE) * val
        total = term if total is None else total + term
    assert not total  # exact zero in the field


def test_rref_rejects_nothing_but_reduces_everything():
    # random-ish consistency: adding rows never decreases rank, and the rank
    # never exceeds either dimension
    import numpy as np

    rng = np.random.default_rng(15)
    r = ExactRREF()
    prev = 0
    for k in range(30):
        row = {int(c): q(int(rng.integers(-3, 4)))
               for c in rng.integers(0, 8, size=3)}
        row = {c: v for c, v in row.items() if v}
        r.add_row(row)
        assert prev <= r.rank <= min(k + 1, 8)
        prev = r.rank
