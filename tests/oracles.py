"""Oracles for the parameter-matrix, fiber and linear-algebra tests.

The package enumerates and classifies the admissible matrices through one
int8 array over all 5^6 of them and orbit labels along seven generators.
The oracles here are the definitions read off the paper, one matrix at a
time: genericity over the 60 ordered triples, the three group actions, and
the admissible matrices built from their six free entries in plain Python.

The package computes centers and radicals of the 625-dimensional fiber
algebras by shortcuts that need the index monoid.  The generic versions
here need only that each basis product lands on one basis line: the
radical as the kernel of the full trace-form Gram matrix, found by exact
elimination, and small hand-made algebras to run it and the commutant solve
of center_dim on.  Both take O(dim^3) field operations, so they run on
algebras of a few dozen dimensions.  Two more rules read a fiber's radical
and center off the support of its point and the 32 subset monomials, in
milliseconds, with no trace form and no elimination.
"""

import itertools
from functools import lru_cache
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from qfermat import indices
from qfermat.cyclotomic import ONE, CycNum, root_power
from qfermat.fiber import gram_entry
from qfermat.linalg import ExactRREF
from qfermat.qmatrix import QMatrix

Row = Dict[int, CycNum]

# ---------------------------------------------------------------------------
# quantum parameter matrices

# the six free entries of an admissible matrix, row-major
FREE_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def is_generic(N: QMatrix) -> bool:
    """n_ij + n_jk != n_ik mod 5 for all 60 ordered pairwise-distinct triples."""
    e = N.entries
    return all((e[i][j] + e[j][k] - e[i][k]) % 5
               for i, j, k in itertools.permutations(range(5), 3))


def act_scale(N: QMatrix, a: int) -> QMatrix:
    """Every entry times a, a unit mod 5 (another choice of primitive root)."""
    if a % 5 == 0:
        raise ValueError("scaling factor must be nonzero mod 5")
    return QMatrix([[x * a for x in row] for row in N.entries])


def act_permute(N: QMatrix, sigma: Sequence[int]) -> QMatrix:
    """Entry (i, j) of the result is n_{sigma(i), sigma(j)}."""
    if sorted(sigma) != list(range(5)):
        raise ValueError("sigma must be a permutation of 0..4")
    e = N.entries
    return QMatrix([[e[sigma[i]][sigma[j]] for j in range(5)] for i in range(5)])


def act_twist(N: QMatrix, v: Sequence[int]) -> QMatrix:
    """Entry (i, j) of the result is n_ij + v_i - v_j (a Zhang twist)."""
    e = N.entries
    return QMatrix([[e[i][j] + v[i] - v[j] for j in range(5)] for i in range(5)])


def from_free(free: Sequence[int]) -> QMatrix:
    """The admissible matrix with free entries n01, n02, n03, n12, n13, n23:
    skew symmetry fixes the lower triangle and zero row sums fix column 4."""
    n = [[0] * 5 for _ in range(5)]
    for (i, j), x in zip(FREE_PAIRS, free):
        n[i][j], n[j][i] = x, -x
    for i in range(4):
        n[i][4] = -sum(n[i][:4])
        n[4][i] = -n[i][4]
    return QMatrix(n)


@lru_cache(maxsize=1)
def admissible_matrices() -> Tuple[QMatrix, ...]:
    """All 5^6 admissible matrices; the one at position c has its free
    entries read as a base-5 number, n01 most significant, equal to c."""
    return tuple(from_free(f) for f in itertools.product(range(5), repeat=6))


@lru_cache(maxsize=1)
def generic_matrices() -> Tuple[QMatrix, ...]:
    """The admissible matrices that is_generic accepts, in the same order."""
    return tuple(m for m in admissible_matrices() if is_generic(m))


def sample_admissible(count: int, seed: int) -> List[QMatrix]:
    """count admissible matrices drawn uniformly by their free entries."""
    free = np.random.default_rng(seed).integers(0, 5, (count, 6))
    return [from_free(f) for f in free.tolist()]


# ---------------------------------------------------------------------------
# algebras


class MonomialAlgebra:
    """A small algebra whose basis products each land on one basis line.

    targets[i][j] is the basis position of b_i b_j and scalars[i][j] the
    coefficient (an int or a CycNum; zero kills the product).
    """

    def __init__(self, targets: Sequence[Sequence[int]], scalars: Sequence[Sequence]):
        dim = len(targets)
        if any(len(r) != dim for r in targets) or len(scalars) != dim \
                or any(len(r) != dim for r in scalars):
            raise ValueError("targets and scalars must be dim x dim")
        self.dim = dim
        self._targets = [[int(t) for t in row] for row in targets]
        self._scalars = [[s if isinstance(s, CycNum) else CycNum((s, 0, 0, 0)) for s in row]
                         for row in scalars]

    def scalar(self, i: int, j: int) -> CycNum:
        return self._scalars[i][j]

    def target(self, i: int, j: int) -> int:
        return self._targets[i][j]

    @classmethod
    def nilpotent_pair(cls) -> "MonomialAlgebra":
        """Basis (1, r) with r*r = 0: the canonical nonsemisimple fixture."""
        return cls(targets=[[0, 1], [1, 0]], scalars=[[1, 1], [1, 0]])


def rank(rows: Iterable[Row]) -> int:
    rref = ExactRREF()
    for row in rows:
        rref.add_row(row)
    return rref.rank


def kernel_basis(rows: Iterable[Row], ncols: int) -> List[Row]:
    """Basis of the right kernel of the row system, one vector per free column."""
    rref = ExactRREF()
    for row in rows:
        rref.add_row(row)
    basis: List[Row] = []
    for free in range(ncols):
        if free in rref.pivots:
            continue
        vec: Row = {free: ONE}
        for col, prow in rref.pivots.items():
            v = prow.get(free)
            if v:
                vec[col] = -v
        basis.append(vec)
    return basis


def gram_rows(alg) -> List[Row]:
    """Sparse trace-form Gram rows T(b_i, b_j) by direct evaluation."""
    rows = []
    for i in range(alg.dim):
        row = {j: gram_entry(alg, i, j) for j in range(alg.dim)}
        rows.append({j: v for j, v in row.items() if v})
    return rows


def radical_basis(alg) -> List[Row]:
    """The Jacobson radical as the kernel of the trace form (characteristic 0)."""
    return kernel_basis(gram_rows(alg), alg.dim)


# ---------------------------------------------------------------------------
# fiber radical and center from the support of the point


def support_radical_flags(F) -> np.ndarray:
    """Over positions a, whether e_{-a} lies in the radical of the fiber F.

    e_a e_{-a} is lambda_a e_0, and the carry positions of a + (-a) are the
    nonzero digits of a, so lambda_a = 0 exactly when a has a nonzero digit
    where the point has a zero coordinate."""
    return ~F.mono_nonzero[np.arange(625), indices.tables().neg]


def diagonal_commutant_rank(F) -> int:
    """Rank of the commutant system of the fiber F, without elimination.

    Carries are symmetric in a and b, so the coefficient of e_{a+b} in
    z e_b - e_b z is z_a m (zeta^E(a,b) - zeta^E(b,a)) for the carry monomial
    m at (a, b): the system is diagonal, and its rank counts the a whose
    coefficient is nonzero for some b.  Which m (zeta^e - zeta^f) vanish is
    a (32, 5, 5) table computed in Q(zeta_5), not read off E == E^T; the 32
    monomials of a point with small integer coordinates take a few values."""
    rows = {}
    for m in F.subset_values:
        if m not in rows:
            rows[m] = [[bool(m * (root_power(e) - root_power(f))) for f in range(5)]
                       for e in range(5)]
    nonzero = np.array([rows[m] for m in F.subset_values])
    exp = F.table.exp
    return int(nonzero[F.carry_code, exp, exp.T].any(axis=1).sum())
