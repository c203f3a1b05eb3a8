"""Generic oracles for the fiber and linear-algebra tests.

The package computes centers and radicals of the 625-dimensional fiber
algebras by shortcuts that need the index monoid.  The generic versions
here need only that each basis product lands on one basis line: the
radical as the kernel of the full trace-form Gram matrix, found by exact
elimination, and small hand-made algebras to run it and the commutant solve
of center_dim on.  Both take O(dim^3) field operations, so they run on
algebras of a few dozen dimensions.
"""

from typing import Dict, Iterable, List, Sequence

from qfermat.cyclotomic import ONE, CycNum
from qfermat.fiber import gram_entry
from qfermat.linalg import ExactRREF

Row = Dict[int, CycNum]


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
