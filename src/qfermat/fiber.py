"""Fiber algebras: the 625-dimensional specializations of the structure table.

Evaluating the carry monomials of a structure table at a point of the
hyperplane x_0 + ... + x_4 = 0 in P^3 turns the table into an honest
625-dimensional associative unital algebra over Q(zeta_5): the basis vector
e_a times e_b is

    zeta^{E(a,b)} * (product of x_i(p) over carry positions) * e_{a+b}.

This module analyzes those algebras exactly: center dimension and Jacobson
radical (via the characteristic-zero trace-form criterion: the radical is
the kernel of T(u, v) = trace(L_u L_v)), and whether that radical is an
ideal.

Two structural facts keep everything tractable.  First, commuting with all
basis vectors constrains each coordinate of a central element separately
(the product of e_a and e_b always lands on the same basis line as the
product of e_b and e_a), so the center is spanned by basis vectors and the
graded shortcut just scans rows; a generic dense null-space solve is kept
alongside as an independent cross-check.  Second, trace(L_{e_a} L_{e_b})
vanishes unless b is the additive inverse of a, so the trace Gram matrix is
a permuted diagonal and the radical has a monomial basis; for points whose
coordinates are integers with |x_i| <= 32 (_INT_COORD_LIMIT) the diagonal
sums are accumulated in exact int64 vectors over the five root-of-unity
exponents, and every other point takes the one paired entry T(e_a, e_{-a})
per row from the generic gram_entry.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import indices
from .cyclotomic import CycNum, ONE, ZERO, as_cyc, root_power
from .errors import PreconditionError, ToolkitError, as_rational
from .linalg import ExactRREF
from .structure import StructureTable, verify_associativity

__all__ = [
    "FiberPoint",
    "FiberAlgebra",
    "specialize",
    "center_dim",
    "radical_dim",
    "radical_basis",
    "radical_is_ideal",
]

# int64 stays exact through products of two subset monomials summed over 625
# terms as long as coordinates are this small
_INT_COORD_LIMIT = 32


class FiberPoint:
    """A point of the hyperplane sum(x_i) = 0, coordinates in Q(zeta_5), each
    read by cyclotomic.as_cyc: a CycNum, four coordinates, or one rational."""

    __slots__ = ("coords",)

    def __init__(self, coords: Sequence):
        cs = tuple(as_cyc(c, "point coordinates") for c in coords)
        if len(cs) != 5:
            raise PreconditionError("a fiber point has 5 coordinates")
        total = cs[0]
        for c in cs[1:]:
            total = total + c
        if total:
            raise PreconditionError("fiber point must satisfy x_0 + ... + x_4 = 0")
        if not any(cs):
            raise PreconditionError("fiber point must not be the zero vector")
        self.coords = cs

    @classmethod
    def parse(cls, text: str) -> "FiberPoint":
        """Parse comma-separated rational coordinates like "1,1,1,1,-4"."""
        parts = [p.strip() for p in text.split(",")]
        try:
            values = [as_rational(p, "point coordinates") for p in parts]
        except ValueError as exc:
            raise PreconditionError("cannot parse point %r: %s" % (text, exc))
        return cls(values)

    def support(self) -> Tuple[bool, ...]:
        return tuple(bool(c) for c in self.coords)

    def integer_coords(self) -> Optional[Tuple[int, ...]]:
        """The coordinates as plain ints when they are small integers."""
        out = []
        for c in self.coords:
            if not c.is_rational() or c.coeffs[0].denominator != 1:
                return None
            v = int(c.coeffs[0])
            if abs(v) > _INT_COORD_LIMIT:
                return None
            out.append(v)
        return tuple(out)

    def to_json(self):
        return [c.to_json() for c in self.coords]

    def __eq__(self, other):
        if isinstance(other, FiberPoint):
            return self.coords == other.coords
        return NotImplemented

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return "FiberPoint(%r)" % (self.to_json(),)


class FiberAlgebra:
    """Structure table specialized at a point; 625-dimensional and unital.

    scalar(i, j) is the full product coefficient (root of unity times
    evaluated carry monomial) and target(i, j) the basis position of the
    product, for basis positions i, j in lex order of the index set.  Targets
    and carry monomials are looked up through the shared sum_idx and
    carry_code arrays of the index tables.
    """

    def __init__(self, table: StructureTable, point: FiberPoint):
        self.table = table
        self.point = point
        self.dim = 625
        self.unit_index = 0
        self.sum_idx = indices.tables().sum_idx
        self.carry_code = indices.tables().carry_code

        subset_vals: List[CycNum] = []
        for mask in range(32):
            v = ONE
            for i in range(5):
                if mask >> i & 1:
                    v = v * point.coords[i]
            subset_vals.append(v)
        self.subset_values = tuple(subset_vals)
        subset_nonzero = np.array([bool(v) for v in subset_vals])
        self.mono_nonzero = subset_nonzero[self.carry_code]

        # every possible product coefficient: 32 subset monomials times 5 roots
        self._coeff_cache = tuple(
            tuple(subset_vals[mask] * root_power(e) for e in range(5))
            for mask in range(32)
        )

        ints = point.integer_coords()
        if ints is None:
            self._subset_ints = None
        else:
            vals = []
            for mask in range(32):
                v = 1
                for i in range(5):
                    if mask >> i & 1:
                        v *= ints[i]
                vals.append(v)
            self._subset_ints = np.array(vals, dtype=np.int64)

    # -- duck-typed monomial-algebra interface -----------------------------

    def scalar(self, i: int, j: int) -> CycNum:
        return self._coeff_cache[self.carry_code[i, j]][self.table.exp[i, j]]

    def target(self, i: int, j: int) -> int:
        return int(self.sum_idx[i, j])


def specialize(table: StructureTable, point: Union[FiberPoint, Sequence]) -> FiberAlgebra:
    """Evaluate the carry monomials at a point of the hyperplane.

    The table must pass exact-bilinear associativity (so the resulting
    algebra is associative by construction) and the point must satisfy the
    hyperplane equation."""
    if not isinstance(point, FiberPoint):
        point = FiberPoint(point)
    report = verify_associativity(table, "exact-bilinear")
    if not report:
        raise PreconditionError(
            "refusing to specialize a table that fails exact-bilinear verification: %r"
            % (report.violations[:1],))
    return FiberAlgebra(table, point)


# ---------------------------------------------------------------------------
# center


def _center_dim_graded(F: FiberAlgebra) -> int:
    exp = F.table.exp
    central = (~F.mono_nonzero | (exp == exp.T)).all(axis=1)
    return int(central.sum())


def _commutant_rank(alg) -> int:
    """Rank of the full commutant constraint system, by exact elimination.

    Unknowns z_a; for every basis b and every target component t, the
    coefficient of e_t in z e_b - e_b z must vanish."""
    rref = ExactRREF()
    dim = alg.dim
    for b in range(dim):
        rows: Dict[int, Dict[int, CycNum]] = {}
        for a in range(dim):
            s1 = alg.scalar(a, b)
            if s1:
                t = alg.target(a, b)
                row = rows.setdefault(t, {})
                cur = row.get(a)
                row[a] = s1 if cur is None else cur + s1
            s2 = alg.scalar(b, a)
            if s2:
                t = alg.target(b, a)
                row = rows.setdefault(t, {})
                cur = row.get(a)
                row[a] = -s2 if cur is None else cur - s2
        for row in rows.values():
            rref.add_row(row)
    return rref.rank


def center_dim(F, method: Optional[str] = None) -> int:
    """Dimension of the center over Q(zeta_5).

    method "graded" uses the row scan available on fiber algebras (carry
    monomials are symmetric in a and b, so e_a is central iff every
    asymmetric exponent pair is killed by a vanishing monomial), "solve"
    runs the dense commutant null-space computation, and "both" (the
    default on fiber algebras) runs the two and insists they agree.
    "solve", the default otherwise, reads only F.dim, F.scalar(i, j) and
    F.target(i, j), so it also runs on any algebra whose basis products
    each land on one basis line, such as a quotient of a fiber algebra."""
    if method is None:
        method = "both" if isinstance(F, FiberAlgebra) else "solve"
    if method not in ("graded", "solve", "both"):
        raise PreconditionError("unknown center_dim method %r" % (method,))
    if method in ("graded", "both") and not isinstance(F, FiberAlgebra):
        raise PreconditionError("the graded shortcut needs a fiber algebra")
    if method == "graded":
        return _center_dim_graded(F)
    solved = F.dim - _commutant_rank(F)
    if method == "both":
        graded = _center_dim_graded(F)
        if graded != solved:
            raise ToolkitError(
                "center_dim cross-check failed: graded %d vs solve %d"
                % (graded, solved))
    return solved


# ---------------------------------------------------------------------------
# radical


def _s_values_int(F: FiberAlgebra) -> np.ndarray:
    """Exact (625, 5) accumulator: row a holds the rational coefficients of
    trace(L_{e_a} L_{e_{-a}}) on the root basis 1, z, z^2, z^3, z^4, built
    125 rows at a time so that its int64 temporaries stay small."""
    neg = indices.tables().neg
    exp, sum_idx, code = F.table.exp, F.sum_idx, F.carry_code
    mono = F._subset_ints
    acc = np.zeros((625, 5), dtype=np.int64)
    for lo in range(0, 625, 125):
        rows = np.arange(lo, lo + 125)[:, None]
        b = neg[lo:lo + 125]
        sc = sum_idx[b]
        term = mono[code[b]] * mono[code[rows, sc]]
        eexp = (exp[b] + exp[rows, sc]) % 5
        np.add.at(acc, (np.broadcast_to(rows, eexp.shape), eexp), term)
    return acc


def _radical_flags(F: FiberAlgebra) -> np.ndarray:
    """Boolean mask over basis positions a with s(a) = 0, where s(a) is the
    single potentially-nonzero Gram value in row a (at column -a)."""
    if F._subset_ints is not None:
        acc = _s_values_int(F)
        return (acc == acc[:, :1]).all(axis=1)
    neg = indices.tables().neg
    return np.array([not gram_entry(F, a, int(neg[a])) for a in range(625)])


def gram_entry(alg, i: int, j: int) -> CycNum:
    """One entry of the trace form T(b_i, b_j) = trace(L_{b_i} L_{b_j})."""
    total = ZERO
    for c in range(alg.dim):
        s1 = alg.scalar(j, c)
        if not s1:
            continue
        m = alg.target(j, c)
        if alg.target(i, m) != c:
            continue
        s2 = alg.scalar(i, m)
        if s2:
            total = total + s1 * s2
    return total


def radical_dim(F: FiberAlgebra) -> int:
    """Dimension of the kernel of the trace form (the Jacobson radical)."""
    return len(radical_basis(F))


def radical_basis(F: FiberAlgebra) -> List[Dict[int, CycNum]]:
    """Sparse basis of the radical: the unit vectors e_{-a}, in position
    order, for each a whose one paired trace value T(e_a, e_{-a}) vanishes."""
    flags = _radical_flags(F)
    neg = indices.tables().neg
    positions = sorted(int(neg[a]) for a in np.nonzero(flags)[0])
    return [{p: ONE} for p in positions]


def radical_is_ideal(F: FiberAlgebra) -> bool:
    """Exact closure check: radical times basis stays inside the radical span."""
    basis = radical_basis(F)
    if not basis:
        return True
    span = ExactRREF()
    for vec in basis:
        span.add_row(dict(vec))
    for vec in basis:
        for b in range(F.dim):
            left: Dict[int, CycNum] = {}
            right: Dict[int, CycNum] = {}
            for pos, val in vec.items():
                s = F.scalar(pos, b)
                if s:
                    t = F.target(pos, b)
                    cur = left.get(t)
                    add = val * s
                    left[t] = add if cur is None else cur + add
                s = F.scalar(b, pos)
                if s:
                    t = F.target(b, pos)
                    cur = right.get(t)
                    add = val * s
                    right[t] = add if cur is None else cur + add
            if not span.contains(left) or not span.contains(right):
                return False
    return True
