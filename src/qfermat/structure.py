"""Structure constants of the 625-component sheaf algebra and its Frobenius pairing.

For an admissible exponent matrix N the degree-5 sheaf algebra decomposes
into 625 line-bundle components indexed by the index set I, and the product
of the components at a and b lands in the component at a+b with coefficient

    zeta^{E(a,b)} * (product of the coordinate x_i over the carry positions)

where E(a,b) = sum_{i>j} n_ij a_i b_j mod 5.  The exponent E is bilinear in
the digit vectors, which is exactly why the product is associative: the
scalar parts satisfy the cocycle identity E(a,b) + E(a+b,c) =
E(b,c) + E(a,b+c), and the carry monomials are associative by the carry
bookkeeping of the index monoid.  Each carry contributes one degree-1
coordinate factor, matching the weight drop |a| + |b| - |a+b|.

The Frobenius pairing is multiplication followed by projection onto the top
component at (4,4,4,4,4); a + b is the top index only for b = comp(a) =
(4,4,4,4,4) - a, and that pair never carries, so the pairing has exactly one
nonzero entry per row and column, the root of unity zeta^{E(a, comp a)}, and
is given by those 625 exponents.  For admissible N (zero row sums) the
pairing is symmetric; over arbitrary skew matrices, elementwise symmetry of
the 625 antidiagonal pairs is equivalent to all row sums being equal mod 5.

The module works in Z/5 throughout: exponents are computed and stored as a
(625, 625) int8 array, and field elements enter only where a fiber is
specialized or a word is rewritten; targets and carries are the shared
arrays of the index module.  Writing E(a,b) = <a L, b> with L the
strict lower triangle of N makes each row of E a row of one fixed table of
four-digit dot products mod 5, so building E is an integer row gather and
no floating point enters.  The verification kernels share one residue rule:
with exponents scaled by 51 in uint8, where 5 * 51 = 255 = -1 mod 256, a
cocycle or linearity defect D in [-8, 8] reads as 51 D + 1 mod 256, which is
at most 2 exactly when D = 0 mod 5 and at least 51 otherwise, so one max
decides a slab; recorded violations recompute both sides.
Translating every index by b is a gather by row b of sum_idx, the
positions of b + a: the linearity kernel reads E(a+c, b) as the rows
sum_idx[c] of E, and full-triple reads E(a+b, c) and E(a, b+c) as slices of
tiles of E translated by the 25 entries sum_idx[b mod 25, :25].
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import List, Optional, Tuple, Union

import numpy as np

from . import indices
from .errors import BudgetExceededError, PreconditionError
from .qmatrix import QMatrix, is_admissible

__all__ = [
    "StructureTable",
    "AssociativityReport",
    "CyCertificate",
    "exponent_matrix",
    "build_table",
    "verify_associativity",
    "frobenius_pairing",
    "is_symmetric_pairing",
    "cy_certificate",
]

# deterministic linearity witnesses: the first 25 positions, the indices
# (0,0,x,y,-x-y mod 5) in lex order
_WITNESS_COUNT = 25


@lru_cache(maxsize=1)
def _dot_table() -> np.ndarray:
    """(625, 625) int8 D[p, q] = sum_{k<4} p_k q_k mod 5 over the first four
    digits of two positions; the sums stay at most 64, so int8 holds them."""
    digits = indices.tables().idx[:, :4].astype(np.int8)
    d = np.zeros((625, 625), dtype=np.int8)
    for k in range(4):
        d += np.multiply.outer(digits[:, k], digits[:, k])
    d %= 5
    d.setflags(write=False)
    return d


def exponent_matrix(N: QMatrix) -> np.ndarray:
    """The (625, 625) int8 array E(a,b) = sum_{i>j} n_ij a_i b_j mod 5.

    Low-level helper: no admissibility requirement, any 5x5 integer matrix
    works; its entries are reduced mod 5 first.  E(a,b) = <u(a), b> mod 5
    with u(a) = a L mod 5, where L is the strict lower triangle of N, so
    u_4 = 0 and row a of E is the row of the cached table D = _dot_table()
    at the position whose digits are u_0..u_3.  The arithmetic is integer
    throughout; the only (625, 625) arrays are D and the result.
    """
    N = N if isinstance(N, QMatrix) else QMatrix(N)
    lower = np.tril(np.array(N.entries, dtype=np.int64), -1)
    u = indices.tables().idx @ lower % 5
    return _dot_table()[u[:, :4] @ 5 ** np.arange(3, -1, -1)]


class StructureTable:
    """The full 625x625 multiplication data for one admissible matrix.

    Only the exponents E(a,b) depend on the matrix, so a table is its source
    matrix and the (625, 625) int8 array exp.  The target positions sum_idx
    and the packed carry flags carry_code come from the index monoid alone;
    they are the shared read-only arrays of indices.tables().
    """

    __slots__ = ("source_matrix", "exp")

    def __init__(self, source_matrix: QMatrix, exp: np.ndarray):
        self.source_matrix = source_matrix
        self.exp = exp
        self.exp.setflags(write=False)

    # -- element access --------------------------------------------------

    def entry(self, a, b) -> Tuple[int, Tuple[bool, ...], Tuple[int, ...]]:
        """(E(a,b) in 0..4, the 5 carry flags as bools, the 5 digits of a+b
        as ints) at the indices a and b, each a position or 5 digits."""
        i, j = indices.position(a), indices.position(b)
        shared = indices.tables()
        code = int(shared.carry_code[i, j])
        return (int(self.exp[i, j]), tuple(bool(code >> k & 1) for k in range(5)),
                tuple(shared.idx[shared.sum_idx[i, j]].tolist()))

    def replace_exponent(self, a, b, new_exp: int) -> "StructureTable":
        """Copy of the table with one exponent overwritten (fault injection)."""
        exp = self.exp.copy()
        exp[indices.position(a), indices.position(b)] = int(new_exp) % 5
        return StructureTable(self.source_matrix, exp)

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        """Format 2: the source matrix and each row of exp as 625 digits 0..4."""
        rows = (self.exp + ord("0")).astype(np.uint8)
        return {
            "format": 2,
            "source_matrix": self.source_matrix.to_json(),
            "exp": [row.tobytes().decode("ascii") for row in rows],
        }

    @classmethod
    def from_json(cls, data: dict) -> "StructureTable":
        if not isinstance(data, dict) or data.get("format") != 2:
            raise PreconditionError(
                "not a format-2 table file (rebuild it with build-table)")
        matrix = QMatrix.from_json(data["source_matrix"])
        if not is_admissible(matrix):
            raise PreconditionError("table source matrix is not admissible")
        rows = data["exp"]
        if not isinstance(rows, list) or len(rows) != 625:
            raise PreconditionError("table must have 625 exponent rows")
        for k, row in enumerate(rows):
            if not isinstance(row, str) or len(row) != 625:
                raise PreconditionError(
                    "exponent row %d is not a string of 625 digits" % k)
        # "replace" keeps one byte per character, so a non-ASCII one fails below
        codes = np.frombuffer("".join(rows).encode("ascii", "replace"), dtype=np.uint8)
        exp = codes - np.uint8(ord("0"))
        if (exp > 4).any():
            raise PreconditionError("coefficient exponents must be digits 0..4")
        return cls(matrix, exp.astype(np.int8).reshape(625, 625))


def build_table(N: QMatrix) -> StructureTable:
    """Structure table of an admissible matrix; rejects non-admissible input."""
    if not is_admissible(N):
        raise PreconditionError("build_table requires an admissible matrix")
    N = N if isinstance(N, QMatrix) else QMatrix(N)
    return StructureTable(N, exponent_matrix(N))


# ---------------------------------------------------------------------------
# associativity verification


@dataclass
class AssociativityReport:
    ok: bool
    mode: str
    checks: int
    violations: List[dict] = field(default_factory=list)
    seed: Optional[int] = None

    def __bool__(self) -> bool:
        return self.ok

    def to_json(self) -> dict:
        out = {
            "ok": self.ok,
            "mode": self.mode,
            "checks": self.checks,
            "violations": self.violations,
        }
        if self.seed is not None:
            out["seed"] = self.seed
        return out


_MAX_RECORDED_VIOLATIONS = 20


def _violation(kind: str, a: int, b: int, c: Optional[int], lhs, rhs) -> dict:
    idx = indices.tables().idx
    out = {
        "kind": kind,
        "a": idx[a].tolist(),
        "b": idx[b].tolist(),
        "lhs": int(lhs),
        "rhs": int(rhs),
    }
    if c is not None:
        out["c"] = idx[c].tolist()
    return out


def _cocycle_violation(table: StructureTable, a: int, b: int, c: int) -> dict:
    """Record of the triple with its two cocycle sides E(a,b) + E(a+b,c) and
    E(b,c) + E(a,b+c), each mod 5."""
    exp, s = table.exp, indices.tables().sum_idx
    lhs = int(exp[a, b]) + int(exp[s[a, b], c])
    rhs = int(exp[b, c]) + int(exp[a, s[b, c]])
    return _violation("cocycle", a, b, c, lhs % 5, rhs % 5)


def _find_cocycle_violation(table: StructureTable, a: int, b: int) -> Optional[dict]:
    """Search c such that the stored exponents violate the cocycle at (a, b, c)."""
    # sums and differences of two exponents 0..4 stay in [-8, 8], so int8 holds them
    exp, s = table.exp, indices.tables().sum_idx
    for x, y in ((a, b), (b, a)):
        lhs = exp[x, y] + exp[s[x, y], :]
        rhs = exp[y, :] + exp[x, s[y, :]]
        bad = np.nonzero((lhs - rhs) % 5)[0]
        if bad.size:
            return _cocycle_violation(table, x, y, int(bad[0]))
    return None


def _residues(exp: np.ndarray) -> np.ndarray:
    """The residues 51 E mod 256, in uint8, of an array of exponents 0..4."""
    return exp.view(np.uint8) * np.uint8(51)


def _nonlinear(res: np.ndarray, c: int) -> np.ndarray:
    """Residues 51 D + 1 of the linearity defects D = E(a,b) + E(c,b) -
    E(a+c,b) over (a, b), from the residues res of E."""
    d = res.take(indices.tables().sum_idx[c], axis=0)
    np.subtract(res, d, out=d)
    d += res[c] + 1
    return d


def _verify_exact_bilinear(table: StructureTable, report: AssociativityReport) -> None:
    # the cap applies to the report as a whole, not per section
    def record(violation: dict) -> None:
        if len(report.violations) < _MAX_RECORDED_VIOLATIONS:
            report.violations.append(violation)

    def first(mask: np.ndarray, count: int) -> List[Tuple[int, int]]:
        # the first (row, column) pairs of a (625, 625) mask in C order
        return [divmod(ij, 625) for ij in np.flatnonzero(mask)[:count].tolist()]

    expected = exponent_matrix(table.source_matrix)
    mism = table.exp != expected
    report.checks += 625 * 625
    for i, j in first(mism, _MAX_RECORDED_VIOLATIONS):
        triple = _find_cocycle_violation(table, i, j)
        record(
            triple if triple is not None else
            _violation("bilinear-form", i, j, None, table.exp[i, j], expected[i, j])
        )
    if mism.any():
        report.ok = False

    # linearity witnesses on the stored exponents, additive in each slot; the
    # first slot of the transpose is the second slot of the table
    exp, s = table.exp, indices.tables().sum_idx
    res = _residues(exp)
    res_t = np.ascontiguousarray(res.T)
    for c in range(_WITNESS_COUNT):
        col = _nonlinear(res_t, c)
        row = _nonlinear(res, c)
        report.checks += 2 * 625 * 625
        if max(col.max(), row.max()) <= 2:
            continue
        report.ok = False
        for i, j in first(col.T > 2, 2):
            record(_violation("linearity", i, j, c, exp[i, s[j, c]],
                              (exp[i, j] + exp[i, c]) % 5))
        for i, j in first(row > 2, 2):
            record(_violation("linearity", i, j, c, exp[s[c, i], j],
                              (exp[i, j] + exp[c, j]) % 5))


def _check_budget(kind: str, start: float, budget_seconds: Optional[float]) -> None:
    if budget_seconds is not None and time.monotonic() - start > budget_seconds:
        raise BudgetExceededError("%s verification exceeded %.3f s" % (kind, budget_seconds))


def _verify_full_triple(table: StructureTable, report: AssociativityReport,
                        budget_seconds: Optional[float]) -> None:
    start = time.monotonic()
    res = _residues(table.exp)
    # For b = 25 * high + low, E(a+b, c) and E(a, b+c) are E with its rows,
    # and its columns, translated by b.  Translating by low permutes the 25
    # values of the two low digits; repeating the result twice along the two
    # high digit axes turns the translation by high into a slice.
    rows = np.empty((10, 10, 25, 625), dtype=np.uint8)
    cols = np.empty((625, 10, 10, 25), dtype=np.uint8)
    slab = np.empty((5, 125, 5, 125), dtype=np.uint8)
    found = []
    for low in range(25):
        shift = indices.tables().sum_idx[low, :25]  # position of j + low, j < 25
        rows_low = np.take(res.reshape(25, 25, 625), shift, axis=1).reshape(5, 5, 25, 625)
        cols_low = np.take(res.reshape(15625, 25), shift, axis=1).reshape(625, 5, 5, 25)
        rows.reshape(2, 5, 2, 5, 25, 625)[...] = rows_low[None, :, None]
        cols.reshape(625, 2, 5, 2, 5, 25)[...] = cols_low[:, None, :, None]
        for high in range(25):
            _check_budget("full-triple", start, budget_seconds)
            b, (h0, h1) = 25 * high + low, divmod(high, 5)
            # the (a, c) slab of the residues of E(a,b) - E(b,c) + E(a+b,c) -
            # E(a,b+c), with a and c each split as (5, 125) so that both
            # slices stay views
            np.subtract.outer(res[:, b] + 1, res[b], out=slab.reshape(625, 625))
            slab += rows[h0:h0 + 5, h1:h1 + 5].reshape(5, 125, 5, 125)
            slab -= cols[:, h0:h0 + 5, h1:h1 + 5].reshape(5, 125, 5, 125)
            report.checks += 625 * 625
            if slab.max() > 2:
                report.ok = False
                found.extend((ac // 625, b, ac % 625) for ac in
                             np.flatnonzero(slab > 2)[:_MAX_RECORDED_VIOLATIONS].tolist())
    # the first records of each b include the first records of all triples
    for a, b, c in sorted(found)[:_MAX_RECORDED_VIOLATIONS - len(report.violations)]:
        report.violations.append(_cocycle_violation(table, a, b, c))


# triples per slice: slice j of a sampled run is the j-th
# integers(0, 625, (3, k)) int32 draw of the seeded stream, k = 2^16 except in
# the last
_SAMPLE_SLICE = 1 << 16


def _verify_sampled(table: StructureTable, n: int, seed: int,
                    report: AssociativityReport, budget_seconds: Optional[float]) -> None:
    start = time.monotonic()
    rng = np.random.default_rng(seed)
    # E and the sum positions read through flat pair codes x * 625 + y
    exp, s = table.exp.view(np.uint8).ravel(), indices.tables().sum_idx.ravel()
    for lo in range(0, n, _SAMPLE_SLICE):
        _check_budget("sampled", start, budget_seconds)
        a, b, c = rng.integers(0, 625, (3, min(_SAMPLE_SLICE, n - lo)), dtype=np.int32)
        # D = E(a,b) + E(a+b,c) - E(b,c) - E(a,b+c) mod 256, in uint8
        ab = a * np.int32(625)
        ab += b
        bc = b * np.int32(625)
        bc += c
        d = exp.take(ab)
        d -= exp.take(bc)
        bc = s.take(bc)
        ab_c = s.take(ab)
        ab_c *= 625
        ab_c += c
        d += exp.take(ab_c)
        # a * 625 + (b+c), in the array that held a * 625 + b
        ab -= b
        ab += bc
        d -= exp.take(ab)
        d *= 51  # the residue 51 D + 1
        d += 1
        bad = np.flatnonzero(d > 2)
        report.checks += len(a)
        for t in bad[:_MAX_RECORDED_VIOLATIONS - len(report.violations)]:
            report.violations.append(
                _cocycle_violation(table, int(a[t]), int(b[t]), int(c[t])))
        if bad.size:
            report.ok = False


def parse_mode(mode: str) -> Tuple[str, Optional[int]]:
    """Normalize a verification mode string; returns (kind, sample count)."""
    m = mode.strip()
    if m in ("exact-bilinear", "exact"):
        return "exact-bilinear", None
    if m in ("full-triple", "full"):
        return "full-triple", None
    for open_, close in (("sampled(", ")"), ("sampled=", "")):
        if m.startswith(open_) and m.endswith(close):
            body = m[len(open_):len(m) - len(close)]
            try:
                n = int(body)
            except ValueError:
                break
            if n <= 0:
                raise PreconditionError("sample count must be positive: %r" % mode)
            return "sampled", n
    raise PreconditionError(
        "unknown verification mode %r (use exact-bilinear, full-triple, or sampled(n))"
        % mode)


def verify_associativity(table: StructureTable, mode: str = "exact-bilinear",
                         seed: Optional[int] = None,
                         budget_seconds: Optional[float] = None) -> AssociativityReport:
    """Check the associativity laws of a structure table.

    Only the exponents are checked: every table shares the target and carry
    arrays of the index monoid, whose associativity does not depend on the
    matrix.

    exact-bilinear: compares the stored exponents against the bilinear form
    of the source matrix on all 625^2 pairs, with linearity witnesses;
    bilinearity implies the cocycle identity on all triples.
    full-triple: evaluates both sides of the cocycle identity
    E(a,b) + E(a+b,c) = E(b,c) + E(a,b+c) on all 625^3 triples, one slab of
    all (a, c) per middle index b; the shifted terms are slices of two tiles
    of E with its rows and columns translated by b mod 25, refilled for each
    of its 25 values from 25 entries of sum_idx, so no slab gathers by
    sum_idx.  It records the first violating triples in (a, b, c) order.
    sampled(n): evaluates n uniformly random triples; requires a seed.
    Slice j, of 2^16 triples (fewer in the last), is by definition the j-th
    integers(0, 625, (3, k), dtype=int32) draw of the seeded stream, read as
    the rows a, b and c; each slice is evaluated on the flat pair codes
    a * 625 + b and b * 625 + c and then dropped, so memory does not grow
    with n.  It records the first violating triples in draw order.
    Every mode decides D = 0 mod 5 for a defect D by the residue rule of
    the module docstring: 51 D + 1 mod 256 is at most 2.
    Full-triple and sampled raise BudgetExceededError once budget_seconds
    have passed, checked before each slab of b or slice of triples.  A
    negative seed and a negative or NaN budget_seconds raise
    PreconditionError.

    Returns a truthy/falsy report carrying the violating triples, if any.
    """
    kind, count = parse_mode(mode)
    if seed is not None and int(seed) < 0:
        raise PreconditionError("seed must be nonnegative, got %r" % (seed,))
    if budget_seconds is not None and not budget_seconds >= 0:
        raise PreconditionError("budget_seconds must be >= 0, got %r" % (budget_seconds,))
    report = AssociativityReport(ok=True, mode=kind, checks=0)
    if kind == "exact-bilinear":
        _verify_exact_bilinear(table, report)
    elif kind == "full-triple":
        _verify_full_triple(table, report, budget_seconds)
    else:
        if seed is None:
            raise PreconditionError("sampled verification requires an explicit seed")
        report.seed = int(seed)
        report.mode = "sampled(%d)" % count
        _verify_sampled(table, count, int(seed), report, budget_seconds)
    return report


# ---------------------------------------------------------------------------
# Frobenius pairing


def frobenius_pairing(table: StructureTable) -> np.ndarray:
    """The (625,) int8 pairing exponents p[a] = E(a, comp a), in 0..4.

    Projecting the product of a and b onto the top component (4,4,4,4,4)
    leaves only b = comp(a), a pair that never carries, so the pairing is
    zeta^{p[a]} at (a, comp a) and zero elsewhere.
    """
    return table.exp[np.arange(625), indices.tables().comp]


def is_symmetric_pairing(table: StructureTable) -> bool:
    """True iff the pairing entry at (a, comp(a)) equals the one at (comp(a), a)
    for all 625 indices; for skew source matrices this is equivalent to all
    row sums being equal mod 5, hence always true on admissible tables."""
    p = frobenius_pairing(table)
    return bool((p == p[indices.tables().comp]).all())


def _pairing_is_perfect() -> bool:
    """True iff the pairing of every table has one nonzero entry per row and
    per column: a + b is the top index, position 624, exactly for b = comp(a),
    comp is a permutation, and no such pair carries."""
    shared, rows = indices.tables(), np.arange(625)
    return bool(np.array_equal(np.flatnonzero(shared.sum_idx == 624), rows * 625 + shared.comp)
                and np.array_equal(np.sort(shared.comp), rows)
                and not shared.carry_code[rows, shared.comp].any())


# ---------------------------------------------------------------------------
# certificate


@dataclass
class CyCertificate:
    source_matrix: QMatrix
    associativity: AssociativityReport
    nondegenerate: bool
    symmetric: bool
    passed: bool
    verdict: str

    def __bool__(self) -> bool:
        return self.passed

    def to_json(self) -> dict:
        return {
            "source_matrix": self.source_matrix.to_json(),
            "associativity": self.associativity.to_json(),
            "nondegenerate": self.nondegenerate,
            "symmetric": self.symmetric,
            "passed": self.passed,
            "verdict": self.verdict,
        }


def cy_certificate(source: Union[QMatrix, StructureTable]) -> CyCertificate:
    """Bundle associativity, pairing nondegeneracy, and pairing symmetry.

    Accepts an admissible matrix (a table is built) or a prebuilt table.
    Associativity failures take precedence in the verdict; a sound table
    with a nondegenerate symmetric pairing satisfies the Calabi-Yau pairing
    criterion.
    """
    table = source if isinstance(source, StructureTable) else build_table(source)
    assoc = verify_associativity(table, "exact-bilinear")
    nondeg, sym = _pairing_is_perfect(), is_symmetric_pairing(table)
    verdict = ("associativity failure" if not assoc.ok else
               "pairing degenerate" if not nondeg else
               "Frobenius, not symmetric" if not sym else
               "Calabi-Yau pairing criterion satisfied")
    return CyCertificate(source_matrix=table.source_matrix, associativity=assoc,
                         nondegenerate=nondeg, symmetric=sym,
                         passed=assoc.ok and nondeg and sym, verdict=verdict)
