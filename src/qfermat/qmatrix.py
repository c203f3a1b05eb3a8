"""Quantum parameter matrices: admissibility, genericity, orbit classification.

A quantum parameter matrix N holds the exponents n_ij in {0..4} of the
commutation coefficients q_ij = zeta^{n_ij} between the five degree-1
generators.  Admissible means: zero diagonal, skew-symmetric mod 5, and all
row sums 0 mod 5.  The first two conditions make the coefficient system
consistent (q_ii = q_ij q_ji = 1); the zero-row-sum normalization is what
makes the quintic's coefficient pairing symmetric, and every twist class
contains such representatives, so nothing is lost by requiring it.

Generic means maximal noncommutativity: n_ij + n_jk != n_ik for every
ordered triple of pairwise-distinct indices.

Three actions preserve both properties: scaling all entries by a nonzero
constant (changing the chosen primitive root), conjugating by a coordinate
permutation, and twisting by a zero-sum vector v (n_ij -> n_ij + v_i - v_j).

The code of an admissible matrix is its free entries n01, n02, n03, n12,
n13, n23 read as a base-5 number; every other entry is fixed by free entries
before it in row-major order, so code order is row-major order.  All 5^6
matrices live in one int8 array indexed by code, genericity is decided for
every code by one array expression over the 60 triples, and QMatrix objects
are built only for the codes a caller asks for.  Orbits are read from
label[c], the least code in the orbit of code c, which min-propagation finds
along seven generators, each an array of the images of all 5^6 codes:
scaling by 2 (2 generates the units mod 5), the permutations (1,0,2,3,4)
and (1,2,3,4,0) (a transposition and a 5-cycle generate S_5), and the
twists by e_0 - e_b for b = 1..4 (these span the zero-sum vectors).

The headline computation: there are exactly 15625 admissible matrices, 3000
of them generic, and the generic ones form a single orbit, already under
permutations and twists alone.

admissible_matrix is the package's one admissibility gate: tables, table
files and every rewriting entry point pass their matrix through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import FrozenSet, Iterable, List, Tuple

import numpy as np

from .errors import PreconditionError, as_integer

__all__ = [
    "QMatrix",
    "ClassificationReport",
    "is_admissible",
    "admissible_matrix",
    "enumerate_generic",
    "count_admissible",
    "canonical_generic_representative",
    "orbit_representatives",
    "classify",
    "ALL_ACTIONS",
]

ALL_ACTIONS = ("scale", "permute", "twist")

_TRIPLES: Tuple[Tuple[int, int, int], ...] = tuple(
    (i, j, k)
    for i in range(5) for j in range(5) for k in range(5)
    if i != j and j != k and i != k
)
assert len(_TRIPLES) == 60


class QMatrix:
    """Immutable 5x5 exponent matrix with entries reduced into {0..4}."""

    __slots__ = ("entries",)

    def __init__(self, rows: Iterable[Iterable[int]]):
        es = tuple(tuple(as_integer(x, "matrix entries") % 5 for x in row) for row in rows)
        if len(es) != 5 or any(len(r) != 5 for r in es):
            raise ValueError("a quantum parameter matrix is 5x5")
        self.entries = es

    def to_json(self):
        return [list(row) for row in self.entries]

    def __eq__(self, other):
        if isinstance(other, QMatrix):
            return self.entries == other.entries
        return NotImplemented

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return "QMatrix(%r)" % (self.to_json(),)


def _coerce(N) -> QMatrix:
    return N if isinstance(N, QMatrix) else QMatrix(N)


def is_admissible(N) -> bool:
    """Zero diagonal, skew-symmetric mod 5, and every row sum 0 mod 5."""
    return _admissible_entries(_coerce(N).entries)


# rewriting asks the gate thousands of times per job about a few matrices
@lru_cache(maxsize=16)
def _admissible_entries(e: Tuple[Tuple[int, ...], ...]) -> bool:
    return (all(e[i][i] == 0 and sum(e[i]) % 5 == 0 for i in range(5))
            and all((e[i][j] + e[j][i]) % 5 == 0 for i in range(5) for j in range(i)))


def admissible_matrix(N) -> QMatrix:
    """N as a QMatrix, coerced as is_admissible reads it; a matrix that is
    not admissible raises PreconditionError."""
    N = _coerce(N)
    if not _admissible_entries(N.entries):
        raise PreconditionError("the matrix is not admissible: it needs a zero diagonal, "
                                "skew symmetry and zero row sums mod 5")
    return N


# ---------------------------------------------------------------------------
# enumeration

# the six free entries of an admissible matrix, row-major
_FREE_PAIRS: Tuple[Tuple[int, int], ...] = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_FREE_ROWS, _FREE_COLS = np.array(_FREE_PAIRS).T
# base-5 place values of the free entries in a code, n01 most significant
_PLACES = 5 ** np.arange(5, -1, -1)


@lru_cache(maxsize=1)
def _all_entries() -> np.ndarray:
    """(5^6, 5, 5) int8 entries in 0..4 of every admissible matrix; row c has code c.

    The free entries n01, n02, n03, n12, n13, n23 of row c are the base-5
    digits of c.  Skew symmetry fixes the lower triangle and zero row sums
    fix column 4; row 4 then sums to zero by itself, because the row sums of
    a skew matrix add up to zero.  So every row is admissible.
    """
    free = np.indices((5,) * 6).reshape(6, -1)
    ent = np.zeros((5 ** 6, 5, 5), dtype=np.int8)
    for (i, j), f in zip(_FREE_PAIRS, free):
        ent[:, i, j] = f
        ent[:, j, i] = -f
    ent[:, :4, 4] = -ent[:, :4, :4].sum(axis=2)
    ent[:, 4, :4] = -ent[:, :4, 4]
    ent %= 5
    ent.setflags(write=False)
    return ent


def _matrices(codes: np.ndarray) -> List[QMatrix]:
    """The admissible matrices with the given codes, in the order given, built
    without the validating constructor: their entries are already in 0..4."""
    out = []
    for rows in _all_entries()[codes].tolist():
        m = object.__new__(QMatrix)
        m.entries = tuple(map(tuple, rows))
        out.append(m)
    return out


@lru_cache(maxsize=1)
def _generic_codes() -> np.ndarray:
    """Codes of the generic admissible matrices, ascending.

    One int8 expression over all 5^6 matrices and the 60 triples: the value
    n_ij + n_jk - n_ik lies in [-4, 8], so it is 0 mod 5 exactly when it is
    0 or 5.
    """
    ent = _all_entries()
    i, j, k = np.array(_TRIPLES).T
    d = ent[:, i, j] + ent[:, j, k] - ent[:, i, k]
    codes = np.flatnonzero(((d != 0) & (d != 5)).all(axis=1))
    codes.setflags(write=False)
    return codes


def enumerate_generic() -> List[QMatrix]:
    """All admissible and generic matrices, sorted by row-major entries; no
    command calls it, but the traced benchmark wraps it by name (_TRACED in
    perfbench/worker.py), and it can go when that list drops it."""
    return _matrices(_generic_codes())


def count_admissible() -> int:
    """Number of admissible matrices (genericity not required)."""
    return len(_all_entries())


# ---------------------------------------------------------------------------
# orbits


def _check_actions(actions) -> FrozenSet[str]:
    try:  # a str is a collection of its characters, not of names: refuse it too
        acts = frozenset(None if isinstance(actions, str) else actions)
    except TypeError:  # not iterable, or holding an unhashable name
        raise PreconditionError(
            "actions must be a collection of names, got %r" % (actions,)) from None
    bad = acts - set(ALL_ACTIONS)
    if bad:
        raise PreconditionError("unknown actions: %s" % ", ".join(sorted(map(str, bad))))
    return acts


def _generator_images(actions: FrozenSet[str]):
    """Each generator's image of every admissible matrix, as its six free
    entries (not yet reduced mod 5), one array at a time."""
    ent = _all_entries()
    free = ent[:, _FREE_ROWS, _FREE_COLS]
    if "scale" in actions:
        yield 2 * free
    if "permute" in actions:
        for s in ((1, 0, 2, 3, 4), (1, 2, 3, 4, 0)):
            s = np.array(s)
            yield ent[:, s[_FREE_ROWS], s[_FREE_COLS]]
    if "twist" in actions:
        unit = np.eye(5, dtype=np.int8)
        for v in unit[0] - unit[1:]:
            yield free + (v[_FREE_ROWS] - v[_FREE_COLS])


@lru_cache(maxsize=None)
def _labels(actions: FrozenSet[str]) -> np.ndarray:
    """label[c] is the least code in the orbit of code c under the actions.

    A round lowers each label to that of every generator image and then to
    the label of the label; at the fixed point labels are constant on orbits.
    """
    images = [(g % 5) @ _PLACES for g in _generator_images(actions)]
    label = np.arange(5 ** 6)
    while True:
        prev = label
        for image in images:
            label = np.minimum(label, label[image])
        label = label[label]
        if np.array_equal(label, prev):
            label.setflags(write=False)
            return label


def orbit_representatives(actions=ALL_ACTIONS) -> List[QMatrix]:
    """Least member of each orbit of the generic matrices, sorted row-major.

    One matrix per orbit under the selected actions, so the length of the
    list is the orbit count.  A label is the least code of its orbit, so the
    representatives are the generic codes that are their own label.  Checks
    that the generic matrices are a union of orbits: exactly the generic
    codes share a label with a generic code.
    """
    label = _labels(_check_actions(actions))
    generic = _generic_codes()
    in_generic_orbit = np.flatnonzero(np.isin(label, label[generic]))
    assert np.array_equal(in_generic_orbit, generic), "orbit left the generic set"
    return _matrices(generic[label[generic] == generic])


@dataclass
class ClassificationReport:
    generic_count: int
    orbit_count_all_actions: int
    orbit_count_without_scaling: int
    canonical_representatives: List[QMatrix]
    admissible_count: int

    def to_json(self):
        return {
            "generic_count": self.generic_count,
            "orbit_count_all_actions": self.orbit_count_all_actions,
            "orbit_count_without_scaling": self.orbit_count_without_scaling,
            "canonical_representatives": [m.to_json() for m in self.canonical_representatives],
            "admissible_count": self.admissible_count,
        }


def classify() -> ClassificationReport:
    """Partition the generic matrices into orbits and report the counts."""
    reps = orbit_representatives(ALL_ACTIONS)
    return ClassificationReport(
        generic_count=len(_generic_codes()),
        orbit_count_all_actions=len(reps),
        orbit_count_without_scaling=len(orbit_representatives({"permute", "twist"})),
        canonical_representatives=reps,
        admissible_count=count_admissible(),
    )


@lru_cache(maxsize=1)
def canonical_generic_representative() -> QMatrix:
    """Lex-min generic matrix; the canonical base point for downstream runs."""
    return _matrices(_generic_codes()[:1])[0]
