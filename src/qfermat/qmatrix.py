"""Quantum parameter matrices: admissibility, genericity, group actions, classification.

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
along seven generators: scaling by 2, the permutations (1,0,2,3,4) and
(1,2,3,4,0), and the twists e_0 - e_b for b = 1..4.

The headline computation: there are exactly 15625 admissible matrices, 3000
of them generic, and the generic ones form a single orbit, already under
permutations and twists alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import FrozenSet, Iterable, List, Sequence, Set, Tuple

import numpy as np

from .errors import PreconditionError, as_integer

__all__ = [
    "QMatrix",
    "ClassificationReport",
    "is_admissible",
    "is_generic",
    "act_scale",
    "act_permute",
    "act_twist",
    "enumerate_generic",
    "enumerate_admissible",
    "count_admissible",
    "sample_admissible",
    "orbit",
    "canonical_representative",
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

    def row_sums(self) -> Tuple[int, ...]:
        return tuple(sum(row) % 5 for row in self.entries)

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
    N = _coerce(N)
    e = N.entries
    for i in range(5):
        if e[i][i] != 0:
            return False
        for j in range(i + 1, 5):
            if (e[i][j] + e[j][i]) % 5 != 0:
                return False
    return all(s == 0 for s in N.row_sums())


def is_generic(N) -> bool:
    """n_ij + n_jk != n_ik for all 60 ordered pairwise-distinct triples."""
    N = _coerce(N)
    e = N.entries
    for i, j, k in _TRIPLES:
        if (e[i][j] + e[j][k] - e[i][k]) % 5 == 0:
            return False
    return True


# ---------------------------------------------------------------------------
# actions


def act_scale(N, a: int) -> QMatrix:
    """Multiply every entry by a; a must be invertible mod 5."""
    N = _coerce(N)
    a = as_integer(a, "scaling factors") % 5
    if a == 0:
        raise PreconditionError("scaling factor must be nonzero mod 5")
    return QMatrix([[(x * a) % 5 for x in row] for row in N.entries])


def act_permute(N, sigma: Sequence[int]) -> QMatrix:
    """Entry (i, j) of the result is n_{sigma(i), sigma(j)}."""
    N = _coerce(N)
    s = tuple(as_integer(x, "permutation entries") for x in sigma)
    if sorted(s) != list(range(5)):
        raise PreconditionError("sigma must be a permutation of 0..4")
    e = N.entries
    return QMatrix([[e[s[i]][s[j]] for j in range(5)] for i in range(5)])


def act_twist(N, v: Sequence[int]) -> QMatrix:
    """Entry (i, j) of the result is n_ij + v_i - v_j (a Zhang twist)."""
    N = _coerce(N)
    w = tuple(as_integer(x, "twist components") % 5 for x in v)
    if len(w) != 5:
        raise PreconditionError("twist vector must have 5 components")
    e = N.entries
    return QMatrix([[(e[i][j] + w[i] - w[j]) % 5 for j in range(5)] for i in range(5)])


# ---------------------------------------------------------------------------
# enumeration

# the six free entries of an admissible matrix, row-major
_FREE_PAIRS: Tuple[Tuple[int, int], ...] = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_FREE_ROWS, _FREE_COLS = np.array(_FREE_PAIRS).T
# base-5 place values of the free entries in a code, n01 most significant
_PLACES = 5 ** np.arange(5, -1, -1)


def _from_free(free: np.ndarray) -> np.ndarray:
    """(m, 6) free entries n01, n02, n03, n12, n13, n23 -> (m, 5, 5) int8 entries in 0..4.

    Skew symmetry fixes the lower triangle and zero row sums fix column 4;
    row 4 then sums to zero by itself, because the row sums of a skew matrix
    add up to zero.  So every result is admissible.
    """
    ent = np.zeros((free.shape[0], 5, 5), dtype=np.int8)
    for p, (i, j) in enumerate(_FREE_PAIRS):
        ent[:, i, j] = free[:, p]
        ent[:, j, i] = -free[:, p]
    ent[:, :4, 4] = -ent[:, :4, :4].sum(axis=2)
    ent[:, 4, :4] = -ent[:, :4, 4]
    return ent % 5


@lru_cache(maxsize=1)
def _all_entries() -> np.ndarray:
    """(5^6, 5, 5) entries of every admissible matrix; row c has code c."""
    ent = _from_free(np.indices((5,) * 6).reshape(6, -1).T)
    ent.setflags(write=False)
    return ent


def _reduced(ent: np.ndarray) -> List[QMatrix]:
    """QMatrix objects of (m, 5, 5) entries already in 0..4, without the
    validating constructor."""
    out = []
    for rows in ent.tolist():
        m = object.__new__(QMatrix)
        m.entries = tuple(map(tuple, rows))
        out.append(m)
    return out


def _matrices(codes: np.ndarray) -> List[QMatrix]:
    """The admissible matrices with the given codes, in the order given."""
    return _reduced(_all_entries()[codes])


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
    """All admissible and generic matrices, sorted by row-major entries.

    The generic codes come from one cached array test over all 5^6
    admissible matrices; each call builds QMatrix objects for those only.
    """
    return _matrices(_generic_codes())


def enumerate_admissible() -> List[QMatrix]:
    """All admissible matrices (genericity not required), sorted."""
    return _matrices(np.arange(count_admissible()))


def count_admissible() -> int:
    """Number of admissible matrices (genericity not required)."""
    return len(_all_entries())


def sample_admissible(count: int, seed: int) -> List[QMatrix]:
    """Seeded uniform sample of admissible matrices, drawn by free entries."""
    count = as_integer(count, "sample counts")
    if count < 0:
        raise ValueError("count must be nonnegative")
    free = np.random.default_rng(as_integer(seed, "seeds")).integers(0, 5, (count, 6))
    return _reduced(_from_free(free))


# ---------------------------------------------------------------------------
# orbits


def _check_actions(actions) -> FrozenSet[str]:
    acts = frozenset(actions)
    bad = acts - set(ALL_ACTIONS)
    if bad:
        raise PreconditionError("unknown actions: %s" % ", ".join(sorted(bad)))
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


def _code(N) -> int:
    """The code of an admissible N: its free entries as a base-5 number."""
    N = _coerce(N)
    if not is_admissible(N):
        raise PreconditionError("orbit requires an admissible matrix")
    return sum(N.entries[i][j] * int(w) for (i, j), w in zip(_FREE_PAIRS, _PLACES))


def orbit(N, actions=ALL_ACTIONS) -> Set[QMatrix]:
    """The orbit of an admissible N under the selected actions.

    Twists are the zero-sum ones, so every member stays admissible; scaling
    uses all nonzero factors and permutations all of S_5.
    """
    code = _code(N)
    label = _labels(_check_actions(actions))
    return set(_matrices(np.flatnonzero(label == label[code])))


def canonical_representative(N, actions=ALL_ACTIONS) -> QMatrix:
    """Lexicographic minimum of the orbit, matrices ordered row-major.

    That is the matrix at the orbit's label, its least code, because code
    order is row-major order."""
    code = _code(N)
    return _matrices(_labels(_check_actions(actions))[[code]])[0]


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
