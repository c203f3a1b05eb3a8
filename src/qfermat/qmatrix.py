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
permutation, and twisting by a vector v (n_ij -> n_ij + v_i - v_j).  The
orbit machinery uses zero-sum twist generators e_i - e_j, which generate
every twist preserving the row-sum normalization (a raw e_i twist shifts
all row sums and leaves the admissible set).

The headline computation: there are exactly 15625 admissible matrices, 3000
of them generic, and the generic ones form a single orbit, already under
permutations and twists alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, List, Sequence, Set, Tuple

import numpy as np

from .errors import PreconditionError

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
    "classify",
    "ALL_ACTIONS",
]

ALL_ACTIONS = ("scale", "permute", "twist")

# the 10 independent strictly-upper entries, row-major
_PAIRS: Tuple[Tuple[int, int], ...] = (
    (0, 1), (0, 2), (0, 3), (0, 4),
    (1, 2), (1, 3), (1, 4),
    (2, 3), (2, 4), (3, 4),
)

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
        es = tuple(tuple(int(x) % 5 for x in row) for row in rows)
        if len(es) != 5 or any(len(r) != 5 for r in es):
            raise ValueError("a quantum parameter matrix is 5x5")
        self.entries = es

    @classmethod
    def zero(cls) -> "QMatrix":
        return cls([[0] * 5] * 5)

    @classmethod
    def from_upper(cls, upper: Sequence[int]) -> "QMatrix":
        """Skew matrix from the 10 strictly-upper entries, row-major order."""
        u = [int(x) % 5 for x in upper]
        if len(u) != 10:
            raise ValueError("expected 10 upper-triangular entries")
        rows = [[0] * 5 for _ in range(5)]
        for (i, j), v in zip(_PAIRS, u):
            rows[i][j] = v
            rows[j][i] = (-v) % 5
        return cls(rows)

    @classmethod
    def from_array(cls, arr) -> "QMatrix":
        return cls(np.asarray(arr).tolist())

    def as_array(self) -> np.ndarray:
        return np.array(self.entries, dtype=np.int64)

    def upper_entries(self) -> Tuple[int, ...]:
        return tuple(self.entries[i][j] for i, j in _PAIRS)

    def row_sums(self) -> Tuple[int, ...]:
        return tuple(sum(row) % 5 for row in self.entries)

    def flat(self) -> Tuple[int, ...]:
        return tuple(x for row in self.entries for x in row)

    def to_json(self):
        return [list(row) for row in self.entries]

    @classmethod
    def from_json(cls, data) -> "QMatrix":
        return cls(data)

    def __eq__(self, other):
        if isinstance(other, QMatrix):
            return self.entries == other.entries
        return NotImplemented

    def __lt__(self, other: "QMatrix"):
        return self.flat() < other.flat()

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
    a = int(a) % 5
    if a == 0:
        raise PreconditionError("scaling factor must be nonzero mod 5")
    return QMatrix([[(x * a) % 5 for x in row] for row in N.entries])


def act_permute(N, sigma: Sequence[int]) -> QMatrix:
    """Entry (i, j) of the result is n_{sigma(i), sigma(j)}."""
    N = _coerce(N)
    s = tuple(int(x) for x in sigma)
    if sorted(s) != list(range(5)):
        raise PreconditionError("sigma must be a permutation of 0..4")
    e = N.entries
    return QMatrix([[e[s[i]][s[j]] for j in range(5)] for i in range(5)])


def act_twist(N, v: Sequence[int]) -> QMatrix:
    """Entry (i, j) of the result is n_ij + v_i - v_j (a Zhang twist)."""
    N = _coerce(N)
    w = tuple(int(x) % 5 for x in v)
    if len(w) != 5:
        raise PreconditionError("twist vector must have 5 components")
    e = N.entries
    return QMatrix([[(e[i][j] + w[i] - w[j]) % 5 for j in range(5)] for i in range(5)])


# ---------------------------------------------------------------------------
# enumeration

# the six free entries of an admissible matrix, row-major
_FREE_PAIRS: Tuple[Tuple[int, int], ...] = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def _from_free(free: np.ndarray) -> np.ndarray:
    """(m, 6) free entries n01, n02, n03, n12, n13, n23 -> (m, 5, 5) entries in 0..4.

    Skew symmetry fixes the lower triangle and zero row sums fix column 4;
    row 4 then sums to zero by itself, because the row sums of a skew matrix
    add up to zero.  So every result is admissible.
    """
    ent = np.zeros((free.shape[0], 5, 5), dtype=np.int64)
    for p, (i, j) in enumerate(_FREE_PAIRS):
        ent[:, i, j] = free[:, p]
        ent[:, j, i] = -free[:, p]
    ent[:, :4, 4] = -ent[:, :4, :4].sum(axis=2)
    ent[:, 4, :4] = -ent[:, :4, 4]
    return ent % 5


@lru_cache(maxsize=1)
def _enumeration() -> Tuple[Tuple[QMatrix, ...], Tuple[QMatrix, ...]]:
    """(generic, admissible) matrices, each sorted by row-major entries."""
    free = np.indices((5,) * 6).reshape(6, -1).T
    admissible = tuple(QMatrix(m) for m in sorted(_from_free(free).tolist()))
    return tuple(m for m in admissible if is_generic(m)), admissible


def enumerate_generic() -> List[QMatrix]:
    """All admissible and generic matrices, sorted by row-major entries.

    Builds the 5^6 admissible matrices from their six free entries and keeps
    those that pass the 60-triple genericity test; the result is cached, so
    only the first call pays for the construction.
    """
    return list(_enumeration()[0])


def enumerate_admissible() -> List[QMatrix]:
    """All admissible matrices (genericity not required), sorted."""
    return list(_enumeration()[1])


def count_admissible() -> int:
    """Number of admissible matrices (genericity not required)."""
    return len(_enumeration()[1])


def sample_admissible(count: int, seed: int) -> List[QMatrix]:
    """Seeded uniform sample of admissible matrices, drawn by free entries."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    free = np.random.default_rng(seed).integers(0, 5, (count, 6))
    return [QMatrix(m) for m in _from_free(free).tolist()]


# ---------------------------------------------------------------------------
# orbits

# generator moves, precompiled to act on flattened 25-tuples
_PERM_GENS = ((1, 0, 2, 3, 4), (1, 2, 3, 4, 0))
_PERM_MAPS = tuple(
    tuple(5 * s[i] + s[j] for i in range(5) for j in range(5)) for s in _PERM_GENS
)
_TWIST_DELTAS = tuple(
    tuple((v[i] - v[j]) % 5 for i in range(5) for j in range(5))
    for v in (
        tuple(1 if t == a else (-1 % 5) if t == b else 0 for t in range(5))
        for a in range(5) for b in range(5) if a != b
    )
)


def _neighbors(flat: Tuple[int, ...], use_scale: bool, use_permute: bool,
               use_twist: bool):
    if use_scale:
        for a in (2, 3, 4):
            yield tuple((x * a) % 5 for x in flat)
    if use_permute:
        for pm in _PERM_MAPS:
            yield tuple(flat[p] for p in pm)
    if use_twist:
        for d in _TWIST_DELTAS:
            yield tuple((x + y) % 5 for x, y in zip(flat, d))


def _closure(start: Tuple[int, ...], actions: Set[str]) -> Set[Tuple[int, ...]]:
    use_scale = "scale" in actions
    use_permute = "permute" in actions
    use_twist = "twist" in actions
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for f in frontier:
            for g in _neighbors(f, use_scale, use_permute, use_twist):
                if g not in seen:
                    seen.add(g)
                    nxt.append(g)
        frontier = nxt
    return seen


def _check_actions(actions) -> Set[str]:
    acts = set(actions)
    bad = acts - set(ALL_ACTIONS)
    if bad:
        raise PreconditionError("unknown actions: %s" % ", ".join(sorted(bad)))
    return acts


def orbit(N, actions=ALL_ACTIONS) -> Set[QMatrix]:
    """Breadth-first closure of {N} under the selected actions.

    Twisting walks the zero-sum generators e_i - e_j, so every member stays
    admissible; scaling uses all nonzero factors and permutations a
    generating pair, which close up to the same group orbit.
    """
    N = _coerce(N)
    if not is_admissible(N):
        raise PreconditionError("orbit requires an admissible matrix")
    acts = _check_actions(actions)
    flats = _closure(N.flat(), acts)
    return {QMatrix([f[5 * i:5 * i + 5] for i in range(5)]) for f in flats}


def canonical_representative(N, actions=ALL_ACTIONS) -> QMatrix:
    """Lexicographic minimum of the orbit, matrices ordered row-major."""
    return min(orbit(N, actions))


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


def _partition(matrices: List[QMatrix], actions: Set[str]) -> List[Set[Tuple[int, ...]]]:
    remaining = {m.flat() for m in matrices}
    orbits = []
    while remaining:
        start = min(remaining)
        cl = _closure(start, actions)
        assert cl <= remaining, "orbit left the enumerated set"
        orbits.append(cl)
        remaining -= cl
    return orbits


def classify() -> ClassificationReport:
    """Partition the generic matrices into orbits and report the counts."""
    matrices = enumerate_generic()
    full = _partition(matrices, set(ALL_ACTIONS))
    partial = _partition(matrices, {"permute", "twist"})
    reps = sorted(QMatrix([min(o)[5 * i:5 * i + 5] for i in range(5)]) for o in full)
    return ClassificationReport(
        generic_count=len(matrices),
        orbit_count_all_actions=len(full),
        orbit_count_without_scaling=len(partial),
        canonical_representatives=reps,
        admissible_count=count_admissible(),
    )


@lru_cache(maxsize=1)
def canonical_generic_representative() -> QMatrix:
    """Lex-min generic matrix; the canonical base point for downstream runs."""
    return enumerate_generic()[0]
