"""Reference answers for the benchmark, computed without importing qfermat.

Everything here follows the definitions of the paper directly, so that a
fault in the program cannot hide behind the same fault in its check:

  - admissible matrices are built from their six free entries and tested for
    genericity with the 60-triple rule;
  - the structure table is E(a,b) = sum_{i>j} n_ij a_i b_j mod 5 with the
    digitwise target and carry flags;
  - fiber centers use the commutator test on basis vectors, fiber radicals
    the diagonal of the trace form summed in the group ring Z[C5], where an
    element is zero in Z[zeta_5] exactly when its five coordinates agree;
  - normal forms of words with fewer than five t0 letters are one monomial
    with coefficient zeta^(inversion sum).
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Sequence, Tuple

import numpy as np

# the lex-min generic admissible matrix, the base point of every workload
MATRIX_N = ((0, 0, 0, 0, 0),
            (0, 0, 1, 1, 3),
            (0, 4, 0, 2, 4),
            (0, 4, 3, 0, 3),
            (0, 2, 1, 2, 0))

_TRIPLES = [(i, j, k) for i in range(5) for j in range(5) for k in range(5)
            if len({i, j, k}) == 3]


# ---------------------------------------------------------------------------
# parameter matrices


def admissible_matrices() -> List[Tuple[Tuple[int, ...], ...]]:
    """All admissible matrices, from the free entries n01 n02 n03 n12 n13 n23.

    Zero row sums fix column 4; row 4 then sums to zero because the row sums
    of a skew matrix add up to zero.  Each matrix is checked anyway."""
    out = []
    for n01, n02, n03, n12, n13, n23 in itertools.product(range(5), repeat=6):
        m = [[0] * 5 for _ in range(5)]
        for (i, j), v in (((0, 1), n01), ((0, 2), n02), ((0, 3), n03),
                          ((1, 2), n12), ((1, 3), n13), ((2, 3), n23)):
            m[i][j] = v
            m[j][i] = -v % 5
        for i in range(4):
            m[i][4] = -sum(m[i][:4]) % 5
            m[4][i] = -m[i][4] % 5
        if any(sum(row) % 5 for row in m):
            raise AssertionError("row sums of %r" % (m,))
        out.append(tuple(tuple(row) for row in m))
    return out


def is_generic(m) -> bool:
    return all((m[i][j] + m[j][k] - m[i][k]) % 5 for i, j, k in _TRIPLES)


def standard_monomial_count(n: int) -> int:
    """Monomials t0^e0 ... t4^e4 of degree n with e0 < 5, by enumeration."""
    return sum(1 for e in itertools.product(range(n + 1), repeat=4)
               if sum(e) <= n and n - sum(e) < 5)


def classification_facts() -> dict:
    adm = admissible_matrices()
    gen = sorted(m for m in adm if is_generic(m))
    return {
        "admissible_count": len(adm),
        "generic_count": len(gen),
        "lexmin_generic": [list(r) for r in gen[0]],
        "graded": {n: standard_monomial_count(n) for n in range(16)},
    }


# ---------------------------------------------------------------------------
# structure table


def index_set() -> np.ndarray:
    """The 625 digit vectors with digit sum divisible by 5, as a (625, 5) array."""
    rows = [d for d in itertools.product(range(5), repeat=5) if sum(d) % 5 == 0]
    return np.array(rows, dtype=np.int64)


def table_entry(a: Sequence[int], b: Sequence[int], m=MATRIX_N):
    """(E(a,b), carry flags, target digits) straight from the definition."""
    e = sum(m[i][j] * a[i] * b[j] for i in range(5) for j in range(i)) % 5
    carry = [a[i] + b[i] >= 5 for i in range(5)]
    target = [(a[i] + b[i]) % 5 for i in range(5)]
    return e, carry, target


def _exponents(left: np.ndarray, right: np.ndarray, m=MATRIX_N) -> np.ndarray:
    """E over broadcast digit arrays (..., 5)."""
    lower = np.tril(np.array(m, dtype=np.int64), -1)
    return np.einsum("...i,ij,...j->...", left, lower, right) % 5


# ---------------------------------------------------------------------------
# fiber algebras over the group ring Z[C5]


def ring(*coords: int) -> np.ndarray:
    """An element sum_k c_k zeta^k of Z[C5], as five integer coordinates."""
    out = np.zeros(5, dtype=object)
    out[:len(coords)] = [int(c) for c in coords]
    return out


def _ring_mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = np.zeros(5, dtype=object)
    for i in range(5):
        for j in range(5):
            out[(i + j) % 5] += x[i] * y[j]
    return out


def _is_zero(x: np.ndarray) -> bool:
    return all(v == x[0] for v in x)


def fiber_dims(point: Sequence, m=MATRIX_N) -> Tuple[int, int]:
    """(center dimension, radical dimension) of the fiber at an integral point.

    point holds five integers or five Z[C5] elements (see ring); a rational
    point is rescaled to integers first, which is an isomorphism of fibers.
    """
    x = [p if isinstance(p, np.ndarray) else ring(p) for p in point]
    if not _is_zero(sum(x)):
        raise ValueError("point is not on the hyperplane")
    idx = index_set()
    a = idx[:, None, :]
    c = idx[None, :, :]
    # e_a e_b = zeta^E(a,b) x^carry(a,b) e_{a+b}; carry monomials are
    # symmetric in a and b, so e_a is central iff E(a,b) = E(b,a) wherever
    # the monomial survives
    support = np.array([not _is_zero(v) for v in x])
    alive = ~((a + c >= 5) & ~support).any(axis=2)
    commute = (_exponents(a, c, m) == _exponents(c, a, m)) | ~alive
    center = int(commute.all(axis=1).sum())
    # trace(L_a L_{-a}) = sum_c coeff(-a, c) coeff(a, c - a)
    neg = (-a) % 5
    c_minus_a = (c - a) % 5
    k = (_exponents(neg, c, m) + _exponents(a, c_minus_a, m)) % 5
    powers = (neg + c >= 5).astype(np.int64) + (a + c_minus_a >= 5).astype(np.int64)
    code = (powers * 3 ** np.arange(5)).sum(axis=2)
    # group the 625 x 625 terms by (monomial, root) before any ring arithmetic
    counts = np.zeros((625, 3 ** 5, 5), dtype=np.int64)
    np.add.at(counts, (np.arange(625)[:, None], code, k), 1)
    monomials = {}
    for cd in np.unique(code):
        val = ring(1)
        for i in range(5):
            for _ in range(cd // 3 ** i % 3):
                val = _ring_mul(val, x[i])
        monomials[int(cd)] = val
    radical = 0
    for row in counts:
        total = ring()
        for cd, r in zip(*np.nonzero(row)):
            total += np.roll(monomials[int(cd)], int(r)) * int(row[cd, r])
        radical += _is_zero(total)
    return center, radical


# ---------------------------------------------------------------------------
# rewriting


def root_json(k: int) -> List[str]:
    """zeta^k on the basis 1, z, z^2, z^3, as qfermat writes field elements."""
    k %= 5
    if k == 4:
        return ["-1", "-1", "-1", "-1"]
    return ["1" if i == k else "0" for i in range(4)]


def word_normal_form(word: Sequence[int], m=MATRIX_N) -> List[Dict]:
    """Normal form of a word with fewer than five t0 letters."""
    if list(word).count(0) >= 5:
        raise ValueError("the quintic relation applies to this word")
    inversions = sum(m[word[p]][word[q]] for q in range(len(word))
                     for p in range(q) if word[p] > word[q])
    counts = [list(word).count(i) for i in range(5)]
    return [{"monomial": counts, "coeff": root_json(inversions)}]
