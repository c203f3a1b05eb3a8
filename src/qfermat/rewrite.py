"""Normal-form rewriting for the q-commuting quintic algebra.

Elements live in the graded algebra on five degree-1 generators t_0..t_4
subject to the q-commutation relations t_i t_j = zeta^{n_ij} t_j t_i and the
central quintic relation t_0^5 + ... + t_4^5 = 0, with exponents n_ij taken
from an admissible matrix.  The standard monomial basis is
t_0^{e_0} t_1^{e_1} ... t_4^{e_4} with e_0 <= 4: the quintic relation is
spent eliminating fifth powers of t_0.

Reduction is two-phase.  Phase one sorts the letters of a word into
nondecreasing order, collecting one factor zeta^{n_ij} per adjacent swap of
i past j with i > j; the total is the inversion sum of the word, so it can
be read off without actually bubble-sorting.  Phase two replaces t_0^5 by
-(t_1^5 + t_2^5 + t_3^5 + t_4^5) until e_0 <= 4; fifth powers are central
(zeta^{5 n_ij} = 1), so t_0^{5k} expands by the multinomial theorem in one
step, and no commutation scalars appear in this phase, only integers.

Phase one therefore yields one root of unity zeta^s, and phase two one
integer coefficient per output monomial; normal_form takes their products
zeta^s * sign from a small cache.  Wherever a coefficient meets a root of
unity, CycNum.times_root rotates its coordinates instead of running the
general field product, and multiply applies a sign of +1 or -1 as identity
or negation, any other integer by ordinary scaling.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import Dict, Optional, Sequence, Tuple

from .cyclotomic import CycNum, ONE, ZERO, root_power
from .errors import PreconditionError
from .qmatrix import QMatrix, is_admissible

__all__ = [
    "AlgElement",
    "normal_form",
    "multiply",
    "is_central",
    "graded_dimension",
    "normal_form_random_schedule",
]

Monomial = Tuple[int, int, int, int, int]


def _check_monomial(e) -> Monomial:
    m = tuple(int(x) for x in e)
    if len(m) != 5 or any(x < 0 for x in m):
        raise ValueError("monomial exponents must be 5 nonnegative integers: %r" % (e,))
    if m[0] > 4:
        raise ValueError("standard monomials have e_0 <= 4: %r" % (m,))
    return m


class AlgElement:
    """Finite sum of standard monomials with field coefficients.

    terms maps exponent 5-tuples (e_0 <= 4) to nonzero CycNum coefficients.
    Immutable by convention.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Dict[Monomial, CycNum]] = None):
        cleaned: Dict[Monomial, CycNum] = {}
        for e, c in (terms or {}).items():
            if not isinstance(c, CycNum):
                c = CycNum((c, 0, 0, 0))
            if c:
                cleaned[_check_monomial(e)] = c
        self.terms = cleaned

    @classmethod
    def zero(cls) -> "AlgElement":
        return cls()

    @classmethod
    def one(cls) -> "AlgElement":
        return cls({(0, 0, 0, 0, 0): ONE})

    @classmethod
    def monomial(cls, e, coeff=ONE) -> "AlgElement":
        return cls({tuple(e): coeff})

    @classmethod
    def generator(cls, i: int) -> "AlgElement":
        if not 0 <= i <= 4:
            raise ValueError("generator index must lie in 0..4")
        e = [0] * 5
        e[i] = 1
        return cls({tuple(e): ONE})

    def coefficient(self, e) -> CycNum:
        return self.terms.get(tuple(int(x) for x in e), ZERO)

    def is_zero(self) -> bool:
        return not self.terms

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self.terms}
        return len(degrees) <= 1

    def degree(self) -> Optional[int]:
        """Common total degree, None for the zero element, error if mixed."""
        degrees = {sum(e) for e in self.terms}
        if not degrees:
            return None
        if len(degrees) > 1:
            raise ValueError("element is not homogeneous: degrees %s" % sorted(degrees))
        return degrees.pop()

    def __add__(self, other: "AlgElement") -> "AlgElement":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, ZERO) + c
        return AlgElement(out)

    def __sub__(self, other: "AlgElement") -> "AlgElement":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, ZERO) - c
        return AlgElement(out)

    def __neg__(self) -> "AlgElement":
        return AlgElement({e: -c for e, c in self.terms.items()})

    def scale(self, scalar) -> "AlgElement":
        return AlgElement({e: c * scalar for e, c in self.terms.items()})

    def __eq__(self, other):
        if isinstance(other, AlgElement):
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    def to_json(self):
        return [
            {"monomial": list(e), "coeff": c.to_json()}
            for e, c in sorted(self.terms.items())
        ]

    def __repr__(self):
        return "AlgElement(%r)" % (self.terms,)


def _check_matrix(N: QMatrix) -> QMatrix:
    if not isinstance(N, QMatrix):
        N = QMatrix(N)
    if not is_admissible(N):
        raise PreconditionError("rewriting requires an admissible matrix")
    return N


def _check_word(w: Sequence[int]) -> Tuple[int, ...]:
    word = tuple(int(x) for x in w)
    if any(x < 0 or x > 4 for x in word):
        raise ValueError("word letters must be generator indices in 0..4: %r" % (w,))
    return word


@lru_cache(maxsize=1024)
def _signed_root(s: int, sign: int) -> CycNum:
    """zeta^s * sign for an exponent s in 0..4 and an integer sign."""
    return root_power(s) * sign


@lru_cache(maxsize=4096)
def _eliminate_t0(e: Monomial) -> Tuple[Tuple[Monomial, int], ...]:
    """Expand fifth powers of t_0 into the other generators.

    Returns (monomial, integer coefficient) pairs in sorted order.  Fifth
    powers are central, so for e_0 = 5k + r the multinomial theorem gives
    t^e = sum over k_1 + ... + k_4 = k of (-1)^k k!/(k_1! ... k_4!)
    t^(r, e_1 + 5k_1, ..., e_4 + 5k_4), one term per output monomial.
    """
    k, r = divmod(e[0], 5)
    sign = -1 if k % 2 else 1
    out = []
    # (k_1, k_2, k_3) ascending is the lex order of the monomials
    for k1 in range(k + 1):
        c1 = sign * comb(k, k1)
        for k2 in range(k - k1 + 1):
            c2 = c1 * comb(k - k1, k2)
            for k3 in range(k - k1 - k2 + 1):
                k4 = k - k1 - k2 - k3
                m = (r, e[1] + 5 * k1, e[2] + 5 * k2, e[3] + 5 * k3, e[4] + 5 * k4)
                out.append((m, c2 * comb(k3 + k4, k3)))
    return tuple(out)


def _cross_exponent(e: Sequence[int], f: Sequence[int], entries) -> int:
    """Inversion sum for t^e times t^f: sum over a > b of n_ab e_a f_b."""
    s = 0
    for a in range(1, 5):
        ea = e[a]
        if not ea:
            continue
        row = entries[a]
        for b in range(a):
            fb = f[b]
            if fb:
                s += row[b] * ea * fb
    return s % 5


def normal_form(w: Sequence[int], N: QMatrix) -> AlgElement:
    """Reduce a word (sequence of generator indices) to the standard basis.

    The result equals the word's product in the algebra: phase one collects
    zeta^{n_ij} for every inversion of the word, phase two eliminates fifth
    powers of t_0 through the quintic relation.
    """
    N = _check_matrix(N)
    word = _check_word(w)
    entries = N.entries
    s = 0
    counts = [0] * 5
    for q in range(len(word)):
        wq = word[q]
        for p in range(q):
            if word[p] > wq:
                s += entries[word[p]][wq]
        counts[wq] += 1
    s %= 5
    return AlgElement({m: _signed_root(s, c) for m, c in _eliminate_t0(tuple(counts))})


def multiply(x: AlgElement, y: AlgElement, N: QMatrix) -> AlgElement:
    """Product in the algebra, bilinear over the standard monomials."""
    N = _check_matrix(N)
    entries = N.entries
    acc: Dict[Monomial, CycNum] = {}
    for e, c in x.terms.items():
        for f, d in y.terms.items():
            coeff = (c * d).times_root(_cross_exponent(e, f, entries))
            g = tuple(a + b for a, b in zip(e, f))
            for m, sign in _eliminate_t0(g):
                prev = acc.get(m)
                val = coeff if sign == 1 else -coeff if sign == -1 else coeff * sign
                acc[m] = val if prev is None else prev + val
    return AlgElement(acc)


def is_central(x: AlgElement, N: QMatrix) -> bool:
    """True iff x commutes with every generator, exactly.

    Requires x homogeneous (degree-mixed input raises)."""
    N = _check_matrix(N)
    if not x.is_homogeneous():
        raise PreconditionError("is_central requires a homogeneous element")
    for i in range(5):
        t = AlgElement.generator(i)
        if multiply(x, t, N) != multiply(t, x, N):
            return False
    return True


def graded_dimension(n: int, N: Optional[QMatrix] = None) -> int:
    """Number of standard monomials of total degree n.

    The count does not depend on the parameter matrix (the q-parameters
    deform the product, not the basis); N is accepted for signature
    compatibility and validated when provided.
    """
    n = int(n)
    if n < 0:
        raise PreconditionError("degree must be nonnegative")
    if N is not None:
        _check_matrix(N)
    return sum(comb(n - e0 + 3, 3) for e0 in range(min(4, n) + 1))


# ---------------------------------------------------------------------------
# randomized-schedule reference reducer (confluence witness)


@lru_cache(maxsize=4096)
def _word_moves(word: Tuple[int, ...]) -> Tuple[Tuple[str, int], ...]:
    """All applicable reducing moves: strict descents and t_0^5 runs."""
    moves = []
    for p in range(len(word) - 1):
        if word[p] > word[p + 1]:
            moves.append(("swap", p))
    run = 0
    for p, letter in enumerate(word):
        run = run + 1 if letter == 0 else 0
        if run >= 5:
            moves.append(("quintic", p - 4))
    return tuple(moves)


def normal_form_random_schedule(w: Sequence[int], N: QMatrix, rng) -> AlgElement:
    """Reduce a word by applying relations in a random order.

    Reference implementation for confluence testing: repeatedly picks a
    random applicable move (an adjacent descent swap or a quintic
    substitution at any run of five t_0 letters) on a random unreduced
    term.  Terminates because every move lowers (zero count, inversions)
    lexicographically.  Must agree with normal_form exactly.
    """
    N = _check_matrix(N)
    entries = N.entries
    state: Dict[Tuple[int, ...], CycNum] = {_check_word(w): ONE}
    while True:
        pending = [(word, _word_moves(word)) for word in sorted(state)]
        pending = [(word, moves) for word, moves in pending if moves]
        if not pending:
            break
        word, moves = pending[int(rng.integers(len(pending)))]
        kind, p = moves[int(rng.integers(len(moves)))]
        coeff = state.pop(word)
        if kind == "swap":
            i, j = word[p], word[p + 1]
            moved = [(word[:p] + (j, i) + word[p + 2:], coeff.times_root(entries[i][j]))]
        else:
            neg = -coeff
            moved = [(word[:p] + (k,) * 5 + word[p + 5:], neg) for k in range(1, 5)]
        for new, add in moved:
            prev = state.get(new)
            total = add if prev is None else prev + add
            if total:
                state[new] = total
            elif new in state:
                del state[new]
    acc: Dict[Monomial, CycNum] = {}
    for word, coeff in state.items():
        counts = [0] * 5
        for letter in word:
            counts[letter] += 1
        m = tuple(counts)
        prev = acc.get(m)
        acc[m] = coeff if prev is None else prev + coeff
    return AlgElement(acc)
