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
general field product: multiply applies a coefficient +-zeta^k as a rotation
and a sign, and the random-schedule reducer holds each term as a coefficient
and a pending power of zeta.  That reducer takes one rng.integers(n) draw
per pick; numpy draws nothing for a pick with one choice, so skipping it
leaves the seeded stream unchanged.

Every entry point that takes a matrix passes it through the package's one
admissibility gate, qmatrix.admissible_matrix.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import Dict, Optional, Sequence, Tuple

from .cyclotomic import CycNum, ONE, ZERO, root_power
from .errors import PreconditionError, as_integer
from .qmatrix import QMatrix, admissible_matrix

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
    m = tuple(as_integer(x, "monomial exponents") for x in e)
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
    def _standard(cls, terms: Dict[Monomial, CycNum]) -> "AlgElement":
        """Wrap terms already in standard form, without re-validating them."""
        el = cls.__new__(cls)
        el.terms = terms
        return el

    @classmethod
    def generator(cls, i: int) -> "AlgElement":
        """t_i, for an index i read by the rule of word letters."""
        (i,) = _check_word((i,))
        e = [0] * 5
        e[i] = 1
        return cls({tuple(e): ONE})

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self.terms}
        return len(degrees) <= 1

    def __add__(self, other: "AlgElement") -> "AlgElement":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, ZERO) + c
        return AlgElement(out)

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


def _check_word(w: Sequence[int]) -> Tuple[int, ...]:
    # one pass: normal_form checks every word it reduces
    word = []
    for x in w:
        if type(x) is not int:
            x = as_integer(x, "word letters")
        if not 0 <= x <= 4:
            raise ValueError("word letters must be generator indices in 0..4: %r" % (w,))
        word.append(x)
    return tuple(word)


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
    entries = admissible_matrix(N).entries
    s = 0
    counts = [0] * 5
    # each letter j meets every larger letter i seen before it: inversions
    # by counts, O(5n) in the word length
    for j in _check_word(w):
        for i in range(j + 1, 5):
            s += counts[i] * entries[i][j]
        counts[j] += 1
    s %= 5
    return AlgElement._standard(
        {m: _signed_root(s, c) for m, c in _eliminate_t0(tuple(counts))})


# +-zeta^k by integer coordinates, to (k, sign): a product with one is a rotation
_UNITS = {tuple(int(x) for x in (root_power(k) * sign).coeffs): (k, sign)
          for k in range(5) for sign in (1, -1)}


def _unit(c: CycNum) -> Optional[Tuple[int, int]]:
    """(k, sign) if c is sign * zeta^k, else None; keyed by numerators, since
    hashing a Fraction costs a modular inverse."""
    w, x, y, z = c.coeffs
    if w.denominator == x.denominator == y.denominator == z.denominator == 1:
        return _UNITS.get((w.numerator, x.numerator, y.numerator, z.numerator))
    return None


def multiply(x: AlgElement, y: AlgElement, N: QMatrix) -> AlgElement:
    """Product in the algebra, bilinear over the standard monomials."""
    entries = admissible_matrix(N).entries
    ys = [(f, d, _unit(d)) for f, d in y.terms.items()]
    acc: Dict[Monomial, CycNum] = {}
    for e, c in x.terms.items():
        cu = _unit(c)
        for f, d, du in ys:
            s = _cross_exponent(e, f, entries)
            if cu is not None:
                coeff, unit = d.times_root(cu[0] + s), cu[1]
            elif du is not None:
                coeff, unit = c.times_root(du[0] + s), du[1]
            else:
                coeff, unit = (c * d).times_root(s), 1
            g = (e[0] + f[0], e[1] + f[1], e[2] + f[2], e[3] + f[3], e[4] + f[4])
            for m, sign in _eliminate_t0(g):
                sign *= unit
                val = coeff if sign == 1 else -coeff if sign == -1 else coeff * sign
                prev = acc.get(m)
                acc[m] = val if prev is None else prev + val
    return AlgElement._standard({m: c for m, c in acc.items() if c})


def is_central(x: AlgElement, N: QMatrix) -> bool:
    """True iff x commutes with every generator, exactly.

    Requires x homogeneous (degree-mixed input raises)."""
    N = admissible_matrix(N)
    if not x.is_homogeneous():
        raise PreconditionError("is_central requires a homogeneous element")
    for i in range(5):
        t = AlgElement.generator(i)
        if multiply(x, t, N) != multiply(t, x, N):
            return False
    return True


def graded_dimension(n: int) -> int:
    """Number of standard monomials of total degree n.

    The count does not depend on the parameter matrix: the q-parameters
    deform the product, not the basis.
    """
    n = as_integer(n, "degrees")
    if n < 0:
        raise PreconditionError("degree must be nonnegative")
    return sum(comb(n - e0 + 3, 3) for e0 in range(min(4, n) + 1))


# ---------------------------------------------------------------------------
# randomized-schedule reference reducer (confluence witness)


def _word_moves(word: Tuple[int, ...]) -> Tuple[Tuple[str, int], ...]:
    """All applicable reducing moves: strict descents and t_0^5 runs."""
    moves = [("swap", p) for p, (a, b) in enumerate(zip(word, word[1:])) if a > b]
    if word.count(0) >= 5:
        moves += [("quintic", p) for p in range(len(word) - 4) if word[p:p + 5] == (0,) * 5]
    return tuple(moves)


def _pick(rng, n: int) -> int:
    # integers(1) draws nothing from the stream, so skipping it changes no draw
    return int(rng.integers(n)) if n > 1 else 0


def normal_form_random_schedule(w: Sequence[int], N: QMatrix, rng) -> AlgElement:
    """Reduce a word by applying relations in a random order.

    Reference implementation for confluence testing: repeatedly picks a
    random applicable move (an adjacent descent swap or a quintic
    substitution at any run of five t_0 letters) on a random unreduced
    term.  Terminates because every move lowers (zero count, inversions)
    lexicographically.  Must agree with normal_form exactly.

    Each pick is one rng.integers(n) draw, the term first, then its move;
    a pick with one choice draws nothing and is skipped.  A term is held as
    (base, k, moves) for the coefficient base * zeta^k, so a swap only adds
    to k; coefficients are rotated where two words meet and at the end.
    """
    entries = admissible_matrix(N).entries
    word = _check_word(w)
    state = {word: (ONE, 0, _word_moves(word))}
    while True:
        pending = sorted(v for v, term in state.items() if term[2])
        if not pending:
            break
        word = pending[_pick(rng, len(pending))]
        base, k, moves = state.pop(word)
        kind, p = moves[_pick(rng, len(moves))]
        if kind == "swap":
            i, j = word[p], word[p + 1]
            moved = [(word[:p] + (j, i) + word[p + 2:], base, k + entries[i][j])]
        else:
            neg = -base
            moved = [(word[:p] + (i,) * 5 + word[p + 5:], neg, k) for i in range(1, 5)]
        for new, base, k in moved:
            prev = state.pop(new, None)
            if prev is None:
                state[new] = (base, k, _word_moves(new))
            elif total := prev[0].times_root(prev[1]) + base.times_root(k):
                state[new] = (total, 0, prev[2])
    # a word without moves is sorted, so it is its own monomial
    return AlgElement({tuple(map(word.count, range(5))): base.times_root(k)
                       for word, (base, k, _) in state.items()})
