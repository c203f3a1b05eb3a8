"""Hilbert polynomials and twisted-sheaf cohomology over projective 3-space.

The 625-dimensional coordinate algebra is a sheaf of algebras over the
projective 3-space cut out by its degree-five center, and it decomposes as
a direct sum of line bundles: one summand O(-w) for each basis index of
weight w, so the multiplicities are the weight histogram 1, 121, 381, 121,
1 at twists 0, -1, -2, -3, -4.  Everything here is exact rational
arithmetic: Hilbert polynomials carry Fraction coefficients, and the
cohomology of O(d) on P^3 comes from the closed forms

    h^0(O(d)) = C(d+3, 3)        h^3(O(d)) = C(-d-1, 3)      h^1 = h^2 = 0

with C(n, 3) = 0 for n < 3.  The Euler characteristic is the single cubic
polynomial (d+1)(d+2)(d+3)/6, valid at every integer d.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Dict, Iterable, List, Sequence, Tuple

from . import indices
from .errors import PreconditionError

__all__ = [
    "RatPolynomial",
    "TwistMultiset",
    "algebra_twist_multiset",
    "hilbert_polynomial",
    "cohomology_dim",
    "sheaf_cohomology",
    "euler_characteristic",
    "section_dimension_sum",
    "dt_polynomial_pair",
]


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError("cannot interpret %r as a rational number" % (value,))


class RatPolynomial:
    """Polynomial with rational coefficients, stored lowest degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence = ()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial assigned -1."""
        return len(self.coeffs) - 1

    def __call__(self, n) -> Fraction:
        x = _as_fraction(n)
        total = Fraction(0)
        for c in reversed(self.coeffs):
            total = total * x + c
        return total

    def __add__(self, other: "RatPolynomial") -> "RatPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RatPolynomial(out)

    def __sub__(self, other: "RatPolynomial") -> "RatPolynomial":
        return self + (-other)

    def __neg__(self) -> "RatPolynomial":
        return RatPolynomial([-c for c in self.coeffs])

    def __mul__(self, other) -> "RatPolynomial":
        if isinstance(other, RatPolynomial):
            if not self.coeffs or not other.coeffs:
                return RatPolynomial()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return RatPolynomial(out)
        return RatPolynomial([c * _as_fraction(other) for c in self.coeffs])

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, RatPolynomial):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    def to_json(self) -> List[str]:
        return [str(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, data) -> "RatPolynomial":
        return cls([Fraction(c) for c in data])

    def __repr__(self):
        if not self.coeffs:
            return "RatPolynomial()"
        return "RatPolynomial(%s)" % (list(map(str, self.coeffs)),)


class TwistMultiset:
    """Multiset of signed sheaf twists with positive multiplicities."""

    __slots__ = ("pairs",)

    def __init__(self, pairs: Iterable[Tuple[int, int]]):
        merged: Dict[int, int] = {}
        for d, mult in pairs:
            d = int(d)
            mult = int(mult)
            if mult <= 0:
                raise PreconditionError("twist multiplicities must be positive")
            merged[d] = merged.get(d, 0) + mult
        self.pairs = tuple(sorted(merged.items()))

    @classmethod
    def parse(cls, text: str) -> "TwistMultiset":
        """Parse "0:1,-1:121,-2:381,-3:121,-4:1" into a multiset."""
        pairs = []
        for chunk in text.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            try:
                d_text, m_text = chunk.split(":")
                pairs.append((int(d_text), int(m_text)))
            except ValueError:
                raise PreconditionError(
                    "cannot parse twist chunk %r (want twist:multiplicity)" % (chunk,))
        if not pairs:
            raise PreconditionError("empty twist multiset")
        return cls(pairs)

    @property
    def total(self) -> int:
        return sum(m for _, m in self.pairs)

    def to_json(self) -> List[List[int]]:
        return [[d, m] for d, m in self.pairs]

    def __eq__(self, other):
        if isinstance(other, TwistMultiset):
            return self.pairs == other.pairs
        return NotImplemented

    def __hash__(self):
        return hash(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def __repr__(self):
        return "TwistMultiset(%r)" % (list(self.pairs),)


def algebra_twist_multiset() -> TwistMultiset:
    """Decomposition type of the coordinate algebra over its degree-5 center.

    An index of weight w contributes the twist -w; multiplicities are the
    weight histogram of the 625-element index set."""
    hist = indices.weight_histogram()
    return TwistMultiset((-w, m) for w, m in enumerate(hist))


def _chi_twist(d: int) -> RatPolynomial:
    """chi(O(n + d)) on P^3 as an exact polynomial in n.

    The binomial (n+d+1)(n+d+2)(n+d+3)/6 interpolates h^0 - h^1 + h^2 - h^3
    at every integer: it is C(n+d+3, 3) on the right, vanishes on the four
    middle integers, and by duality equals -C(-(n+d)-1, 3) on the left."""
    shift = RatPolynomial([d, 1])
    prod = RatPolynomial([1])
    for k in (1, 2, 3):
        prod = prod * (shift + RatPolynomial([k]))
    return prod * Fraction(1, 6)


def hilbert_polynomial(twists: TwistMultiset) -> RatPolynomial:
    """Sum of chi(O(n + d)) over the multiset, as an exact polynomial in n."""
    total = RatPolynomial()
    for d, mult in twists:
        total = total + _chi_twist(d) * mult
    return total


def _sections(d: int) -> int:
    # global sections of O(d) on P^3: degree-d forms in four variables
    if d < 0:
        return 0
    return comb(d + 3, 3)


def cohomology_dim(d: int, i: int) -> int:
    """dim H^i of the line bundle O(d) on projective 3-space."""
    if i not in (0, 1, 2, 3):
        raise PreconditionError("cohomological degree must be 0..3 on a threefold")
    if i == 0:
        return _sections(d)
    if i == 3:
        # duality against the dualizing bundle O(-4)
        return _sections(-4 - d)
    return 0


def sheaf_cohomology(twists: TwistMultiset, n: int) -> Tuple[int, int, int, int]:
    """(h^0, h^1, h^2, h^3) of the multiset twisted by n."""
    dims = [0, 0, 0, 0]
    for d, mult in twists:
        for i in range(4):
            dims[i] += mult * cohomology_dim(n + d, i)
    return tuple(dims)


def euler_characteristic(twists: TwistMultiset, n: int) -> int:
    h = sheaf_cohomology(twists, n)
    return h[0] - h[1] + h[2] - h[3]


def section_dimension_sum(twists: TwistMultiset, n: int) -> int:
    """Total h^0 at twist n; matches the graded dimension in degree 5n when
    the multiset is the coordinate-algebra decomposition and n >= 0."""
    return sheaf_cohomology(twists, n)[0]


def dt_polynomial_pair(h: RatPolynomial) -> Tuple[RatPolynomial, RatPolynomial]:
    """Split a degree <= 1 input against the rank-one background polynomial.

    Returns (h, p0 - h), p0 the Hilbert polynomial of the coordinate-algebra
    decomposition: the Hilbert polynomials of a quotient of dimension <= 1
    and of its rank-one kernel, against the background p0.  DT-type
    invariants of rank-one sheaves are indexed by this data; none is
    computed here.  Inputs of degree 2 or higher are rejected: no such
    quotient has them."""
    if h.degree > 1:
        raise PreconditionError(
            "deviation polynomial must have degree at most 1, got degree %d"
            % (h.degree,))
    p0 = hilbert_polynomial(algebra_twist_multiset())
    return (h, p0 - h)
