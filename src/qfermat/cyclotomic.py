"""Exact scalar arithmetic in the cyclotomic field Q(zeta_5).

Every scalar in the system is either an exponent in Z/5, kept as a plain int
in 0..4, or a value in Q(zeta_5), with zeta_5 a fixed primitive fifth root
of unity.  CycNum stores coordinates on the power basis {1, z, z^2, z^3}
with Fraction entries, read from Fractions, integers or exact fraction
strings by errors.as_rational; powers z^4 and higher are rewritten through
the minimal polynomial 1 + z + z^2 + z^3 + z^4 = 0, so equality of values
is literally equality of coordinate tuples.

Most scalars downstream are pure roots of unity, so callers carry the
exponent and realize it with root_power only when a genuine field element is
needed, or apply it to one with times_root, a rotation of coordinates.  The
two views agree wherever both apply (root_power is a homomorphism from Z/5).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .errors import as_integer, as_rational

__all__ = [
    "CycNum",
    "root_power",
    "ZERO",
    "ONE",
]


class CycNum:
    """Element of Q(zeta_5) on the basis {1, z, z^2, z^3}.

    The four coordinates are read by errors.as_rational, so a bool or a float
    is a ValueError.  Immutable by convention; do not mutate .coeffs.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = (0, 0, 0, 0)):
        cs = tuple(as_rational(c, "CycNum coordinates") for c in coeffs)
        if len(cs) != 4:
            raise ValueError("CycNum takes exactly 4 coordinates, got %d" % len(cs))
        self.coeffs = cs

    def to_json(self):
        """Four exact fraction strings, e.g. ["1/2", "0", "-1", "0"]."""
        return [str(c) for c in self.coeffs]

    # -- ring structure ------------------------------------------------

    def _coerce(self, other) -> "CycNum":
        # a bool operand is an int here and is refused by the constructor
        if isinstance(other, CycNum):
            return other
        if isinstance(other, (int, Fraction)):
            return CycNum((other, 0, 0, 0))
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        return CycNum((a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3]))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        return CycNum((a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3]))

    def __neg__(self):
        a = self.coeffs
        return CycNum((-a[0], -a[1], -a[2], -a[3]))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        # schoolbook product, degrees 0..6, then reduce through z^5 = 1
        # and z^4 = -(1 + z + z^2 + z^3)
        acc = [Fraction(0)] * 7
        for i in range(4):
            ai = a[i]
            if not ai:
                continue
            for j in range(4):
                bj = b[j]
                if bj:
                    acc[i + j] += ai * bj
        c0 = acc[0] + acc[5]
        c1 = acc[1] + acc[6]
        c4 = acc[4]
        return CycNum((c0 - c4, c1 - c4, acc[2] - c4, acc[3] - c4))

    __rmul__ = __mul__

    def times_root(self, k: int) -> "CycNum":
        """self * zeta^k; equals self * root_power(k), in at most 4 subtractions.

        Rotates the coordinates on 1, z, ..., z^4 by k places, then folds the
        z^4 coordinate back through z^4 = -(1 + z + z^2 + z^3).
        """
        # the rewriting loop calls this with plain ints thousands of times
        k = (k if type(k) is int else as_integer(k, "root exponents")) % 5
        if not k:
            return self
        c = self.coeffs + (0,)
        r = c[5 - k:] + c[:5 - k]
        c4 = r[4]
        if not c4:
            return CycNum(r[:4])
        return CycNum((r[0] - c4, r[1] - c4, r[2] - c4, r[3] - c4))

    def galois(self, k: int) -> "CycNum":
        """The field automorphism determined by z -> z^k, k in 1..4."""
        k = as_integer(k, "Galois exponents") % 5
        if k == 0:
            raise ValueError("z -> z^0 is not a field automorphism")
        acc = [Fraction(0)] * 5
        for i, c in enumerate(self.coeffs):
            acc[(i * k) % 5] += c
        c4 = acc[4]
        return CycNum((acc[0] - c4, acc[1] - c4, acc[2] - c4, acc[3] - c4))

    def inv(self) -> "CycNum":
        if not self:
            raise ZeroDivisionError("zero has no inverse in Q(zeta_5)")
        # product of the three Galois conjugates; x times it is the rational
        # field norm, so dividing by the norm inverts x
        conj = self.galois(2) * self.galois(3) * self.galois(4)
        norm = self * conj
        assert not any(norm.coeffs[1:]), "norm must be rational"
        r = norm.coeffs[0]
        return CycNum((conj.coeffs[0] / r, conj.coeffs[1] / r,
                       conj.coeffs[2] / r, conj.coeffs[3] / r))

    # -- comparisons and hashing ----------------------------------------

    def __eq__(self, other):
        # a bool equals no CycNum, though arithmetic with one is refused
        if isinstance(other, bool):
            return NotImplemented
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        # rational values hash like their Fraction so CycNum(1) == 1 stays
        # consistent with hashing
        if not any(self.coeffs[1:]):
            return hash(self.coeffs[0])
        return hash(self.coeffs)

    def __bool__(self):
        return any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def __repr__(self):
        return "CycNum(%r)" % (self.to_json(),)


ZERO = CycNum((0, 0, 0, 0))
ONE = CycNum((1, 0, 0, 0))

_ROOTS = (
    ONE,
    CycNum((0, 1, 0, 0)),
    CycNum((0, 0, 1, 0)),
    CycNum((0, 0, 0, 1)),
    CycNum((-1, -1, -1, -1)),  # z^4 through the minimal polynomial
)


def root_power(k) -> CycNum:
    """zeta_5^k in canonical form; root_power(0) is the identity."""
    return _ROOTS[as_integer(k, "root exponents") % 5]
