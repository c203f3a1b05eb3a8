"""Combinatorics of the 625-element index set behind the sheaf algebra.

The index set I consists of the tuples a in {0..4}^5 whose digit sum is a
multiple of 5; they label the 625 line-bundle components of the degree-5
sheaf algebra.  The weight |a| = (digit sum)/5 lies in {0..4} and gives the
twist of the component O(-|a|).  Adding two indices digitwise mod 5 carries
exactly at the positions where a_i + b_i >= 5, and the number of carries
accounts for the weight drop |a| + |b| - |a+b|.

Digits are always stored as canonical representatives in {0..4}; the weight
function is defined on representatives and is deliberately not treated as
linear.

Alongside the element-level API there is a cached bundle of numpy lookup
tables (sum index, carry flags, complements) shared read-only by the
structure-constant and fiber modules; it is an implementation detail but
exposed as tables() since several modules and the test suite rely on it.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, Tuple

import numpy as np

__all__ = [
    "MultiIndex",
    "CarryVector",
    "enumerate_index_set",
    "index_add",
    "weight",
    "complement",
    "weight_histogram",
    "tables",
    "position",
]


class MultiIndex:
    """A 5-digit index with digit sum divisible by 5."""

    __slots__ = ("digits",)

    def __init__(self, digits: Iterable[int]):
        ds = tuple(int(d) for d in digits)
        if len(ds) != 5:
            raise ValueError("a multi-index has exactly 5 digits, got %d" % len(ds))
        if any(d < 0 or d > 4 for d in ds):
            raise ValueError("digits must lie in {0..4}: %r" % (ds,))
        if sum(ds) % 5 != 0:
            raise ValueError("digit sum must be a multiple of 5: %r" % (ds,))
        self.digits = ds

    @property
    def weight(self) -> int:
        return sum(self.digits) // 5

    def to_json(self):
        return list(self.digits)

    def __iter__(self):
        return iter(self.digits)

    def __getitem__(self, i):
        return self.digits[i]

    def __len__(self):
        return 5

    def __eq__(self, other):
        if isinstance(other, MultiIndex):
            return self.digits == other.digits
        if isinstance(other, tuple):
            return self.digits == other
        return NotImplemented

    def __lt__(self, other):
        other_digits = other.digits if isinstance(other, MultiIndex) else tuple(other)
        return self.digits < other_digits

    def __hash__(self):
        return hash(self.digits)

    def __repr__(self):
        return "MultiIndex(%r)" % (self.digits,)


class CarryVector:
    """Per-position carry flags of an index addition."""

    __slots__ = ("flags",)

    def __init__(self, flags: Iterable[bool]):
        fs = tuple(bool(f) for f in flags)
        if len(fs) != 5:
            raise ValueError("a carry vector has exactly 5 flags")
        self.flags = fs

    @property
    def count(self) -> int:
        return sum(self.flags)

    def positions(self) -> Tuple[int, ...]:
        return tuple(i for i, f in enumerate(self.flags) if f)

    def to_json(self):
        return list(self.flags)

    def __iter__(self):
        return iter(self.flags)

    def __getitem__(self, i):
        return self.flags[i]

    def __eq__(self, other):
        if isinstance(other, CarryVector):
            return self.flags == other.flags
        if isinstance(other, tuple):
            return self.flags == other
        return NotImplemented

    def __hash__(self):
        return hash(self.flags)

    def __repr__(self):
        return "CarryVector(%r)" % (self.flags,)


@lru_cache(maxsize=1)
def _index_list() -> Tuple[MultiIndex, ...]:
    out = []
    for head in itertools.product(range(5), repeat=4):
        last = (-sum(head)) % 5
        out.append(MultiIndex(head + (last,)))
    # the completion digit never participates in a tie, so this is lex order
    return tuple(out)


def enumerate_index_set():
    """All 625 indices in lexicographic order (fresh list each call)."""
    return list(_index_list())


def _coerce(a) -> MultiIndex:
    return a if isinstance(a, MultiIndex) else MultiIndex(a)


def weight(a) -> int:
    """The weight |a| = (digit sum) / 5, an integer in {0..4}."""
    return _coerce(a).weight


def index_add(a, b) -> Tuple[MultiIndex, CarryVector]:
    """Digitwise sum mod 5 with the carry pattern of the addition."""
    a = _coerce(a)
    b = _coerce(b)
    sums = tuple(x + y for x, y in zip(a.digits, b.digits))
    return (
        MultiIndex(tuple(s % 5 for s in sums)),
        CarryVector(tuple(s >= 5 for s in sums)),
    )


def complement(a) -> MultiIndex:
    """The involution a -> (4,4,4,4,4) - a; weights satisfy |comp(a)| = 4 - |a|."""
    a = _coerce(a)
    return MultiIndex(tuple(4 - d for d in a.digits))


def weight_histogram() -> Tuple[int, ...]:
    """Counts of indices by weight 0..4."""
    hist = [0] * 5
    for m in _index_list():
        hist[m.weight] += 1
    return tuple(hist)


class IndexTables:
    """Read-only numpy views of the index monoid, shared across modules.

    Every structure table reads its targets and carries from these arrays
    and holds no copy of them; fiber algebras read sum_idx and carry_code.

    Attributes (all indexed by the lex position of the index):
      idx       (625, 5) int64   digit rows
      index_of  dict digit-tuple -> position
      weight    (625,)   int64   weights
      sum_idx   (625, 625) int32 position of the reduced digitwise sum
      carry_code (625, 625) uint8 carry flags packed as a bitmask, bit k for digit k
      comp      (625,)   int32   position of (4,...,4) - a
      neg       (625,)   int32   position of the additive inverse

    A position is 25 * high + low, high and low the positions of digits
    (0, 1) and (2, 3) among the 25 digit pairs, so sum_idx and carry_code are
    each one broadcast of (25, 25) position-sum and carry tables of the
    halves; bit 4 of carry_code comes from the completion digits.  Neither
    needs a (625, 625) temporary.  carry_code is the only carry array: the
    flags of a pair are its bits, their count is its popcount.
    """

    def __init__(self):
        head = np.stack(np.unravel_index(np.arange(625), (5,) * 4), axis=1)
        self.idx = idx = np.column_stack([head, -head.sum(axis=1) % 5])
        pair = idx[:25, 2:4].astype(np.uint8)  # the 25 digit pairs, in order
        s = pair[:, None, :] + pair[None, :, :]
        half_sum = (s[..., 0] % 5) * 5 + s[..., 1] % 5
        half_carry = (s[..., 0] >= 5).view(np.uint8) | (s[..., 1] >= 5).view(np.uint8) << 1
        # (high_a, low_a, high_b, low_b) reshaped is the (625, 625) pair table
        self.sum_idx = (25 * half_sum.astype(np.int32)[:, None, :, None]
                        + half_sum[None, :, None, :]).reshape(625, 625)
        last = idx[:, 4].astype(np.uint8)
        self.carry_code = code = np.add.outer(last, last)
        np.greater_equal(code, 5, out=code)
        code <<= 4
        code = code.reshape(25, 25, 25, 25)
        code |= half_carry[:, None, :, None]
        code |= half_carry[None, :, None, :] << 2

        place = 5 ** np.arange(3, -1, -1)
        self.index_of = {tuple(d): i for i, d in enumerate(idx.tolist())}
        self.weight = idx.sum(axis=1) // 5
        self.comp = ((4 - idx[:, :4]) @ place).astype(np.int32)
        self.neg = ((-idx[:, :4] % 5) @ place).astype(np.int32)

        for arr in (self.idx, self.weight, self.sum_idx, self.carry_code,
                    self.comp, self.neg):
            arr.setflags(write=False)


@lru_cache(maxsize=1)
def tables() -> IndexTables:
    return IndexTables()


def position(a) -> int:
    """Lex position of an index given as a position, a MultiIndex or digits."""
    if isinstance(a, (int, np.integer)):
        pos = int(a)
        if not 0 <= pos < 625:
            raise ValueError("index position out of range: %d" % pos)
        return pos
    digits = tuple(int(d) for d in (a.digits if isinstance(a, MultiIndex) else a))
    try:
        return tables().index_of[digits]
    except KeyError:
        raise ValueError("not an element of the index set: %r" % (digits,))
