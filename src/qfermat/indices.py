"""Combinatorics of the 625-element index set behind the sheaf algebra.

The index set I consists of the tuples a in {0..4}^5 whose digit sum is a
multiple of 5; they label the 625 line-bundle components of the degree-5
sheaf algebra.  The weight |a| = (digit sum)/5 lies in {0..4} and gives the
twist of the component O(-|a|).  Adding two indices digitwise mod 5 carries
exactly at the positions where a_i + b_i >= 5, and the number of carries
accounts for the weight drop |a| + |b| - |a+b|.

An index is its lex position 0..624; at the boundary it is a plain 5-tuple
of digits, and position() translates one to the other.  Digits are the
canonical representatives in {0..4}; the weight is defined on
representatives and is deliberately not treated as linear.  The index
monoid itself is a cached bundle of read-only numpy tables over the
positions (digit rows, sum index, packed carry flags, complements,
negatives), returned by tables() and shared by the structure-constant and
fiber modules.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Tuple

import numpy as np

__all__ = [
    "weight_histogram",
    "tables",
    "position",
]


def weight_histogram() -> Tuple[int, ...]:
    """Counts of indices by weight 0..4.

    The completion digit lifts the sum s of the four leading digits to the
    next multiple of 5, so the weight is ceil(s / 5)."""
    hist = [0] * 5
    for head in itertools.product(range(5), repeat=4):
        hist[(sum(head) + 4) // 5] += 1
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
    """Lex position of an index given as a position or as a sequence of 5 digits."""
    if isinstance(a, (int, np.integer)):
        pos = int(a)
        if not 0 <= pos < 625:
            raise ValueError("index position out of range: %d" % pos)
        return pos
    digits = tuple(int(d) for d in a)
    try:
        return tables().index_of[digits]
    except KeyError:
        raise ValueError("not an element of the index set: %r" % (digits,))
