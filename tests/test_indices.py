import itertools
from collections import Counter

import numpy as np
import pytest

from qfermat import indices
from qfermat.indices import position, weight_histogram

# The index set written out from its definition, on digit tuples and
# independent of how IndexTables is built: product() yields the members in
# lex order, so a member's place in INDEX_SET is its position.
INDEX_SET = [a for a in itertools.product(range(5), repeat=5) if sum(a) % 5 == 0]
TOP = (4, 4, 4, 4, 4)


# ---------------------------------------------------------
# enumeration of the index set
# ---------------------------------------------------------


def test_index_set_size_and_membership():
    rows = [tuple(a) for a in indices.tables().idx.tolist()]
    assert len(rows) == 625
    for a in rows:
        assert len(a) == 5
        assert all(0 <= d <= 4 for d in a)
        assert sum(a) % 5 == 0
    # no duplicates
    assert len(set(rows)) == 625


def test_index_set_is_lex_sorted():
    rows = [tuple(a) for a in indices.tables().idx.tolist()]
    assert rows == sorted(rows) == INDEX_SET
    assert rows[0] == (0, 0, 0, 0, 0)
    assert rows[-1] == TOP


def test_weight_histogram_frozen_values():
    assert weight_histogram() == (1, 121, 381, 121, 1)
    # recount from scratch
    counts = Counter(sum(a) // 5 for a in INDEX_SET)
    assert tuple(counts[w] for w in range(5)) == (1, 121, 381, 121, 1)


# ---------------------------------------------------------
# addition with carries
# ---------------------------------------------------------


def test_add_with_zero_is_identity():
    # position 0 is the zero index
    t = indices.tables()
    assert position((0, 0, 0, 0, 0)) == 0
    assert (t.sum_idx[:, 0] == np.arange(625)).all()
    assert not t.carry_code[:, 0].any()


def test_top_plus_top_carries_everywhere():
    t = indices.tables()
    top = position(TOP)
    assert tuple(t.idx[t.sum_idx[top, top]]) == (3, 3, 3, 3, 3)
    assert t.carry_code[top, top] == 0b11111


def test_complement_pairs_never_carry():
    t = indices.tables()
    a = np.arange(625)
    assert (t.sum_idx[a, t.comp] == position(TOP)).all()
    assert not t.carry_code[a, t.comp].any()


def test_carry_count_equals_weight_drop_all_pairs():
    # #carries = |a| + |b| - |a+b|, checked over all 625^2 pairs via arrays
    t = indices.tables()
    wa = t.weight[:, None]
    wb = t.weight[None, :]
    ws = t.weight[t.sum_idx]
    assert (np.bitwise_count(t.carry_code) == wa + wb - ws).all()


def test_sum_closure_and_commutativity_arrays():
    t = indices.tables()
    assert t.sum_idx.shape == (625, 625)
    assert (t.sum_idx == t.sum_idx.T).all()
    assert (t.carry_code == t.carry_code.T).all()
    # componentwise: digits of the sum match (a_i + b_i) mod 5
    digits = t.idx
    for trial_a in (0, 17, 311, 624):
        got = digits[t.sum_idx[trial_a]]
        assert (got == (digits[trial_a] + digits) % 5).all()


def _flags(t, i, j):
    # the five carry flags of the pair (i, j), the bits of carry_code
    return [bool(t.carry_code[i, j] >> k & 1) for k in range(5)]


def test_carry_associativity_sampled():
    # multiset of carries agrees between (a+b)+c and a+(b+c)
    rng = np.random.default_rng(501)
    t = indices.tables()
    for _ in range(300):
        a, b, c = (int(x) for x in rng.integers(0, 625, size=3))
        ab = int(t.sum_idx[a, b])
        bc = int(t.sum_idx[b, c])
        left = sorted(_flags(t, a, b) + _flags(t, ab, c))
        right = sorted(_flags(t, b, c) + _flags(t, a, bc))
        assert left == right
        assert t.sum_idx[ab, c] == t.sum_idx[a, bc]


def test_carry_associativity_all_triples():
    # carry(a,b) + carry(a+b,c) == carry(b,c) + carry(a,b+c) as flag vectors,
    # for all 625^3 triples; the carry_code bits are repacked base 4 so a
    # per-position sum of two flags never spills into the next digit
    t = indices.tables()
    s = t.sum_idx
    code4 = np.zeros((625, 625), dtype=np.uint16)
    for k in range(5):
        code4 += (t.carry_code >> k & 1).astype(np.uint16) << 2 * k
    for a in range(625):
        lhs = code4[a][:, None] + code4[s[a], :]
        rhs = code4 + code4[a][s]
        assert (lhs == rhs).all(), "carry identity fails for a = %d" % a
        assert (s[s[a], :] == s[a][s]).all(), "addition not associative at a = %d" % a


def test_negation_is_additive_inverse():
    t = indices.tables()
    for pos in range(625):
        npos = int(t.neg[pos])
        assert t.sum_idx[pos, npos] == 0


# ---------------------------------------------------------
# positions at the boundary
# ---------------------------------------------------------


def test_position_validation():
    with pytest.raises(ValueError):
        position((1, 2, 3))
    with pytest.raises(ValueError):
        position((5, 0, 0, 0, 0))  # a digit outside 0..4
    with pytest.raises(ValueError):
        position((1, 0, 0, 0, 0))  # digit sum not divisible by 5
    for bad in (-1, 625, np.int64(625)):
        with pytest.raises(ValueError):
            position(bad)
    assert position(np.int32(17)) == 17
    assert position(np.array(INDEX_SET[311])) == 311
    assert [position(list(a)) for a in INDEX_SET] == list(range(625))


def test_weight_additivity_with_carries():
    a, b = (4, 4, 2, 0, 0), (2, 2, 4, 1, 1)
    s = tuple((x + y) % 5 for x, y in zip(a, b))
    c = tuple(x + y >= 5 for x, y in zip(a, b))
    assert sum(a) // 5 + sum(b) // 5 == sum(s) // 5 + sum(c)
    t = indices.tables()
    i, j = position(a), position(b)
    assert t.sum_idx[i, j] == position(s)
    assert t.carry_code[i, j] == sum(f << k for k, f in enumerate(c))


def test_shared_tables_are_readonly():
    t = indices.tables()
    with pytest.raises(ValueError):
        t.sum_idx[0, 0] = 1
    with pytest.raises(ValueError):
        t.carry_code[0, 0] = 1


def test_tables_match_their_definition_on_all_pairs():
    # every pair array against digit arithmetic on the rows of INDEX_SET, with
    # sums mapped back to positions by a lookup filled from INDEX_SET's tuples
    t = indices.tables()
    pos = {a: k for k, a in enumerate(INDEX_SET)}
    place = 5 ** np.arange(4, -1, -1)
    lookup = np.full(5 ** 5, -1)
    lookup[np.array(list(pos)) @ place] = list(pos.values())
    digits = np.array(INDEX_SET, dtype=np.uint8)
    sums = digits[:, None, :] + digits[None, :, :]
    flags = sums >= 5
    assert (t.sum_idx == lookup[(sums % 5) @ place]).all()
    bits = np.arange(5, dtype=np.uint8)
    assert ((t.carry_code[..., None] >> bits & 1) == flags).all()
    assert (np.bitwise_count(t.carry_code) == flags.sum(axis=2)).all()
    assert t.comp.tolist() == [pos[tuple(4 - d for d in a)] for a in INDEX_SET]
    assert t.neg.tolist() == [pos[tuple(-d % 5 for d in a)] for a in INDEX_SET]
    assert (t.idx == digits).all()
    assert t.weight.tolist() == [sum(a) // 5 for a in INDEX_SET]
    expected = {"idx": (np.int64, (625, 5)), "weight": (np.int64, (625,)),
                "sum_idx": (np.int32, (625, 625)), "carry_code": (np.uint8, (625, 625)),
                "comp": (np.int32, (625,)), "neg": (np.int32, (625,))}
    for name, (dtype, shape) in expected.items():
        arr = getattr(t, name)
        assert arr.dtype == dtype and arr.shape == shape, name
        assert not arr.flags.writeable, name
