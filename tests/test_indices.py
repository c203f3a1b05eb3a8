import numpy as np
import pytest

from qfermat import indices
from qfermat.indices import (
    CarryVector,
    MultiIndex,
    complement,
    enumerate_index_set,
    index_add,
    weight,
    weight_histogram,
)

# ---------------------------------------------------------
# enumeration of the index set
# ---------------------------------------------------------


def test_index_set_size_and_membership():
    idx = enumerate_index_set()
    assert len(idx) == 625
    for a in idx:
        assert len(a) == 5
        assert all(0 <= d <= 4 for d in a)
        assert sum(a) % 5 == 0
    # no duplicates
    assert len({tuple(a) for a in idx}) == 625


def test_index_set_is_lex_sorted():
    idx = enumerate_index_set()
    tuples = [tuple(a) for a in idx]
    assert tuples == sorted(tuples)
    assert tuples[0] == (0, 0, 0, 0, 0)
    assert tuples[-1] == (4, 4, 4, 4, 4)


def test_weight_histogram_frozen_values():
    assert weight_histogram() == (1, 121, 381, 121, 1)
    # recount from scratch
    counts = [0] * 5
    for a in enumerate_index_set():
        counts[weight(a)] += 1
    assert tuple(counts) == (1, 121, 381, 121, 1)


# ---------------------------------------------------------
# addition with carries
# ---------------------------------------------------------


def test_add_with_zero_is_identity():
    zero = (0, 0, 0, 0, 0)
    for a in enumerate_index_set():
        s, c = index_add(a, zero)
        assert s == a
        assert c.count == 0


def test_top_plus_top_carries_everywhere():
    s, c = index_add((4, 4, 4, 4, 4), (4, 4, 4, 4, 4))
    assert tuple(s) == (3, 3, 3, 3, 3)
    assert c.count == 5
    assert c.positions() == (0, 1, 2, 3, 4)


def test_complement_pairs_never_carry():
    for a in enumerate_index_set():
        b = complement(a)
        s, c = index_add(a, b)
        assert tuple(s) == (4, 4, 4, 4, 4)
        assert c.count == 0


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
# MultiIndex and CarryVector types
# ---------------------------------------------------------


def test_multiindex_validation():
    with pytest.raises(Exception):
        MultiIndex((1, 2, 3))
    with pytest.raises(Exception):
        MultiIndex((5, 0, 0, 0, 0))
    with pytest.raises(Exception):
        MultiIndex((1, 0, 0, 0, 0))  # digit sum not divisible by 5


def test_multiindex_ordering_and_hash():
    a = MultiIndex((0, 0, 1, 1, 3))
    b = MultiIndex((0, 1, 0, 1, 3))
    assert a < b
    assert a == MultiIndex((0, 0, 1, 1, 3))
    assert hash(a) == hash(MultiIndex((0, 0, 1, 1, 3)))
    assert list(a) == [0, 0, 1, 1, 3]
    assert a.to_json() == [0, 0, 1, 1, 3]


def test_weight_additivity_with_carries():
    a = MultiIndex((4, 4, 2, 0, 0))
    b = MultiIndex((2, 2, 4, 1, 1))
    s, c = index_add(a, b)
    assert weight(a) + weight(b) == weight(s) + c.count


def test_carryvector_flags_and_positions():
    c = CarryVector((True, False, False, True, False))
    assert c.count == 2
    assert c.positions() == (0, 3)
    assert c[0] and not c[1]
    assert c == CarryVector((1, 0, 0, 1, 0))
    assert c.to_json() == [True, False, False, True, False]


def test_enumerate_returns_fresh_list():
    first = enumerate_index_set()
    second = enumerate_index_set()
    assert first == second
    first.pop()
    assert len(enumerate_index_set()) == 625


def test_shared_tables_are_readonly():
    t = indices.tables()
    with pytest.raises(ValueError):
        t.sum_idx[0, 0] = 1
    with pytest.raises(ValueError):
        t.carry_code[0, 0] = 1


def test_tables_match_their_definition_on_all_pairs():
    # every pair array against index_add, and comp/neg against complement and
    # digitwise negation, read back through the digit rows
    t = indices.tables()
    pos = t.index_of
    elems = enumerate_index_set()
    bits = np.arange(5, dtype=np.uint8)
    for i, a in enumerate(elems):
        sums = [index_add(a, b) for b in elems]
        target = np.array([pos[s.digits] for s, _ in sums])
        flags = np.array([c.flags for _, c in sums])
        assert (t.sum_idx[i] == target).all(), i
        assert ((t.carry_code[i, :, None] >> bits & 1) == flags).all(), i
        assert (np.bitwise_count(t.carry_code[i]) == flags.sum(axis=1)).all(), i
        assert t.comp[i] == pos[complement(a).digits]
        assert t.neg[i] == pos[tuple((-d) % 5 for d in a)]
        assert (t.idx[i] == a.digits).all() and t.weight[i] == weight(a)
    expected = {"idx": (np.int64, (625, 5)), "weight": (np.int64, (625,)),
                "sum_idx": (np.int32, (625, 625)), "carry_code": (np.uint8, (625, 625)),
                "comp": (np.int32, (625,)), "neg": (np.int32, (625,))}
    for name, (dtype, shape) in expected.items():
        arr = getattr(t, name)
        assert arr.dtype == dtype and arr.shape == shape, name
        assert not arr.flags.writeable, name
