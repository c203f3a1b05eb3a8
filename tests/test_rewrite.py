import time
from fractions import Fraction
from math import comb, factorial, prod

import numpy as np
import pytest

from oracles import sample_admissible
from qfermat import indices
from qfermat.cohomology import (
    RatPolynomial,
    TwistMultiset,
    algebra_twist_multiset,
    cohomology_dim,
    euler_characteristic,
    section_dimension_sum,
    sheaf_cohomology,
)
from qfermat.cyclotomic import CycNum, ONE, root_power
from qfermat.errors import PreconditionError
from qfermat.fiber import FiberPoint
from qfermat.qmatrix import QMatrix
from qfermat.rewrite import (
    AlgElement,
    graded_dimension,
    is_central,
    multiply,
    normal_form,
    normal_form_random_schedule,
)
from qfermat.structure import build_table, verify_associativity

CANONICAL = QMatrix([
    (0, 0, 0, 0, 0),
    (0, 0, 1, 1, 3),
    (0, 4, 0, 2, 4),
    (0, 4, 3, 0, 3),
    (0, 2, 1, 2, 0),
])


def fifth_power(k):
    return AlgElement({tuple(5 if i == k else 0 for i in range(5)): ONE})


# ---------------------------------------------------------
# AlgElement basics
# ---------------------------------------------------------


def test_element_constructors_and_predicates():
    assert AlgElement({(0, 0, 0, 0, 0): ONE})
    assert not AlgElement()
    # zero coefficients are dropped, and integers become field elements
    assert AlgElement({(0, 0, 0, 0, 0): 0, (1, 0, 0, 0, 0): 3}).terms == \
        {(1, 0, 0, 0, 0): CycNum((3, 0, 0, 0))}
    assert AlgElement.generator(2).terms == {(0, 0, 1, 0, 0): ONE}


def test_generator_index_is_read_as_a_word_letter():
    # bools, floats and strs are refused in tests/test_arguments.py; an index
    # outside 0..4 is refused by the same rule
    for bad in (5, -1):
        with pytest.raises(ValueError, match="word letters"):
            AlgElement.generator(bad)


def test_element_rejects_unreduced_monomials():
    with pytest.raises(Exception):
        AlgElement({(5, 0, 0, 0, 0): ONE})  # t_0 exponent must stay below 5
    with pytest.raises(Exception):
        AlgElement({(-1, 0, 0, 0, 0): ONE})
    # high powers of the other generators are fine
    AlgElement({(4, 9, 0, 0, 0): ONE})


def test_element_linear_algebra():
    x = AlgElement({(1, 0, 0, 0, 0): ONE})
    y = AlgElement({(0, 1, 0, 0, 0): ONE})
    s = x + y
    assert s.terms == {(1, 0, 0, 0, 0): ONE, (0, 1, 0, 0, 0): ONE}
    assert s + AlgElement({(1, 0, 0, 0, 0): -ONE}) == y
    assert s.is_homogeneous()


def test_mixed_degree_detection():
    mixed = AlgElement({(0, 0, 0, 0, 0): ONE}) + AlgElement.generator(0)
    assert not mixed.is_homogeneous()


# ---------------------------------------------------------
# normal forms
# ---------------------------------------------------------


def test_empty_word_is_unit():
    el = normal_form((), CANONICAL)
    assert el == AlgElement({(0, 0, 0, 0, 0): ONE})


def test_sorted_word_passes_through():
    el = normal_form((0, 1, 1, 3), CANONICAL)
    assert el == AlgElement({(1, 2, 0, 1, 0): ONE})


def test_single_swap_produces_commutation_root():
    # t_2 t_1 = zeta^{n_21} t_1 t_2
    el = normal_form((2, 1), CANONICAL)
    assert el.terms == {(0, 1, 1, 0, 0): root_power(CANONICAL.entries[2][1])}


def test_quintic_power_rewrites_to_minus_sum():
    el = normal_form((0,) * 5, CANONICAL)
    assert el.terms == {tuple(5 if i == k else 0 for i in range(5)): -ONE for k in range(1, 5)}


def test_long_t0_power_expands_by_multinomials():
    # t_0^200 = (t_1^5 + ... + t_4^5)^40: one term per k_1 + ... + k_4 = 40
    # with coefficient 40!/(k_1! ... k_4!), in time proportional to the output
    start = time.perf_counter()
    el = normal_form((0,) * 200, CANONICAL)
    assert time.perf_counter() - start < 5
    assert len(el.terms) == comb(43, 3) == 12341
    for (e0, *rest), c in el.terms.items():
        ks = [x // 5 for x in rest]
        assert e0 == 0 and [5 * x for x in ks] == rest and sum(ks) == 40
        assert c == CycNum((factorial(40) // prod(factorial(x) for x in ks), 0, 0, 0))


def test_normal_form_is_idempotent_on_basis_words():
    rng = np.random.default_rng(88)
    for _ in range(50):
        word = tuple(sorted(int(x) for x in rng.integers(0, 5, size=6)))
        if word.count(0) >= 5:
            continue
        el = normal_form(word, CANONICAL)
        assert len(el.terms) == 1
        (mono, coeff), = el.terms.items()
        assert coeff == ONE


def test_normal_form_collects_the_pairwise_inversion_sum():
    # the definition: zeta^s with s the sum of n_ij over all letter pairs
    # i before j with i > j, times the normal form of the sorted word
    rng = np.random.default_rng(300)
    for N in [CANONICAL] + sample_admissible(2, seed=9):
        for length in [0, 1, 2, 17, 64, 150, 300] + list(rng.integers(0, 301, size=8)):
            word = [int(x) for x in rng.choice(5, size=length, p=[0.1] + [0.225] * 4)]
            s = sum(N.entries[a][b] for p, a in enumerate(word)
                    for b in word[p + 1:] if a > b)
            assert normal_form(word, N).terms == {
                e: c * root_power(s) for e, c in normal_form(sorted(word), N).terms.items()}


def test_normal_form_rejects_bad_letters():
    with pytest.raises(ValueError):
        normal_form((0, 7), CANONICAL)


@pytest.mark.parametrize("call", [
    lambda: normal_form([1.5, 0], CANONICAL),
    lambda: normal_form("10", CANONICAL),
    lambda: normal_form([True, 0], CANONICAL),
    lambda: normal_form_random_schedule([np.float64(1), 0], CANONICAL, None),
    lambda: AlgElement({(1.9, 0, 0, 0, 0): 1}),
    lambda: graded_dimension(2.7),
    lambda: graded_dimension(True),
    lambda: indices.position(True),
    lambda: indices.position(np.True_),
    lambda: indices.position(2.0),
    lambda: indices.position("10004"),
    lambda: indices.position((1.5, 3.5, 0, 0, 0)),
    lambda: root_power(1.5),
    lambda: root_power(True),
    lambda: root_power(np.True_),
    lambda: ONE.times_root(1.5),
    lambda: root_power(1).galois(2.5),
    lambda: TwistMultiset([(1.5, 2.9)]),
    lambda: TwistMultiset([(True, True)]),
    lambda: verify_associativity(build_table(CANONICAL), "sampled=10", seed=2.9),
    lambda: verify_associativity(build_table(CANONICAL), "sampled=10", seed=True),
    lambda: verify_associativity(build_table(CANONICAL), "sampled=10", seed="7"),
    lambda: build_table(CANONICAL).replace_exponent(0, 1, 2.7),
    lambda: build_table(CANONICAL).replace_exponent(0, 1, True),
    lambda: build_table(CANONICAL).replace_exponent(0, 1, "3"),
    lambda: cohomology_dim(True, 0),
    lambda: cohomology_dim(1, 0.0),
    lambda: sheaf_cohomology(algebra_twist_multiset(), True),
    lambda: euler_characteristic(algebra_twist_multiset(), 1.5),
    lambda: section_dimension_sum(algebra_twist_multiset(), "2"),
], ids=["float-letter", "str-word", "bool-letter", "numpy-float-letter", "float-exponent",
        "float-degree", "bool-degree", "bool-position", "numpy-bool-position",
        "float-position", "str-index", "float-digits", "float-root", "bool-root",
        "numpy-bool-root", "float-rotation", "float-galois", "float-twist-pair",
        "bool-twist-pair", "float-seed", "bool-seed", "str-seed", "float-table-exponent",
        "bool-table-exponent", "str-table-exponent", "bool-cohomology-twist",
        "float-cohomology-degree", "bool-sheaf-twist", "float-euler-twist",
        "str-section-twist"])
def test_integer_inputs_refuse_bools_floats_and_strings(call):
    # each of these was truncated or read digit by digit, or raised TypeError
    with pytest.raises(ValueError, match="integer"):
        call()


def test_integer_inputs_accept_numpy_integers():
    word = np.array([2, 1, 0], dtype=np.int8)
    assert normal_form(word, CANONICAL) == normal_form([2, 1, 0], CANONICAL)
    assert graded_dimension(np.int64(7)) == graded_dimension(7)
    assert indices.position(np.uint16(124)) == 124
    assert indices.position(np.array([1, 0, 0, 0, 4])) == indices.position((1, 0, 0, 0, 4))
    assert root_power(np.int8(3)) == ONE.times_root(np.uint8(3)) == root_power(3)
    assert root_power(1).galois(np.int64(3)) == root_power(3)
    twists = TwistMultiset([(np.int64(-1), np.uint16(3))])
    assert twists.pairs == ((-1, 3),) and all(type(x) is int for x in twists.pairs[0])
    table = build_table(CANONICAL)
    sampled = verify_associativity(table, "sampled=10", seed=np.uint8(7))
    assert sampled.to_json() == verify_associativity(table, "sampled=10", seed=7).to_json()
    assert type(sampled.seed) is int
    changed = table.replace_exponent(0, 1, np.int64(7))
    assert np.array_equal(changed.exp, table.replace_exponent(0, 1, 2).exp)
    assert cohomology_dim(np.int64(-7), np.uint8(3)) == cohomology_dim(-7, 3) == 20
    twists = algebra_twist_multiset()
    assert sheaf_cohomology(twists, np.int16(1)) == sheaf_cohomology(twists, 1)


@pytest.mark.parametrize("call", [
    lambda: CycNum((True, 0, 0, 0)),
    lambda: CycNum((np.True_, 0, 0, 0)),
    lambda: CycNum((1.5, 0, 0, 0)),
    lambda: CycNum((np.float64(0.5), 0, 0, 0)),
    lambda: CycNum(("1/0", 0, 0, 0)),
    lambda: CycNum(("abc", 0, 0, 0)),
    lambda: RatPolynomial([True]),
    lambda: RatPolynomial([0.5]),
    lambda: RatPolynomial([1, 1])(True),
    lambda: RatPolynomial([1, 1])(0.5),
    lambda: FiberPoint((True, -1, 0, 0, 0)),
    lambda: FiberPoint((1.5, -1.5, 0, 0, 0)),
    lambda: AlgElement({(0, 1, 0, 0, 0): True}),
    lambda: AlgElement({(0, 1, 0, 0, 0): 0.5}),
], ids=["bool-coordinate", "numpy-bool-coordinate", "float-coordinate",
        "numpy-float-coordinate", "zero-denominator", "unparsed-string",
        "bool-coefficient", "float-coefficient", "bool-argument", "float-argument",
        "bool-point", "float-point", "bool-term", "float-term"])
def test_rational_inputs_refuse_bools_floats_and_bad_strings(call):
    # bools were read as 0 or 1, floats raised TypeError and "1/0" ZeroDivisionError
    with pytest.raises(ValueError, match="rational"):
        call()


def test_rational_inputs_accept_numpy_integers_and_exact_strings():
    x = CycNum((np.int64(3), np.uint8(2), np.int8(-1), 0))
    assert x.coeffs == CycNum((3, 2, -1, 0)).coeffs
    assert all(type(c) is Fraction for c in x.coeffs)
    poly = RatPolynomial([np.int16(1), np.int64(2)])
    assert poly == RatPolynomial([1, 2]) and poly(np.uint8(3)) == poly(3) == 7
    point = FiberPoint(np.arange(-2, 3))
    assert point == FiberPoint(range(-2, 3))
    t1 = (0, 1, 0, 0, 0)
    assert AlgElement({t1: np.int32(2)}) == AlgElement({t1: 2})
    assert CycNum(("1.5", 0, 0, 0)).coeffs[0] == Fraction(3, 2)
    assert FiberPoint.parse("1.5,-1.5,0,0,0") == FiberPoint((Fraction(3, 2), "-3/2", 0, 0, 0))


def test_normal_form_rejects_non_admissible_matrix():
    bad = QMatrix([[0, 1, 0, 0, 0], [4, 0, 0, 0, 0]] + [[0] * 5] * 3)
    with pytest.raises(PreconditionError):
        normal_form((1, 0), bad)


# ---------------------------------------------------------
# multiplication
# ---------------------------------------------------------


def test_multiply_matches_word_concatenation():
    rng = np.random.default_rng(17)
    for _ in range(60):
        u = tuple(int(x) for x in rng.integers(0, 5, size=rng.integers(0, 5)))
        v = tuple(int(x) for x in rng.integers(0, 5, size=rng.integers(0, 5)))
        left = multiply(normal_form(u, CANONICAL), normal_form(v, CANONICAL), CANONICAL)
        assert left == normal_form(u + v, CANONICAL)


def test_multiply_with_field_coefficients_matches_general_product():
    # Fraction coordinates take the coefficients off the roots of unity, and
    # words with ten or more t_0 give quintic signs of 2; the ten units
    # +-zeta^k, multiplied by rotation, meet both units and Fractions on
    # either side
    assert CycNum((2, 0, 0, 0)) in normal_form((0,) * 10, CANONICAL).terms.values()
    rng = np.random.default_rng(707)
    units = [root_power(k) * sign for k in range(5) for sign in (1, -1)]

    def coeff():
        return CycNum([Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 8)))
                       for _ in range(4)])

    def word(zeros):
        letters = [0] * zeros + [int(x) for x in rng.integers(0, 5, size=rng.integers(0, 6))]
        return tuple(int(x) for x in rng.permutation(letters))

    pairs = [(coeff(), coeff()) for _ in range(40)]
    for k, unit in enumerate(units):
        partner = units[(3 * k + 1) % 10], coeff()
        pairs += [(unit, d) for d in partner] + [(d, unit) for d in partner]
    for k, (c, d) in enumerate(pairs):
        u, v = word(10 if k % 4 == 0 else 0), word(10 if k % 4 == 1 else 0)
        x = AlgElement({e: a * c for e, a in normal_form(u, CANONICAL).terms.items()})
        y = AlgElement({e: b * d for e, b in normal_form(v, CANONICAL).terms.items()})
        assert multiply(x, y, CANONICAL) == AlgElement(
            {e: a * c * d for e, a in normal_form(u + v, CANONICAL).terms.items()})


def test_multiply_takes_a_unit_over_a_denominator_as_a_general_coefficient():
    # the numerators of a unit +-zeta^k with one coordinate halved: not a
    # unit, so neither side of a product may rotate by it
    t1, w = AlgElement.generator(1), normal_form((2, 1), CANONICAL)
    checked = 0
    for k in range(5):
        for sign in (1, -1):
            unit = (root_power(k) * sign).coeffs
            for slot in np.flatnonzero(unit):
                c = CycNum([x / 2 if i == slot else x for i, x in enumerate(unit)])
                x = AlgElement({(0, 1, 0, 0, 0): c})
                for left, right, plain in ((x, w, (t1, w)), (w, x, (w, t1))):
                    assert multiply(left, right, CANONICAL) == AlgElement(
                        {e: a * c for e, a in multiply(*plain, CANONICAL).terms.items()})
                checked += 1
    assert checked == 16


def test_multiply_drops_cancelled_terms():
    # t_0^4 t_0 = -(t_1^5 + ... + t_4^5) cancels t_1^4 t_1 = t_1^5
    x = normal_form((0,) * 4, CANONICAL) + normal_form((1,) * 4, CANONICAL)
    y = normal_form((0,), CANONICAL) + normal_form((1,), CANONICAL)
    product = multiply(x, y, CANONICAL)
    assert (0, 5, 0, 0, 0) not in product.terms
    assert product == sum((normal_form(w, CANONICAL) for w in
                           [(0,) * 5, (0, 0, 0, 0, 1), (1, 1, 1, 1, 0), (1,) * 5]),
                          AlgElement())


def test_multiply_matches_structure_table():
    # the table is the degree-5 part of rewriting: t^a t^b is zeta^E(a,b)
    # times the sorted word with exponents (a + b mod 5) + 5 carry(a, b), so a
    # carry at t_0 expands by the quintic relation on the expected side too
    shared = indices.tables()
    idx = [tuple(a) for a in shared.idx.tolist()]
    t0_carry = np.flatnonzero(shared.carry_code.ravel() & 1)
    rng = np.random.default_rng(31)
    codes = set()
    for N in [CANONICAL] + sample_admissible(3, seed=5):
        table = build_table(N)
        # 500 pairs with a carry at t_0, and 500 uniform pairs
        pairs = np.concatenate([rng.choice(t0_carry, 500), rng.integers(0, 625 * 625, 500)])
        for i, j in zip(*np.divmod(pairs, 625)):
            code = int(shared.carry_code[i, j])
            e = [d + 5 * (code >> k & 1) for k, d in enumerate(idx[shared.sum_idx[i, j]])]
            word = [k for k in range(5) for _ in range(e[k])]
            scalar = root_power(int(table.exp[i, j]))
            expected = {m: c * scalar for m, c in normal_form(word, N).terms.items()}
            product = multiply(AlgElement({idx[i]: ONE}), AlgElement({idx[j]: ONE}), N)
            assert product.terms == expected, (N, idx[i], idx[j])
            codes.add(code)
    # every carry pattern that includes t_0 occurs
    assert {c for c in codes if c & 1} == set(range(1, 32, 2))


def test_multiply_distributes():
    x = normal_form((1, 2), CANONICAL)
    y = normal_form((3,), CANONICAL)
    z = normal_form((0, 4), CANONICAL)
    assert multiply(x, y + z, CANONICAL) == \
        multiply(x, y, CANONICAL) + multiply(x, z, CANONICAL)


def test_unit_is_neutral():
    rng = np.random.default_rng(23)
    one = AlgElement({(0, 0, 0, 0, 0): ONE})
    for _ in range(20):
        w = tuple(int(x) for x in rng.integers(0, 5, size=4))
        el = normal_form(w, CANONICAL)
        assert multiply(one, el, CANONICAL) == el
        assert multiply(el, one, CANONICAL) == el


# ---------------------------------------------------------
# centrality
# ---------------------------------------------------------


def test_fifth_powers_are_central():
    for k in range(1, 5):
        assert is_central(fifth_power(k), CANONICAL)
    # the image of t_0^5 is a combination of the others and is central too
    assert is_central(normal_form((0,) * 5, CANONICAL), CANONICAL)


def test_defining_relation_is_zero():
    total = normal_form((0,) * 5, CANONICAL)
    for k in range(1, 5):
        total = total + fifth_power(k)
    assert not total


def test_generator_centrality_depends_on_matrix():
    # the canonical matrix has a zero row 0, so t_0 commutes with everything;
    # t_1 sees nonzero parameters and cannot be central
    assert is_central(AlgElement.generator(0), CANONICAL)
    assert not is_central(AlgElement.generator(1), CANONICAL)
    # on the zero matrix every generator is central
    assert is_central(AlgElement.generator(1), QMatrix([[0] * 5] * 5))


def test_is_central_requires_homogeneous():
    mixed = AlgElement({(0, 0, 0, 0, 0): ONE}) + AlgElement.generator(0)
    with pytest.raises(PreconditionError):
        is_central(mixed, CANONICAL)


# ---------------------------------------------------------
# graded dimensions
# ---------------------------------------------------------


def test_graded_dimension_frozen_values():
    dims = [graded_dimension(n) for n in range(17)]
    assert dims == [1, 5, 15, 35, 70, 125, 205, 315, 460, 645, 875,
                    1155, 1490, 1885, 2345, 2875, 3480]


def test_graded_dimension_counts_basis_monomials():
    # brute-force count of monomials with e_0 <= 4 and total degree n
    for n in range(9):
        count = 0
        for e0 in range(min(4, n) + 1):
            count += comb(n - e0 + 3, 3)
        assert graded_dimension(n) == count


def test_graded_dimension_rejects_negative():
    with pytest.raises(PreconditionError):
        graded_dimension(-1)


# ---------------------------------------------------------
# confluence of the rewriting system
# ---------------------------------------------------------


def test_random_schedule_agrees_with_deterministic():
    rng = np.random.default_rng(404)
    for _ in range(300):
        length = int(rng.integers(0, 9))
        word = tuple(int(x) for x in rng.integers(0, 5, size=length))
        a = normal_form(word, CANONICAL)
        b = normal_form_random_schedule(word, CANONICAL, rng)
        assert a == b


def test_random_schedule_handles_repeated_quintic_blocks():
    rng = np.random.default_rng(405)
    word = (0,) * 10  # two quintic rewrites deep
    a = normal_form(word, CANONICAL)
    for _ in range(10):
        assert normal_form_random_schedule(word, CANONICAL, rng) == a


def _reference_random_schedule(w, N, rng):
    """The schedule reducer with one CycNum per word, moves recomputed for
    every word at every step, and a draw for every pick, one choice or not."""
    entries = N.entries

    def moves_of(word):
        moves = [("swap", p) for p in range(len(word) - 1) if word[p] > word[p + 1]]
        run = 0
        for p, letter in enumerate(word):
            run = run + 1 if letter == 0 else 0
            if run >= 5:
                moves.append(("quintic", p - 4))
        return moves

    state = {tuple(w): ONE}
    while True:
        pending = [(word, moves_of(word)) for word in sorted(state)]
        pending = [(word, moves) for word, moves in pending if moves]
        if not pending:
            break
        word, moves = pending[int(rng.integers(len(pending)))]
        kind, p = moves[int(rng.integers(len(moves)))]
        coeff = state.pop(word)
        if kind == "swap":
            i, j = word[p], word[p + 1]
            moved = [(word[:p] + (j, i) + word[p + 2:], coeff * root_power(entries[i][j]))]
        else:
            moved = [(word[:p] + (k,) * 5 + word[p + 5:], -coeff) for k in range(1, 5)]
        for new, add in moved:
            total = state.get(new, CycNum()) + add
            if total:
                state[new] = total
            else:
                state.pop(new, None)
    # a word without moves is sorted, so distinct words are distinct monomials
    return AlgElement({tuple(map(word.count, range(5))): coeff for word, coeff in state.items()})


def test_random_schedule_draws_the_reference_stream():
    # same picks from the same stream: equal results word by word, and the
    # generators end in the same state
    rng = np.random.default_rng(406)
    words = []
    for k in range(300):
        letters = [int(x) for x in rng.integers(0, 5, size=rng.integers(0, 8))]
        if k % 2:
            p = int(rng.integers(0, len(letters) + 1))
            letters[p:p] = [0] * int(rng.integers(5, 8))
        words.append(tuple(letters))
    assert sum(1 for w in words if (0,) * 5 in [w[p:p + 5] for p in range(len(w))]) >= 150
    matrices = [CANONICAL] + sample_admissible(1, seed=12)
    new, ref = np.random.default_rng(407), np.random.default_rng(407)
    for k, word in enumerate(words):
        N = matrices[k % 2]
        assert normal_form_random_schedule(word, N, new) == \
            _reference_random_schedule(word, N, ref)
    assert new.bit_generator.state == ref.bit_generator.state
