import time
from fractions import Fraction
from math import comb, factorial, prod

import numpy as np
import pytest

from qfermat import indices
from qfermat.cyclotomic import CycNum, ONE, root_power
from qfermat.errors import PreconditionError
from qfermat.qmatrix import QMatrix, sample_admissible
from qfermat.rewrite import (
    AlgElement,
    graded_dimension,
    is_central,
    multiply,
    normal_form,
    normal_form_random_schedule,
)
from qfermat.structure import build_table

CANONICAL = QMatrix([
    (0, 0, 0, 0, 0),
    (0, 0, 1, 1, 3),
    (0, 4, 0, 2, 4),
    (0, 4, 3, 0, 3),
    (0, 2, 1, 2, 0),
])


def fifth_power(k):
    return AlgElement.monomial(tuple(5 if i == k else 0 for i in range(5)))


# ---------------------------------------------------------
# AlgElement basics
# ---------------------------------------------------------


def test_element_constructors_and_predicates():
    one = AlgElement.one()
    assert not one.is_zero()
    assert one.degree() == 0
    zero = AlgElement.zero()
    assert zero.is_zero()
    assert zero.degree() is None
    t2 = AlgElement.generator(2)
    assert t2.degree() == 1
    assert t2.coefficient((0, 0, 1, 0, 0)) == ONE


def test_element_rejects_unreduced_monomials():
    with pytest.raises(Exception):
        AlgElement.monomial((5, 0, 0, 0, 0))  # t_0 exponent must stay below 5
    with pytest.raises(Exception):
        AlgElement.monomial((-1, 0, 0, 0, 0))
    # high powers of the other generators are fine
    AlgElement.monomial((4, 9, 0, 0, 0))


def test_element_linear_algebra():
    x = AlgElement.monomial((1, 0, 0, 0, 0))
    y = AlgElement.monomial((0, 1, 0, 0, 0))
    s = x + y
    assert s.coefficient((1, 0, 0, 0, 0)) == ONE
    assert (s - x) == y
    assert (x - x).is_zero()
    assert x.scale(3).coefficient((1, 0, 0, 0, 0)) == CycNum((3, 0, 0, 0))
    assert s.is_homogeneous() and s.degree() == 1


def test_mixed_degree_detection():
    mixed = AlgElement.one() + AlgElement.generator(0)
    assert not mixed.is_homogeneous()
    with pytest.raises(ValueError):
        mixed.degree()


# ---------------------------------------------------------
# normal forms
# ---------------------------------------------------------


def test_empty_word_is_unit():
    el = normal_form((), CANONICAL)
    assert el == AlgElement.one()


def test_sorted_word_passes_through():
    el = normal_form((0, 1, 1, 3), CANONICAL)
    assert el == AlgElement.monomial((1, 2, 0, 1, 0))


def test_single_swap_produces_commutation_root():
    # t_2 t_1 = zeta^{n_21} t_1 t_2
    el = normal_form((2, 1), CANONICAL)
    assert el.coefficient((0, 1, 1, 0, 0)) == root_power(CANONICAL.entries[2][1])
    assert len(el.terms) == 1


def test_quintic_power_rewrites_to_minus_sum():
    el = normal_form((0,) * 5, CANONICAL)
    expect = AlgElement.zero()
    for k in range(1, 5):
        expect = expect - fifth_power(k)
    assert el == expect


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
            assert normal_form(word, N) == \
                normal_form(sorted(word), N).scale(root_power(s))


def test_normal_form_rejects_bad_letters():
    with pytest.raises(ValueError):
        normal_form((0, 7), CANONICAL)


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
        x, y = normal_form(u, CANONICAL), normal_form(v, CANONICAL)
        assert multiply(x.scale(c), y.scale(d), CANONICAL) == \
            normal_form(u + v, CANONICAL).scale(c * d)


def test_multiply_drops_cancelled_terms():
    # t_0^4 t_0 = -(t_1^5 + ... + t_4^5) cancels t_1^4 t_1 = t_1^5
    x = normal_form((0,) * 4, CANONICAL) + normal_form((1,) * 4, CANONICAL)
    y = normal_form((0,), CANONICAL) + normal_form((1,), CANONICAL)
    product = multiply(x, y, CANONICAL)
    assert (0, 5, 0, 0, 0) not in product.terms
    assert product == sum((normal_form(w, CANONICAL) for w in
                           [(0,) * 5, (0, 0, 0, 0, 1), (1, 1, 1, 1, 0), (1,) * 5]),
                          AlgElement.zero())


def test_multiply_matches_structure_table():
    # the table is the degree-5 part of rewriting: t^a t^b is zeta^E(a,b)
    # times the sorted word with exponents (a + b mod 5) + 5 carry(a, b), so a
    # carry at t_0 expands by the quintic relation on the expected side too
    shared = indices.tables()
    idx = shared.idx.tolist()
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
            expected = normal_form(word, N).scale(root_power(int(table.exp[i, j])))
            product = multiply(AlgElement.monomial(idx[i]), AlgElement.monomial(idx[j]), N)
            assert product == expected, (N, idx[i], idx[j])
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
    one = AlgElement.one()
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
    assert total.is_zero()


def test_generator_centrality_depends_on_matrix():
    # the canonical matrix has a zero row 0, so t_0 commutes with everything;
    # t_1 sees nonzero parameters and cannot be central
    assert is_central(AlgElement.generator(0), CANONICAL)
    assert not is_central(AlgElement.generator(1), CANONICAL)
    # on the zero matrix every generator is central
    assert is_central(AlgElement.generator(1), QMatrix.zero())


def test_is_central_requires_homogeneous():
    mixed = AlgElement.one() + AlgElement.generator(0)
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
    out = AlgElement.zero()
    for word, coeff in state.items():
        out = out + AlgElement.monomial([word.count(i) for i in range(5)], coeff)
    return out


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
