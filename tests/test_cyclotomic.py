from fractions import Fraction

import numpy as np
import pytest

from qfermat.cyclotomic import CycNum, ONE, ZERO, root_power

# ---------------------------------------------------------
# root powers and the minimal polynomial
# ---------------------------------------------------------


def test_root_power_cycle():
    z = root_power(1)
    assert root_power(0) == ONE
    powers = [ONE]
    for _ in range(4):
        powers.append(powers[-1] * z)
    assert powers[-1] * z == ONE
    for k in range(-10, 11):
        assert root_power(k) == powers[k % 5] == ONE.times_root(k)


def test_root_power_homomorphism_exhaustive():
    # zeta^a * zeta^b = zeta^{a+b} for all 25 exponent pairs
    for a in range(5):
        for b in range(5):
            assert root_power(a) * root_power(b) == root_power(a + b)


def test_minimal_polynomial_sum_vanishes():
    total = ZERO
    for k in range(5):
        total = total + root_power(k)
    assert total == ZERO
    assert not total


# ---------------------------------------------------------
# field axioms on seeded random elements
# ---------------------------------------------------------


def random_cyc(rng):
    return CycNum([Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 8)))
                   for _ in range(4)])


def test_field_axioms_random_triples():
    rng = np.random.default_rng(20240916)
    for _ in range(60):
        x, y, z = (random_cyc(rng) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + y == y + x
        assert x * y == y * x
        assert x - x == ZERO
        assert x * ONE == x
        assert x * ZERO == ZERO


def test_times_root_equals_general_product():
    rng = np.random.default_rng(20261018)
    samples = [ZERO, ONE] + [root_power(k) for k in range(5)]
    samples += [random_cyc(rng) for _ in range(40)]
    for x in samples:
        for k in range(-5, 11):
            assert x.times_root(k) == x * root_power(k)


def test_inverse_roundtrip_random():
    rng = np.random.default_rng(7)
    seen_nonzero = 0
    for _ in range(40):
        x = random_cyc(rng)
        if not x:
            continue
        seen_nonzero += 1
        assert x * x.inv() == ONE
    assert seen_nonzero > 30


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ZERO.inv()
    with pytest.raises(ZeroDivisionError):
        CycNum((0, 0, 0, 0)).inv()


def test_documented_inverse_example():
    # 1 + z + z^2 + z^3 = -z^4, whose inverse is -z
    x = CycNum((1, 1, 1, 1))
    assert x * x.inv() == ONE
    assert x.inv() == -root_power(1)


# ---------------------------------------------------------
# Galois action
# ---------------------------------------------------------


def test_galois_is_field_automorphism():
    rng = np.random.default_rng(11)
    for _ in range(20):
        x, y = random_cyc(rng), random_cyc(rng)
        for k in range(1, 5):
            assert (x + y).galois(k) == x.galois(k) + y.galois(k)
            assert (x * y).galois(k) == x.galois(k) * y.galois(k)


def test_galois_composition_inverts():
    # sigma_2 then sigma_3 raises the root to the 6th power, i.e. identity
    rng = np.random.default_rng(12)
    for _ in range(20):
        x = random_cyc(rng)
        assert x.galois(2).galois(3) == x
        assert x.galois(4).galois(4) == x


def test_galois_rejects_noninvertible_index():
    with pytest.raises(Exception):
        ONE.galois(0)
    with pytest.raises(Exception):
        ONE.galois(5)


# ---------------------------------------------------------
# coercion, hashing, serialization
# ---------------------------------------------------------


def test_scalar_coercion_in_operations():
    x = CycNum((2, 0, 1, 0))
    assert x + 1 == CycNum((3, 0, 1, 0))
    assert x * 2 == CycNum((4, 0, 2, 0))
    assert x - Fraction(1, 2) == CycNum((Fraction(3, 2), 0, 1, 0))


def test_eq_and_hash_consistency_with_ints():
    assert CycNum((3, 0, 0, 0)) == 3
    assert hash(CycNum((3, 0, 0, 0))) == hash(3)
    assert hash(CycNum((Fraction(1, 2), 0, 0, 0))) == hash(Fraction(1, 2))
    d = {CycNum((3, 0, 0, 0)): "x"}
    assert d[3] == "x"
    # a bool equals no CycNum, though arithmetic with one is refused
    assert not ONE == True
    assert ONE != False
    assert ONE not in {True} and ONE not in [True] and ZERO not in [False]
    with pytest.raises(ValueError):
        ONE + True


def test_json_roundtrip():
    rng = np.random.default_rng(13)
    for _ in range(20):
        x = random_cyc(rng)
        assert CycNum(x.to_json()) == x
    assert root_power(3).to_json() == ["0", "0", "0", "1"]


def test_is_rational_flag():
    assert CycNum((5, 0, 0, 0)).is_rational()
    assert not root_power(1).is_rational()
    # z + z^4 is irrational but has real embedding; still not rational here
    assert not (root_power(1) + root_power(4)).is_rational()

