import math
import random

import pytest

from punits.pgroup import GroupSpec, enumerate_elements
from punits.ring import (
    RING_CHAR_CAP,
    RingElement,
    RingSpec,
    _float_terms,
    _rows_per_reduction,
    augmentation,
    binomial_p_power,
    from_group_element,
    is_normalized_unit,
    lemma9_predicted_order,
    mul,
    one,
    p_reduced_factorization,
    reduce_mod,
    unit_inverse,
    unit_order,
    zero,
)

from .helpers import dict_mul, random_element, random_normalized_unit, small_specs

Z4C2 = RingSpec(GroupSpec(2, (1,)), 2)
Z8C2 = RingSpec(GroupSpec(2, (1,)), 3)
Z4C4 = RingSpec(GroupSpec(2, (2,)), 2)
Z9C3 = RingSpec(GroupSpec(3, (1,)), 2)


def small_ring_specs(max_group_exp, max_e, primes=(2, 3)):
    return [
        RingSpec(g, e)
        for g in small_specs(max_group_exp, primes)
        for e in range(1, max_e + 1)
    ]


class TestMul:
    def test_square_of_3_plus_2a(self):
        # (3+2a)(3+2a) = 9+4 + 12a = 13+12a = 1 in Z_4 C_2
        u = RingElement(Z4C2, (3, 2))
        assert (u * u).coeffs == (1, 0)

    def test_one_is_neutral(self):
        rng = random.Random(1)
        for rs in small_ring_specs(3, 3):
            x = random_element(rng, rs)
            assert x * one(rs) == x

    def test_generator_difference_square(self):
        # (g-1)^2 = 1 - 2g + g^2 in Z_4 C_4
        u = from_group_element(Z4C4, (1,)) - one(Z4C4)
        assert (u * u).coeffs == (1, 2, 1, 0)

    def test_matches_dictionary_convolution(self):
        rng = random.Random(2)
        for rs in small_ring_specs(4, 3):
            if rs.size > 16:
                continue
            x, y = random_element(rng, rs), random_element(rng, rs)
            assert x * y == dict_mul(x, y)

    def test_spec_mismatch_raises(self):
        with pytest.raises(ValueError):
            mul(one(Z4C2), one(Z8C2))

    def test_ring_axioms_on_random_triples(self):
        rng = random.Random(3)
        for rs in small_ring_specs(4, 4):
            if rs.size > 16:
                continue
            x, y, z = (random_element(rng, rs) for _ in range(3))
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            assert x * y == y * x


class TestAugmentation:
    def test_examples(self):
        assert augmentation(RingElement(Z4C2, (2, 3))) == 1
        a = from_group_element(Z4C2, (1,))
        assert augmentation(a - one(Z4C2)) == 0
        assert augmentation(zero(Z4C2)) == 0

    def test_normalized_unit_examples(self):
        assert is_normalized_unit(RingElement(Z8C2, (7, 2)))  # 1 + 2(a-1)
        a = from_group_element(Z4C2, (1,))
        assert not is_normalized_unit(a - one(Z4C2))
        assert not is_normalized_unit(RingElement(Z4C2, (2, 0)))


class TestUnitOrderAndInverse:
    def test_order_examples(self):
        assert unit_order(RingElement(Z8C2, (7, 2))) == 4  # 2^{e-1}
        assert unit_order(from_group_element(Z4C2, (1,))) == 2
        assert unit_order(one(Z4C2)) == 1

    def test_order_rejects_non_units(self):
        with pytest.raises(ValueError):
            unit_order(zero(Z4C2))

    def test_inverse_examples(self):
        a = from_group_element(Z4C2, (1,))
        assert unit_inverse(a) == a
        u = RingElement(Z8C2, (7, 2))  # 1 + 2(a-1)
        v = unit_inverse(u)
        assert v.coeffs == (3, 6)  # 1 + 6(a-1)
        assert u * v == one(Z8C2)
        assert unit_inverse(one(Z4C2)) == one(Z4C2)

    def test_inverse_of_random_units(self):
        rng = random.Random(4)
        for rs in small_ring_specs(3, 3):
            u = random_normalized_unit(rng, rs)
            assert u * unit_inverse(u) == one(rs)

    def test_order_divisibility_under_reduction(self):
        # |f(u)| divides |u| divides p * |f(u)| for the reduction f to e-1
        rng = random.Random(5)
        for rs in small_ring_specs(3, 4):
            if rs.e < 2:
                continue
            for _ in range(5):
                u = random_normalized_unit(rng, rs)
                down = unit_order(reduce_mod(u, rs.e - 1))
                up = unit_order(u)
                assert up % down == 0
                assert (rs.p * down) % up == 0


class TestReduceMod:
    def test_examples(self):
        x = RingElement(Z4C2, (3, 2))
        assert reduce_mod(x, 1).coeffs == (1, 0)
        assert reduce_mod(x, 2) == x
        u = RingElement(Z8C2, (7, 2))
        assert reduce_mod(u, 2) == RingElement(Z4C2, (3, 2))

    def test_rejects_larger_target(self):
        with pytest.raises(ValueError):
            reduce_mod(one(Z4C2), 3)

    def test_is_a_ring_homomorphism(self):
        rng = random.Random(6)
        for rs in small_ring_specs(3, 4):
            if rs.e < 2:
                continue
            x, y = random_element(rng, rs), random_element(rng, rs)
            for target in range(1, rs.e):
                assert reduce_mod(x * y, target) == reduce_mod(x, target) * reduce_mod(y, target)
                assert reduce_mod(x + y, target) == reduce_mod(x, target) + reduce_mod(y, target)


class TestPReducedFactorization:
    def test_example_3_plus_2a(self):
        u = RingElement(Z4C2, (3, 2))
        red, z = p_reduced_factorization(u)
        assert red == one(Z4C2)
        assert augmentation(z) == 0
        assert red * (one(Z4C2) + 2 * z) == u

    def test_low_coefficients_give_trivial_carry(self):
        a = from_group_element(Z4C2, (1,))
        red, z = p_reduced_factorization(a)
        assert red == a
        assert z == zero(Z4C2)

    def test_top_layer_is_additive(self):
        # u = 1 + 4(a-1) in Z_8 C_2 factors as (1, a-1)
        a = from_group_element(Z8C2, (1,))
        u = one(Z8C2) + 4 * (a - one(Z8C2))
        red, z = p_reduced_factorization(u)
        assert red == one(Z8C2)
        assert z == a - one(Z8C2)

    def test_random_units_recompose(self):
        rng = random.Random(7)
        for rs in small_ring_specs(3, 3):
            if rs.e < 2:
                continue
            q1 = rs.p ** (rs.e - 1)
            for _ in range(5):
                u = random_normalized_unit(rng, rs)
                red, z = p_reduced_factorization(u)
                assert is_normalized_unit(red)
                assert all(c < q1 for c in red.coeffs[1:])
                assert augmentation(z) == 0
                assert red * (one(rs) + q1 * z) == u

    def test_rejects_e1_and_non_units(self):
        with pytest.raises(ValueError):
            p_reduced_factorization(one(RingSpec(GroupSpec(2, (1,)), 1)))
        with pytest.raises(ValueError):
            p_reduced_factorization(zero(Z4C2))


class TestBinomialPPower:
    def test_examples(self):
        assert binomial_p_power(2, 3, 4) == 1  # C(8,4) = 70
        assert binomial_p_power(3, 2, 3) == 1  # C(9,3) = 84
        assert binomial_p_power(5, 4, 5 ** 4) == 0

    def test_against_math_comb(self):
        for p in (2, 3, 5):
            for n in range(5):
                for j in range(1, p ** n + 1):
                    val = 0
                    c = math.comb(p ** n, j)
                    while c % p == 0:
                        c //= p
                        val += 1
                    assert binomial_p_power(p, n, j) == val

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            binomial_p_power(4, 2, 1)
        with pytest.raises(ValueError):
            binomial_p_power(2, 2, 0)
        with pytest.raises(ValueError):
            binomial_p_power(2, 2, 5)


class TestPowerIdentity:
    def test_one_minus_g_power_collapse(self):
        # (1-g)^{p^l} = (1-g^{p^s})^{p^{l-s}} for l >= e, s <= l-e+1
        for rs in small_ring_specs(3, 3):
            p, e = rs.p, rs.e
            for g in enumerate_elements(rs.group):
                base = one(rs) - from_group_element(rs, g)
                for l in range(e, e + 3):
                    lhs = base ** (p ** l)
                    for s in range(0, l - e + 2):
                        from punits.pgroup import element_pow

                        shifted = one(rs) - from_group_element(
                            rs, element_pow(rs.group, g, p ** s)
                        )
                        assert lhs == shifted ** (p ** (l - s))


class TestLemma9Prediction:
    def test_no_exception_for_c2(self):
        # y = a-1 in Z_8 C_2: y^2 = -2(a-1) has even coefficients
        a = from_group_element(Z8C2, (1,))
        y = a - one(Z8C2)
        assert lemma9_predicted_order(1, y) == 4

    def test_odd_p_never_exceptional(self):
        g = from_group_element(Z9C3, (1,))
        y = g - one(Z9C3)
        assert lemma9_predicted_order(1, y) == 3
        u = one(Z9C3) + 3 * y
        assert unit_order(u) == 3

    def test_exceptional_case_is_ordered_by_one_squaring(self):
        rs = RingSpec(GroupSpec(2, (2,)), 3)  # Z_8 C_4
        g = from_group_element(rs, (1,))
        y = g - one(rs)  # y^2 = g^2 - 2g + 1 has odd coefficients
        # y + y^2 = g^2 - g has a unit coefficient: s' = 0, order 2^{1+e-2}
        assert lemma9_predicted_order(1, y) == 4
        assert unit_order(one(rs) + 2 * y) == 4  # 1 + 2y = 2g - 1 is normalized

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            lemma9_predicted_order(1, zero(Z8C2))
        y = from_group_element(Z8C2, (1,)) - one(Z8C2)
        with pytest.raises(ValueError):
            lemma9_predicted_order(3, y)
        with pytest.raises(ValueError):
            lemma9_predicted_order(0, y)


class TestText:
    def test_round_trip(self):
        u = RingElement(Z4C2, (3, 2))
        assert u.to_text() == "p=2;lambda=1;e=2;coeffs=3,2"
        assert RingElement.from_text(u.to_text()) == u
        with pytest.raises(ValueError):
            RingElement.from_text("p=2;lambda=1;e=2")

    @pytest.mark.parametrize(
        "text", ["p=2;lambda=1;e=2;coeffs=3,2;junk=5", "p=2;lambda=1;e=2;e=3;coeffs=3,2"]
    )
    def test_refuses_unknown_and_repeated_keys(self, text):
        with pytest.raises(ValueError):
            RingElement.from_text(text)

    def test_bad_coeffs_list_names_the_field(self):
        message = "coeffs: expected comma-separated integers, got '3,'"
        with pytest.raises(ValueError, match=message):
            RingElement.from_text("p=2;lambda=1;e=2;coeffs=3,")


def test_rows_per_reduction_bound():
    for q in (2, 3, 4, 2 ** 16, 7 ** 11, 3 ** 19, 2 ** 31):
        k = _rows_per_reduction(q)
        assert k >= 1
        assert q + k * (q - 1) ** 2 <= 2 ** 63 - 1 < q + (k + 1) * (q - 1) ** 2
    assert _rows_per_reduction(7 ** 11) == 2
    # k falls as q grows: the batched kernels always add two rows per reduction.
    assert _rows_per_reduction(RING_CHAR_CAP) >= 2


def test_float_terms_bound():
    # The float64 product's chunk: the largest k with k(q-1)^2 <= 2^53.
    for q in (2, 3, 4, 9, 2 ** 16, 2 ** 26, 3 ** 16, 5 ** 11, 7 ** 9, 2 ** 27, 7 ** 11, 2 ** 31):
        k = _float_terms(q)
        assert k * (q - 1) ** 2 <= 2 ** 53 < (k + 1) * (q - 1) ** 2
    # int64 takes over just past each p's largest float-path modulus.
    for p, e in ((2, 26), (3, 16), (5, 11), (7, 9)):
        assert _float_terms(p ** e) >= 1 and _float_terms(p ** (e + 1)) == 0
