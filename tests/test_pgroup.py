import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from punits.pgroup import (
    GroupSpec,
    agemo_order_exp,
    cyclic_factor_count,
    element,
    element_index,
    element_from_index,
    element_order,
    element_pow,
    enumerate_elements,
    gather_table,
    identity,
    is_prime,
    omega_order_exp,
    power_indices,
    product_index_table,
    radix_decode,
    radix_encode,
    socle_elements,
    socle_indices,
)

from .helpers import (
    iterated_element_order,
    reference_gather_table,
    reference_product_index_table,
    small_specs,
)


class TestGroupSpec:
    def test_canonicalizes_descending(self):
        assert GroupSpec(2, (1, 2)).lambdas == (2, 1)
        assert GroupSpec(2, (1, 2)) == GroupSpec(2, (2, 1))

    def test_rejects_composite_p(self):
        for bad in (0, 1, 4, 9, 15):
            with pytest.raises(ValueError):
                GroupSpec(bad, (1,))

    def test_refuses_p_past_2_to_the_64(self):
        with pytest.raises(ValueError, match="2\\^64"):
            GroupSpec(2 ** 89 - 1, (1,))

    def test_rejects_bad_lambdas(self):
        with pytest.raises(ValueError):
            GroupSpec(2, ())
        with pytest.raises(ValueError):
            GroupSpec(2, (1, 0))

    def test_order_and_cap(self):
        assert GroupSpec(2, (1, 2)).order() == 8
        with pytest.raises(ValueError):
            GroupSpec(2, (21,)).order()

    def test_text_round_trip(self):
        spec = GroupSpec(3, (2, 1, 1))
        assert GroupSpec.from_text(spec.to_text()) == spec
        assert GroupSpec.from_text("p=2;lambda=1,2") == GroupSpec(2, (2, 1))
        with pytest.raises(ValueError):
            GroupSpec.from_text("lambda=1,2")

    @pytest.mark.parametrize(
        "text", ["p=2;lambda=1;e=3", "p=2;lambda=1;junk=5", "p=2;p=3;lambda=1", "p=2;lambda"]
    )
    def test_text_refuses_unknown_and_repeated_keys(self, text):
        with pytest.raises(ValueError):
            GroupSpec.from_text(text)


def _trial_division(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


class TestIsPrime:
    def test_agrees_with_trial_division_below_10_to_the_5(self):
        assert [n for n in range(10 ** 5) if is_prime(n)] == [
            n for n in range(10 ** 5) if _trial_division(n)
        ]

    def test_strong_pseudoprimes_are_rejected(self):
        # 3215031751 is a strong pseudoprime to the bases 2, 3, 5, 7;
        # 3825123056546413051 to every prime base up to 31.
        assert not is_prime(3215031751)
        assert not is_prime(3825123056546413051)

    def test_largest_prime_below_2_to_the_64(self):
        assert is_prime(2 ** 64 - 59)
        assert not is_prime(2 ** 64 - 1)

    def test_refuses_2_to_the_64(self):
        with pytest.raises(ValueError):
            is_prime(2 ** 64)


class TestCountingFormulas:
    # |G^{p^i}| examples: squares of C_2 x C_4 form C_2, etc.
    @pytest.mark.parametrize(
        "p,lams,i,expected",
        [
            (2, (1, 2), 0, 3),
            (2, (1, 2), 1, 1),
            (3, (1,), 2, 0),
        ],
    )
    def test_agemo_examples(self, p, lams, i, expected):
        assert agemo_order_exp(GroupSpec(p, lams), i) == expected

    @pytest.mark.parametrize(
        "p,lams,i,expected",
        [
            (2, (1, 2), 1, 2),
            (2, (1, 2), 0, 0),
            (3, (2, 1), 2, 3),
        ],
    )
    def test_omega_examples(self, p, lams, i, expected):
        assert omega_order_exp(GroupSpec(p, lams), i) == expected

    @pytest.mark.parametrize(
        "lams,i,expected",
        [((1, 1), 1, 2), ((1, 2), 2, 1), ((1, 2), 3, 0)],
    )
    def test_cyclic_factor_count(self, lams, i, expected):
        assert cyclic_factor_count(GroupSpec(2, lams), i) == expected

    def test_factor_counts_sum_to_shape(self):
        for spec in small_specs(6):
            counts = [cyclic_factor_count(spec, i) for i in range(1, spec.lambdas[0] + 1)]
            assert sum(counts) == spec.k
            assert sum(i * c for i, c in enumerate(counts, start=1)) == spec.size_exp

    def test_agemo_omega_duality(self):
        # |G[p^i]| * |G^{p^i}| = |G| for every i
        for spec in small_specs(6):
            for i in range(spec.lambdas[0] + 3):
                assert (
                    omega_order_exp(spec, i) + agemo_order_exp(spec, i)
                    == spec.size_exp
                )

    def test_agemo_chain_log_concave(self):
        # first differences of the power-subgroup chain are nonincreasing
        for spec in small_specs(10):
            exps = [agemo_order_exp(spec, i) for i in range(spec.lambdas[0] + 2)]
            diffs = [a - b for a, b in zip(exps, exps[1:])]
            assert all(d1 >= d2 for d1, d2 in zip(diffs, diffs[1:]))


class TestElements:
    def test_element_pow_examples(self):
        spec = GroupSpec(2, (2, 1))  # C_4 x C_2, canonical order
        assert element_pow(spec, (1, 1), 2) == (2, 0)
        assert element_pow(spec, (3, 1), 0) == (0, 0)
        assert element_pow(GroupSpec(2, (2,)), (3,), 4) == (0,)

    def test_element_order_examples(self):
        spec = GroupSpec(2, (2, 1))
        assert element_order(spec, (2, 1)) == 2
        assert element_order(spec, (1, 0)) == 4
        assert element_order(spec, identity(spec)) == 1

    def test_element_order_matches_iterated_powering(self):
        for spec in small_specs(6):
            if spec.order() > 64:
                continue
            for g in enumerate_elements(spec):
                assert element_order(spec, g) == iterated_element_order(spec, g)

    def test_element_validates_and_reduces(self):
        spec = GroupSpec(2, (2, 1))
        assert element(spec, (5, 3)) == (1, 1)
        with pytest.raises(ValueError):
            element(spec, (1,))


class TestEnumeration:
    def test_mixed_radix_order(self):
        assert list(enumerate_elements(GroupSpec(2, (1,)))) == [(0,), (1,)]
        assert list(enumerate_elements(GroupSpec(2, (1, 1)))) == [
            (0, 0),
            (0, 1),
            (1, 0),
            (1, 1),
        ]

    def test_count(self):
        assert len(list(enumerate_elements(GroupSpec(2, (1, 2))))) == 8

    def test_identity_first_and_index_round_trip(self):
        for spec in small_specs(4):
            els = list(enumerate_elements(spec))
            assert els[0] == identity(spec)
            for i, g in enumerate(els):
                assert element_index(spec, g) == i
                assert element_from_index(spec, i) == g


class TestIndexCodec:
    """The codec's tables, power maps and G[p] against element-by-element
    references: every group with |G| <= 64 for p in {2, 3, 5}, C_49, and
    C_32 x C_32 at the dense table cap."""

    GROUPS = [g for g in small_specs(6, (2, 3, 5)) if g.order() <= 64] + [
        GroupSpec(7, (2,)),
        GroupSpec(2, (5, 5)),
    ]

    @pytest.mark.parametrize("group", GROUPS, ids=GroupSpec.to_text)
    def test_product_table_matches_element_mul(self, group):
        assert product_index_table(group) == reference_product_index_table(group)

    @pytest.mark.parametrize("group", GROUPS, ids=GroupSpec.to_text)
    def test_gather_table_matches_the_inverted_product_table(self, group):
        assert np.array_equal(gather_table(group), reference_gather_table(group))

    @pytest.mark.parametrize("group", GROUPS, ids=GroupSpec.to_text)
    def test_socle_matches_element_order(self, group):
        socle = [
            (i, g) for i, g in enumerate(enumerate_elements(group))
            if element_order(group, g) <= group.p
        ]
        assert socle_indices(group).tolist() == [i for i, _ in socle]
        assert socle_elements(group) == [g for _, g in socle]

    def test_tables_refuse_groups_past_the_cap(self):
        for table in (gather_table, product_index_table):
            with pytest.raises(ValueError, match="table cap"):
                table(GroupSpec(2, (11,)))

    @given(
        st.lists(st.integers(1, 50), min_size=1, max_size=6).flatmap(
            lambda radices: st.tuples(
                st.just(tuple(radices)),
                st.lists(
                    st.tuples(*(st.integers(0, r - 1) for r in radices)),
                    min_size=1,
                    max_size=8,
                ),
            )
        )
    )
    def test_round_trip_with_mixed_radices(self, case):
        radices, columns = case
        digits = np.array(columns, dtype=np.int64).T
        idx = radix_encode(digits, radices)
        assert idx.tolist() == np.ravel_multi_index(digits, radices).tolist()
        decoded = radix_decode(idx, radices, np.empty_like(digits))
        assert np.array_equal(decoded, digits)


class TestPowerIndices:
    SPECS = small_specs(4, (2, 3, 5))

    @staticmethod
    def _reference(group: GroupSpec, m: int) -> list[int]:
        # Positions in enumeration order, independent of the index codec.
        index = {g: i for i, g in enumerate(enumerate_elements(group))}
        return [index[element_pow(group, g, m)] for g in index]

    @given(st.sampled_from(SPECS), st.integers(0, 64))
    def test_matches_element_pow(self, group, m):
        assert power_indices(group, m).tolist() == self._reference(group, m)

    @pytest.mark.parametrize("group", SPECS, ids=GroupSpec.to_text)
    def test_zero_multiples_of_the_exponent_and_huge_powers(self, group):
        exponent = group.p ** group.exponent_exp
        for m in (0, exponent, 3 * exponent, exponent + 1, group.p ** 100 + 1):
            assert power_indices(group, m).tolist() == self._reference(group, m)
