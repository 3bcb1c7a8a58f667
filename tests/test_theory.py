import pytest
from hypothesis import given
from hypothesis import strategies as st

from punits import theory
from punits.pgroup import GroupSpec
from punits.theory import (
    AbelianInvariants,
    dimension_subgroup,
    p_rank_vzp,
    s_and_l,
    structure_report,
    v_invariants,
    v_order_exp,
    v_p_torsion_exp,
    vzp_factor_counts,
)

from .helpers import small_specs


class TestAbelianInvariants:
    def test_normalization(self):
        inv = AbelianInvariants(((2, 1), (1, 2), (0, 5), (3, 0)))
        assert inv.entries == ((1, 2), (2, 1))
        assert inv.size_exp() == 4
        assert inv.p_rank() == 3
        assert inv.exponent_exp() == 2
        assert inv.factor_exps() == (1, 1, 2)

    def test_describe(self):
        inv = AbelianInvariants(((1, 2), (2, 1)))
        assert inv.describe(2) == "C_2^2 × C_4"
        assert AbelianInvariants.trivial().describe(2) == "1"

    def test_describe_huge_orders_as_powers(self):
        inv = AbelianInvariants(((64, 1), (65, 2), (10 ** 6, 1)))
        assert inv.describe(2) == f"C_{2 ** 64} × C_{{2^65}}^2 × C_{{2^1000000}}"

    def test_pairs_round_trip(self):
        inv = AbelianInvariants(((1, 4), (3, 1)))
        assert AbelianInvariants.from_pairs(inv.to_pairs()) == inv

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            AbelianInvariants(((-1, 2),))


class TestOrderFormulas:
    @pytest.mark.parametrize(
        "p,lams,e,expected",
        [(2, (1,), 2, 2), (3, (1,), 2, 4), (2, (1, 1), 2, 6)],
    )
    def test_v_order_exp(self, p, lams, e, expected):
        assert v_order_exp(GroupSpec(p, lams), e) == expected

    @pytest.mark.parametrize(
        "p,lams,expected", [(2, (2,), 2), (3, (1,), 2), (2, (1, 1), 3)]
    )
    def test_p_rank(self, p, lams, expected):
        assert p_rank_vzp(GroupSpec(p, lams)) == expected

    @pytest.mark.parametrize(
        "p,lams,expected",
        [
            (2, (1, 1), [3]),  # V(Z_2 (C_2 x C_2)) = C_2^3
            (2, (2,), [1, 1]),  # V(Z_2 C_4) = C_4 x C_2
            (3, (1,), [2]),  # V(Z_3 C_3) = C_3^2
        ],
    )
    def test_factor_counts(self, p, lams, expected):
        assert vzp_factor_counts(GroupSpec(p, lams)) == expected

    def test_factor_counts_sum_to_rank(self):
        for spec in small_specs(6):
            assert sum(vzp_factor_counts(spec)) == p_rank_vzp(spec)


class TestComplement:
    @pytest.mark.parametrize(
        "p,lams,s,l",
        [
            (2, (1, 1), (1,), 2),
            (3, (1,), (1,), 1),
            (2, (1,), (0,), 1),
        ],
    )
    def test_s_and_l_examples(self, p, lams, s, l):
        assert s_and_l(GroupSpec(p, lams)) == (s, l)

    def test_counts_are_nonnegative_and_bounded(self):
        for spec in small_specs(6):
            s, l = s_and_l(spec)
            assert all(si >= 0 for si in s)
            assert l >= 0
            assert l + sum(s) == spec.order() - 1


class TestVInvariants:
    @pytest.mark.parametrize(
        "p,lams,e,entries",
        [
            (2, (1,), 3, ((1, 1), (2, 1))),  # C_2 x C_4
            (3, (1,), 2, ((1, 2), (2, 1))),  # C_3^2 x C_9
            (2, (1, 1), 2, ((1, 4), (2, 1))),  # C_2^4 x C_4
        ],
    )
    def test_examples(self, p, lams, e, entries):
        assert v_invariants(GroupSpec(p, lams), e).entries == entries

    def test_size_exponent_consistency(self):
        # |V| = p^{e(|G|-1)} for every suite spec and e <= 5
        for spec in small_specs(5):
            for e in range(1, 6):
                inv = v_invariants(spec, e)
                assert inv.size_exp() == v_order_exp(spec, e)

    def test_e1_matches_factor_counts(self):
        # at e = 1 the decomposition G x L collapses to the t_i counts
        for spec in small_specs(5):
            counts = vzp_factor_counts(spec)
            expected = AbelianInvariants(
                tuple((i, t) for i, t in enumerate(counts, start=1))
            )
            assert v_invariants(spec, 1) == expected

    def test_e_recursion(self):
        # raising every complement factor by one (and re-adding the l
        # factors that were trivial at e = 1) steps e-1 -> e
        for spec in small_specs(4):
            s, l = s_and_l(spec)
            for e in range(2, 6):
                prev = v_invariants(spec, e - 1).factor_exps()
                group = tuple(sorted(spec.lambdas))
                prev_l = list(prev)
                for g in group:
                    prev_l.remove(g)
                raised = [f + 1 for f in prev_l]
                if e == 2:
                    raised += [1] * l
                expected = AbelianInvariants.from_factor_exps(list(group) + raised)
                assert v_invariants(spec, e) == expected

    def test_determinism_across_equal_specs(self):
        a = GroupSpec(2, (1, 2))
        b = GroupSpec(2, (2, 1))
        assert structure_report(a, 3) == structure_report(b, 3)

    def test_rejects_bad_e(self):
        with pytest.raises(ValueError):
            v_invariants(GroupSpec(2, (1,)), 0)

    @given(data=st.data())
    def test_equals_the_expanded_factor_list(self, data):
        # the direct (order_exp, multiplicity) construction against expanding
        # every factor into a list of length ~|G| and counting it back
        p = data.draw(st.sampled_from((2, 3, 5)))
        room = {2: 16, 3: 10, 5: 6}[p]  # |G| <= 2^16
        lams = [data.draw(st.integers(1, room))]
        while sum(lams) < room and data.draw(st.booleans()):
            lams.append(data.draw(st.integers(1, room - sum(lams))))
        spec, e = GroupSpec(p, tuple(lams)), data.draw(st.integers(1, 4))
        s, l = s_and_l(spec)
        exps = list(spec.lambdas) + [e - 1] * l
        exps += [i + e - 1 for i, si in enumerate(s, start=1) for _ in range(si)]
        assert v_invariants(spec, e) == AbelianInvariants.from_factor_exps(exps)


class TestTorsion:
    @pytest.mark.parametrize(
        "p,lams,e,expected",
        [
            (2, (1,), 2, 2),  # |V[2]| = 4
            (3, (1,), 2, 3),  # |V[3]| = 27
            (2, (2,), 1, 2),  # |V[2]| = 4 for V(Z_2 C_4) = C_4 x C_2
        ],
    )
    def test_examples(self, p, lams, e, expected):
        assert v_p_torsion_exp(GroupSpec(p, lams), e) == expected

    def test_matches_invariant_rank_for_e_ge_2(self):
        # every cyclic factor of V contributes one order-p subgroup
        for spec in small_specs(4):
            for e in (2, 3):
                inv = v_invariants(spec, e)
                assert v_p_torsion_exp(spec, e) == inv.p_rank()


class TestDimensionSubgroup:
    def test_n1_is_whole_group(self):
        assert dimension_subgroup(GroupSpec(2, (3,)), 2, 1) == 0
        assert dimension_subgroup(GroupSpec(3, (1, 1)), 5, 1) == 0

    def test_examples(self):
        assert dimension_subgroup(GroupSpec(2, (1,)), 1, 2) == 1  # D_2 = G^2
        assert dimension_subgroup(GroupSpec(2, (3,)), 2, 2) == 2  # D_2 = G^4

    def test_bracket_boundaries(self):
        spec = GroupSpec(2, (3,))
        # p^i < n <= p^{i+1} with p = 2
        assert dimension_subgroup(spec, 1, 2) == 1
        assert dimension_subgroup(spec, 1, 3) == 2
        assert dimension_subgroup(spec, 1, 4) == 2
        assert dimension_subgroup(spec, 1, 5) == 3
        spec3 = GroupSpec(3, (2,))
        assert dimension_subgroup(spec3, 2, 3) == 2
        assert dimension_subgroup(spec3, 2, 4) == 3
        assert dimension_subgroup(spec3, 2, 9) == 3
        assert dimension_subgroup(spec3, 2, 10) == 4

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            dimension_subgroup(GroupSpec(2, (1,)), 1, 0)


class TestStructureReport:
    @pytest.mark.parametrize("lams", [(21,), (3,) * 7])
    def test_groups_past_the_materialization_cap(self, lams):
        spec = GroupSpec(2, lams)
        rep = structure_report(spec, 2)
        assert rep.l + sum(rep.s) == 2 ** spec.size_exp - 1
        assert rep.v_order_exp == 2 * (2 ** spec.size_exp - 1)
        assert rep.v_invariants.size_exp() == rep.v_order_exp

    def test_fields_cohere(self):
        spec = GroupSpec(2, (1, 2))
        rep = structure_report(spec, 2)
        assert rep.v_order_exp == v_order_exp(spec, 2)
        assert rep.v_invariants == v_invariants(spec, 2)
        assert rep.l + sum(rep.s) == spec.order() - 1
        assert rep.p_rank == p_rank_vzp(spec)
        assert rep.describe().startswith("V ≅ ")

    def test_complement_data_computed_once(self, monkeypatch):
        calls = []

        def counted(spec):
            calls.append(spec)
            return s_and_l(spec)

        monkeypatch.setattr(theory, "s_and_l", counted)
        spec = GroupSpec(3, (2, 1))
        assert structure_report(spec, 3).v_invariants == v_invariants(spec, 3)
        assert calls == [spec, spec]  # one per call above
