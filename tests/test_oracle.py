import ctypes
import functools
import itertools
import os
import random
import sys
import textwrap
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from punits import cli, oracle, pgroup, theory, zpelin
from punits.cli import default_suite_config
from punits.oracle import (
    CHECKS,
    BudgetExceededError,
    OrderHistogram,
    Units,
    _batch_mul,
    _batch_order_exps,
    _units_at,
    enumerate_units,
    invariants_from_histogram,
    order_histogram,
    plan_checks,
    synthetic_census,
    unit_count,
    verify_check,
)
from punits.pgroup import GroupSpec, gather_table
from punits.ring import RingSpec, unit_order
from punits.theory import AbelianInvariants, v_invariants, v_order_exp
from punits.zpelin import ideal_power_form, nilpotency_index

from .helpers import alarm, fresh_python, partitions, random_normalized_unit, small_specs

Z2C2 = RingSpec(GroupSpec(2, (1,)), 1)
Z4C2 = RingSpec(GroupSpec(2, (1,)), 2)
Z9C3 = RingSpec(GroupSpec(3, (1,)), 2)
Z4V4 = RingSpec(GroupSpec(2, (1, 1)), 2)

# The rings of lemma5's differential test: p in {2, 3, 5}, |G| <= 8, e <= 3
# and |V| <= 2^16.
LEMMA5_RINGS = [
    rs
    for spec in small_specs(3, (2,)) + small_specs(1, (3, 5))
    for rs in (RingSpec(spec, e) for e in (1, 2, 3))
    if unit_count(rs) <= 1 << 16
]


class TestEnumeration:
    def test_z4c2_units(self):
        units = {u.coeffs for u in enumerate_units(Z4C2)}
        assert units == {(1, 0), (0, 1), (3, 2), (2, 3)}

    def test_z2c2_units(self):
        assert [u.coeffs for u in enumerate_units(Z2C2)] == [(0, 1), (1, 0)]

    def test_counts(self):
        assert len(list(enumerate_units(Z4V4))) == 64
        assert unit_count(Z4V4) == 64

    def test_every_yield_is_a_normalized_unit(self):
        from punits.ring import is_normalized_unit

        assert all(is_normalized_unit(u) for u in enumerate_units(Z9C3))

    def test_budget_is_a_hard_refusal(self):
        with pytest.raises(BudgetExceededError):
            list(enumerate_units(Z9C3, budget=80))
        with pytest.raises(BudgetExceededError):
            order_histogram(Z9C3, budget=80)

    def test_no_budget_admits_2_to_the_31_units(self):
        # Enumeration indices are int32: |V| = 2^31 is refused at once,
        # before anything of that size is allocated, and never planned.
        rs = RingSpec(GroupSpec(2, (1,)), 31)
        with pytest.raises(BudgetExceededError, match="int32"):
            order_histogram(rs, budget=1 << 40)
        assert [c for c, _ in plan_checks(rs, budget=1 << 40)] == ["lemma2"] + ["lemma9"] * 30


class TestBatchAgainstScalarReference:
    def test_unit_blocks_match_generator(self):
        for rs in (Z4C2, Z9C3, Z4V4):
            scalar = np.array([u.coeffs for u in enumerate_units(rs)])
            total = unit_count(rs)
            batch = np.hstack(
                [_units_at(rs, np.arange(lo, min(lo + 7, total)))
                 for lo in range(0, total, 7)]
            )
            assert (scalar.T == batch).all()

    def test_batch_mul_matches_reference_convolution(self):
        rng = random.Random(20)
        for rs in (Z4C2, Z9C3, Z4V4, RingSpec(GroupSpec(2, (2, 1)), 3)):
            tbl = gather_table(rs.group)
            xs = [random_normalized_unit(rng, rs) for _ in range(8)]
            ys = [random_normalized_unit(rng, rs) for _ in range(8)]
            expect = np.array([(x * y).coeffs for x, y in zip(xs, ys)])
            got = _batch_mul(
                tbl,
                rs.modulus,
                np.array([x.coeffs for x in xs]).T,
                np.array([y.coeffs for y in ys]).T,
            )
            assert (expect.T == got).all()

    def test_batch_orders_match_unit_order(self):
        for rs in (Z4C2, Z9C3, Z4V4):
            units = list(enumerate_units(rs))
            block = np.array([u.coeffs for u in units]).T
            exps = _batch_order_exps(Units(rs), block, 10)
            for u, m in zip(units, exps):
                assert unit_order(u) == rs.p ** int(m)


class TestHistogram:
    def test_examples(self):
        assert order_histogram(Z4C2).as_dict() == {0: 1, 1: 3}
        assert order_histogram(Z2C2).as_dict() == {0: 1, 1: 1}
        assert order_histogram(Z9C3).as_dict() == {0: 1, 1: 26, 2: 54}

    def test_total_is_unit_count(self):
        for rs in (Z4C2, Z9C3, Z4V4, RingSpec(GroupSpec(2, (2,)), 2)):
            assert order_histogram(rs).total() == unit_count(rs)

    def test_cumulative_log_concavity(self):
        # N_i = #elements of order dividing p^i has concave log_p
        for rs in (Z9C3, Z4V4, RingSpec(GroupSpec(2, (2,)), 3)):
            hist = order_histogram(rs).as_dict()
            running, ell = 0, []
            for k in range(max(hist) + 1):
                running += hist.get(k, 0)
                t = 0
                n = running
                while n % rs.p == 0:
                    n //= rs.p
                    t += 1
                assert n == 1
                ell.append(t)
            gaps = [b - a for a, b in zip(ell, ell[1:])]
            assert all(g1 >= g2 for g1, g2 in zip(gaps, gaps[1:]))

    def test_small_blocks_equal_one_block(self, monkeypatch):
        whole = order_histogram(Z4V4)
        monkeypatch.setattr(pgroup, "_BLOCK_ENTRIES", 5 * Z4V4.size)  # blocks of 5 units
        assert order_histogram(Z4V4) == whole

    @pytest.mark.parametrize("p, e", [(2, 18), (3, 6)])
    def test_census_allocates_a_mask_and_the_first_image(self, p, e):
        # Past the power map, the census holds one byte per representative
        # and the image of chi (at most N / p of them, as |ker chi| >= p) as
        # int64, and folds the image onto chi's domain a block at a time: a
        # count per representative (8 N) would not fit.  On C_2 the fold
        # reduces one digit, on C_3 two.
        import tracemalloc

        rs = RingSpec(GroupSpec(p, (1,)), e)
        units = Units(rs)
        n = len(units.power_map.one)
        assert n == unit_count(rs) // p ** (rs.size - 1)
        assert len(units.power_map.chi) == n // p ** (rs.size - 1)
        tracemalloc.start()
        try:
            units.census()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (1 + 8 / rs.p) * n + (64 << 10)

    @pytest.mark.parametrize(
        "rs",
        [
            rs
            for rs in (RingSpec(i.group, i.e) for i in default_suite_config().instances)
            if unit_count(rs) <= oracle.DEFAULT_BUDGET
        ],
        ids=lambda rs: rs.to_text(),
    )
    def test_folded_map_powers_the_domain_and_the_kernel_fibres(self, rs, monkeypatch):
        # Past the kernel checks, which power units of their own, the map
        # decodes and powers each unit of its domain once, for chi, and each
        # base index of ker chi once, for one: a map that fell back to
        # powering every base index would pass the census but not this
        # count.  The base indices it powers must be ker chi itself: when
        # Theorem 1 holds only one index per fibre of the fold has
        # rep^p = 1, so a map that powered that one alone would pass every
        # check.  Every catalog instance that builds a map is here: at e = 1
        # the map powers by the endomorphism g -> g^p induces (``_induced``)
        # over V, at e = 2 by products with chi over the base, and past that
        # with chi over V(Z_{p^{e-2}}G), C_2 at e = 18 and C_3 at e = 6 among
        # them.
        columns, decoded = [], []
        real_pow, real_induced = oracle._batch_pow, oracle._induced
        real_units_at, real_check = oracle._units_at, oracle._kernel_check

        def counted_pow(tbl, q, x, m):
            columns.append(x.shape[1])
            return real_pow(tbl, q, x, m)

        def counted_induced(x, group, s, q):
            columns.append(x.shape[1])
            return real_induced(x, group, s, q)

        def recorded(ring, idx, lift=None):
            decoded.extend((ring.e, i) for i in idx.tolist())
            return real_units_at(ring, idx, lift)

        def unrecorded(table, ring):
            kept = len(columns), len(decoded)
            result = real_check(table, ring)
            del columns[kept[0] :], decoded[kept[1] :]
            return result

        monkeypatch.setattr(oracle, "_batch_pow", counted_pow)
        monkeypatch.setattr(oracle, "_induced", counted_induced)
        monkeypatch.setattr(oracle, "_units_at", recorded)
        monkeypatch.setattr(oracle, "_kernel_check", unrecorded)
        pm = Units(rs).power_map
        monkeypatch.undo()
        base = RingSpec(rs.group, max(rs.e - 1, 1))
        assert (pm.base, pm.domain) == (base, RingSpec(rs.group, max(rs.e - 2, 1)))
        counts = order_histogram(base).as_dict()
        ident = base.modulus ** (base.size - 2)  # 1: its leading digit, at g = 1, is 1
        kernel = np.flatnonzero(pm.chi[pm.fold(np.arange(len(pm.one)))] == ident)
        assert len(kernel) == counts[0] + counts.get(1, 0)  # ker chi = V(base)[p]
        assert sum(columns) == len(pm.chi) + len(kernel)
        expected = [(pm.domain.e, i) for i in range(len(pm.chi))]
        expected += [(base.e, i) for i in kernel.tolist()]
        assert sorted(decoded) == sorted(expected)

    def test_power_map_reads_g_to_the_p_only_in_characteristic_p(self, monkeypatch):
        # At e >= 2 the map powers units by products; only e = 1 maps them
        # along g -> g^p, ``_induced`` with s = 1.
        powers, real = [], oracle._induced

        def recorded(x, group, s, q):
            powers.append(s)
            return real(x, group, s, q)

        monkeypatch.setattr(oracle, "_induced", recorded)
        Units(Z4V4).power_map
        assert powers == []
        Units(RingSpec(GroupSpec(2, (1, 1)), 1)).power_map
        assert set(powers) == {1}


class TestInvariantRecovery:
    def test_examples(self):
        h = OrderHistogram(((0, 1), (1, 3)))
        assert invariants_from_histogram(h, 2).entries == ((1, 2),)
        h = OrderHistogram(((0, 1), (1, 3), (2, 4)))
        assert invariants_from_histogram(h, 2).entries == ((1, 1), (2, 1))
        h = OrderHistogram(((0, 1), (1, 8)))
        assert invariants_from_histogram(h, 3).entries == ((1, 2),)

    def test_repeated_exponents_add_up(self):
        # As AbelianInvariants does: the two counts of order 2 are one.
        h = OrderHistogram(((0, 1), (1, 2), (1, 1)))
        assert h.counts == ((0, 1), (1, 3))
        assert h.total() == sum(h.as_dict().values()) == 4
        assert invariants_from_histogram(h, 2).entries == ((1, 2),)

    def test_rejects_inconsistent_histograms(self):
        with pytest.raises(ValueError):
            invariants_from_histogram(OrderHistogram(((0, 2), (1, 2))), 2)
        with pytest.raises(ValueError):
            invariants_from_histogram(OrderHistogram(((0, 1), (1, 4))), 2)
        # counts whose multiplicities go negative: N = 1, 4, 8, 16 needs
        # m_1 = 2*2-0-3 = 1, m_2 = 2*3-2-4 = 0, m_3 = 1 -- consistent; use
        # N = 1, 2, 8 instead: m_1 = 2-0-3 < 0
        with pytest.raises(ValueError):
            invariants_from_histogram(OrderHistogram(((0, 1), (1, 1), (2, 6))), 2)

    def test_round_trip_on_synthetic_censuses(self):
        for p in (2, 3):
            for size in range(1, 9):
                for lams in partitions(size):
                    inv = AbelianInvariants.from_factor_exps(lams)
                    census = synthetic_census(inv, p)
                    assert census.total() == p ** size
                    assert invariants_from_histogram(census, p) == inv


class TestChecks:
    def test_theorem2_passes_on_paper_instance(self):
        report = verify_check("theorem2", RingSpec(GroupSpec(2, (1,)), 3))
        assert report.passed
        assert report.predicted["invariants"] == [
            {"order_exp": 1, "multiplicity": 1},
            {"order_exp": 2, "multiplicity": 1},
        ]

    def test_theorem2_matches_oracle_for_mixed_group(self):
        rs = RingSpec(GroupSpec(2, (2, 1)), 2)
        hist = order_histogram(rs)
        assert invariants_from_histogram(hist, 2) == v_invariants(rs.group, 2)

    def test_theorem1_counts_socle(self):
        report = verify_check("theorem1", Z9C3)
        assert report.passed
        assert report.observed["order_dividing_p"] == 27

    def test_lemma3_dimension_subgroup_example(self):
        rs = RingSpec(GroupSpec(2, (3,)), 2)
        report = verify_check("lemma3", rs, {"n": 2})
        assert report.passed
        # D_2(Z_4 C_8) = G^4 = {1, g^4}
        assert report.predicted["elements"] == [[0], [4]]

    def test_lemma9_exhaustive_small(self):
        report = verify_check("lemma9", RingSpec(GroupSpec(2, (2,)), 3), {"d": 1})
        assert report.passed
        assert report.predicted["cases"] == 8 ** 4 - 1
        assert report.predicted["exceptional"] == 3072  # asserted like the rest

    def test_lemma9_random_is_seed_deterministic(self):
        rs = RingSpec(GroupSpec(2, (1,)), 5)
        a = verify_check("lemma9", rs, {"d": 2}, seed=11)
        b = verify_check("lemma9", rs, {"d": 2}, seed=11)
        c = verify_check("lemma9", rs, {"d": 2}, seed=12)
        assert a == b
        assert a.seed != c.seed

    # Each verdict must be able to fail: the tests below wrap the kernel a
    # check reads so that its observed side is off, and require the report,
    # not a traceback, to say so in the field that reads it.

    @staticmethod
    def _edited(monkeypatch, owner, name, edit):
        # Wrap the function owner.name so that edit changes what it returns.
        inner = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args: edit(inner(*args)))

    @classmethod
    def _lemma9_off_by_one(cls, monkeypatch, where):
        # The lemma9 pass, predicting one more than the closed form on the
        # columns where(lem) marks.
        cls._edited(monkeypatch, oracle, "_lemma9_pass", lambda out: {
            d: replace(lem, predicted=lem.predicted + where(lem)) for d, lem in out.items()
        })

    @classmethod
    def _form_edited(cls, monkeypatch, m, name, edit):
        # R_m, the remainder block of w^m (zpelin._remainder), whose method
        # name (contains or coset_keys) has each answer changed in place by
        # edit(vecs, answer).  The forms, and the depth tables read off
        # them, come from fresh caches for the test, so no table cached
        # before it answers in place of the edited form, and none read off
        # it outlives it.
        def form(R):
            def method(vecs):
                answer = getattr(R, name)(vecs)
                edit(vecs, answer)
                return answer

            return SimpleNamespace(size_exp=R.size_exp, **{name: method})

        def remainder(rs, n):
            R, low, size = inner(rs, n)
            return (form(R) if n == m else R), low, size

        inner = zpelin._remainder.__wrapped__
        edited = functools.cache(remainder)
        monkeypatch.setattr(zpelin, "_remainder", edited)
        monkeypatch.setattr(oracle, "_remainder", edited)
        monkeypatch.setattr(zpelin, "_depths", functools.cache(zpelin._depths.__wrapped__))

    def test_lemma5_fails_on_a_miscounted_layer(self, monkeypatch):
        # Z_3 C_3 has |1 + w^m| = 9, 3, 1.  The first call of R_2's keys is
        # the lo side's; with the key of lo = 0 edited to match no hi key,
        # the one unit of 1 + w^2 with lo = 0 (the identity) is not counted.
        # Counted as 2, the second layer makes both ratios that read it
        # wrong: 9 / 2 is no integer and 2 / 1 no power of 3.  The check
        # reports them, and fails.
        rs = RingSpec(GroupSpec(3, (1,)), 1)
        assert verify_check("lemma5", rs).passed
        calls = []

        def first_lo_apart(vecs, keys):
            if not calls:
                keys[0] = -1
            calls.append(vecs.shape[1])

        self._form_edited(monkeypatch, 2, "coset_keys", first_lo_apart)
        report = verify_check("lemma5", rs)
        assert calls == [3, 3]  # one block of each side
        assert not report.passed
        assert report.predicted == {"layer_ratio_exps": [1, 1, 0]}
        assert report.observed == {"layer_ratio_exps": [-1, -1, 0]}

    def test_lemma3_fails_on_a_flipped_membership(self, monkeypatch):
        # D_2(Z_4 C_8) = {1, g^4}.  The g tested against R_2 are those whose
        # g - 1 has least degree 1, g^7 the last of them; read as a member of
        # w^2, g^7 - 1 adds g^7.
        rs = RingSpec(GroupSpec(2, (3,)), 2)

        def flip_last(vecs, member):
            member[-1] = ~member[-1]

        self._form_edited(monkeypatch, 2, "contains", flip_last)
        report = verify_check("lemma3", rs, {"n": 2})
        assert not report.passed
        assert report.predicted == {"elements": [[0], [4]]}
        assert report.observed == {"elements": [[0], [4], [7]]}
        # The walk raises g^7 one level: tested next against R_3, which is
        # not edited, it fails there, so D_3 = {1} is still read right.
        assert verify_check("lemma3", rs, {"n": 3}).passed

    def test_lemma3_fails_on_a_flipped_membership_in_a_split_group(self, monkeypatch):
        # D_2(Z_4[C_8 x C_2]) = {1, a^4} x {1}.  The g tested against R_2
        # are those whose g - 1 has least degree 1, a^7 b the last of them;
        # read as a member of w^2 (and not of w^3, where its test is not
        # edited), a^7 b - 1 adds (7, 1).
        rs = RingSpec(GroupSpec(2, (3, 1)), 2)

        def flip_last(vecs, member):
            member[-1] = ~member[-1]

        self._form_edited(monkeypatch, 2, "contains", flip_last)
        report = verify_check("lemma3", rs, {"n": 2})
        assert not report.passed
        assert report.predicted == {"elements": [[0, 0], [4, 0]]}
        assert report.observed == {"elements": [[0, 0], [4, 0], [7, 1]]}

    def test_lemma3_fails_at_e1_on_a_raised_degree(self, monkeypatch):
        # D_2(F_2 C_8) = G^2.  g - 1 = x has depth 1, its least degree;
        # read as 2, g - 1 is a member of w^2, and g joins the observed set.
        rs = RingSpec(GroupSpec(2, (3,)), 1)
        assert verify_check("lemma3", rs, {"n": 2}).passed

        def raised(depth):
            depth = depth.copy()
            depth[1] += 1
            return depth

        self._edited(monkeypatch, zpelin, "_depths", raised)
        report = verify_check("lemma3", rs, {"n": 2})
        assert not report.passed
        assert report.predicted == {"elements": [[0], [2], [4], [6]]}
        assert report.observed == {"elements": [[0], [1], [2], [4], [6]]}

    def test_lemma2_fails_on_a_wrong_power(self, monkeypatch):
        # One coefficient of (1 - g)^{2^e} off in P[e].  Each case compares
        # column g of P[l] with column g of P[l - s] mapped along g -> g^{2^s},
        # so four cases read the wrong column against a right one:
        # (l, s) = (e, 1), (e+1, 1), (e+2, 2) and (e+3, 3).
        rs = RingSpec(GroupSpec(2, (2,)), 2)
        assert verify_check("lemma2", rs).passed

        def one_off(P):
            P[rs.e][0, 1] = (P[rs.e][0, 1] + 1) % rs.modulus
            return P

        self._edited(monkeypatch, oracle, "_lemma2_powers", one_off)
        report = verify_check("lemma2", rs)
        assert not report.passed
        assert report.observed == {"cases": report.predicted["cases"], "violations": 4}

    def test_lemma4_fails_on_a_wrong_p_rank(self, monkeypatch, capsys):
        # structure_report's p-rank at e = 1 one too large: lemma4 predicts
        # |V[p]| = p^{p_rank_vzp(G)} from it, 2^13 for Z_2(C_4 x C_4), where
        # |G| - |G^2| = 12, and the default suite, which runs lemma4 there,
        # exits 1.
        report = theory.structure_report

        def raised(spec, e):
            rep = report(spec, e)
            return replace(rep, v_p_torsion_exp=rep.v_p_torsion_exp + (e == 1))

        monkeypatch.setattr(theory, "structure_report", raised)
        got = verify_check("lemma4", RingSpec(GroupSpec(2, (2, 2)), 1))
        assert not got.passed
        assert got.predicted == {"unit_count": 2 ** 13, "outside_ideal": 0}
        assert got.observed == {"unit_count": 2 ** 12, "outside_ideal": 0}
        assert cli.main(["suite"]) == 1
        capsys.readouterr()

    def test_lemma6_fails_on_a_miscounted_kernel(self, monkeypatch):
        # |K| = 3^2 for Z_9 C_3, counted as 10.
        kernel = Units.kernel.func

        def miscounted(units):
            size, violations = kernel(units)
            return size + 1, violations

        monkeypatch.setattr(Units, "kernel", property(miscounted))
        report = verify_check("lemma6", Z9C3)
        assert not report.passed
        assert report.predicted == {"kernel_size": 9, "order_p_violations": 0}
        assert report.observed == {"kernel_size": 10, "order_p_violations": 0}

    def test_lemma6_fails_on_an_element_of_k_not_of_order_p(self, monkeypatch):
        # One k in K of Z_9 C_3 powered one off, so that k^3 != 1 for it
        # alone: lemma6 counts it, and the power map, whose quotient by K
        # rests on K^p = 1, is built over V itself.
        kernel, batch_pow = Units.kernel.func, oracle._batch_pow

        def one_off(tbl, q, x, m):
            out = batch_pow(tbl, q, x, m)
            out[0, 0] = (out[0, 0] + 1) % q
            return out

        def counted(units):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(oracle, "_batch_pow", one_off)
                return kernel(units)

        monkeypatch.setattr(Units, "kernel", property(counted))
        units = Units(Z9C3)
        report = verify_check("lemma6", units)
        assert not report.passed
        assert report.observed == {"kernel_size": 9, "order_p_violations": 1}
        assert (units.power_map.base, units.power_map.mult) == (Z9C3, 1)

    @pytest.mark.parametrize(
        "edit, observed",
        [
            # One representative fewer: 9 units per representative missing.
            (lambda reps: reps[:, 1:], {"order_dividing_p": 18, "outside_socle_form": 0}),
            # One more on each coefficient of one representative: its
            # residue mod 3, and so each of the 9 units it stands for, is
            # outside the socle form.
            (
                lambda reps: np.c_[reps[:, :1] + 1, reps[:, 1:]],
                {"order_dividing_p": 27, "outside_socle_form": 9},
            ),
        ],
        ids=["count", "socle"],
    )
    def test_theorem1_fails_on_a_wrong_unit_of_order_p(self, monkeypatch, edit, observed):
        # |V[3]| = 27 for Z_9 C_3, read off 3 representatives.
        self._edited(monkeypatch, Units, "p_torsion", edit)
        report = verify_check("theorem1", Z9C3)
        assert not report.passed
        assert report.observed == observed

    def test_theorem2_fails_on_a_moved_census_entry(self, monkeypatch):
        # V(Z_8 C_2) = C_2 x C_4 has 4 units of order 4; counted of order 2,
        # the census is that of C_2^3.
        rs = RingSpec(GroupSpec(2, (1,)), 3)

        def moved_down(census):
            *rest, (k, count) = census.counts
            return OrderHistogram((*rest, (k - 1, count)))

        self._edited(monkeypatch, Units, "census", moved_down)
        report = verify_check("theorem2", rs)
        assert not report.passed
        assert report.observed == {"invariants": [{"order_exp": 1, "multiplicity": 3}]}

    def test_lemma9_exceptional_units_are_compared(self, monkeypatch):
        # Every exceptional unit of Z_8 C_4 (p = 2, d = 1) is held to its
        # predicted order: one off on those columns alone fails all 3072.
        rs = RingSpec(GroupSpec(2, (2,)), 3)
        self._lemma9_off_by_one(monkeypatch, lambda lem: lem.exceptional)
        report = verify_check("lemma9", rs, {"d": 1})
        assert not report.passed
        assert report.observed["mismatches"] == report.observed["exceptional"] == 3072
        # The case needs p = 2 and d = 1: elsewhere no column is exceptional.
        for other, d in ((rs, 2), (RingSpec(GroupSpec(3, (1,)), 2), 1)):
            report = verify_check("lemma9", other, {"d": d})
            assert report.passed and report.observed["exceptional"] == 0

    def test_lemma9_units_of_order_1_are_compared(self, monkeypatch):
        # The exhaustive candidates of Z_4 C_2 at d = 1 hold the 3 nonzero y
        # divisible by 2, for which 1 + 2y = 1: one off on those alone fails.
        rs = RingSpec(GroupSpec(2, (1,)), 2)
        self._lemma9_off_by_one(monkeypatch, lambda lem: lem.measured == 0)
        report = verify_check("lemma9", rs, {"d": 1})
        assert not report.passed
        assert report.observed["mismatches"] == 3
        assert report.observed["order_bound_violations"] == 0

    def test_lemma9_fails_on_a_unit_past_its_order_bound(self, monkeypatch):
        # One unit of Z_4 C_2 at d = 1 read as of order beyond p^{e-d}: it
        # counts as a bound violation and not as a mismatch, and fails.
        rs = RingSpec(GroupSpec(2, (1,)), 2)

        def first_unbounded(orders):
            orders[0] = -1
            return orders

        self._edited(monkeypatch, oracle, "_batch_order_exps", first_unbounded)
        report = verify_check("lemma9", rs, {"d": 1})
        assert not report.passed
        assert report.observed["order_bound_violations"] == 1
        assert report.observed["mismatches"] == 0

    @pytest.mark.parametrize(
        "rs", [RingSpec(GroupSpec(2, (1,)), 5), RingSpec(GroupSpec(2, (2, 1)), 3)]
    )
    @pytest.mark.parametrize("seed", [0, 1, 29, oracle.SEED_MAX])
    def test_lemma9_exceptional_units_are_compared_on_random_draws(
        self, rs, seed, monkeypatch
    ):
        # Random candidates, any seed: the draw for d = 1 holds exceptional
        # units, they pass as drawn, and one off on them alone fails each.
        report = verify_check("lemma9", rs, {"d": 1}, seed=seed)
        assert report.passed
        assert report.observed["cases"] == oracle._LEMMA9_SAMPLES
        exceptional = report.observed["exceptional"]
        assert exceptional > 0
        self._lemma9_off_by_one(monkeypatch, lambda lem: lem.exceptional)
        wrong = verify_check("lemma9", rs, {"d": 1}, seed=seed)
        assert not wrong.passed and wrong.seed == report.seed
        assert wrong.observed["mismatches"] == wrong.observed["exceptional"] == exceptional

    @staticmethod
    def _recorded_draws(monkeypatch) -> list:
        # The seeds lemma9's candidates are drawn with, in the order drawn.
        seeds = []
        draw = oracle._lemma9_candidates

        def recorded(rs, seed):
            seeds.append(seed)
            return draw(rs, seed)

        monkeypatch.setattr(oracle, "_lemma9_candidates", recorded)
        return seeds

    def test_lemma9_draws_once_per_d(self, monkeypatch):
        from punits.cli import SuiteConfig, SuiteInstance, run_suite

        seeds = self._recorded_draws(monkeypatch)
        rs = RingSpec(GroupSpec(2, (1,)), 5)
        assert oracle._lemma9_chunks(rs, range(1, 5)) == [[1, 2, 3, 4]]
        # A bare-RingSpec call draws, and powers, each d of the chunk that
        # holds its d once, with the seed that d's report carries.
        verify_check("lemma9", rs, {"d": 2}, seed=3)
        drawn = list(seeds)
        units = Units(rs)
        reports = [verify_check("lemma9", units, {"d": d}, seed=3) for d in range(1, 5)]
        assert drawn == [r.seed for r in reports] and seeds == drawn + drawn
        # Another d of a chunk that has run draws nothing; a new seed on the
        # same Units draws the chunk again.
        seeds.clear()
        assert verify_check("lemma9", units, {"d": 3}, seed=3) == reports[2]
        assert seeds == []
        again = verify_check("lemma9", units, {"d": 3}, seed=4)
        assert len(seeds) == 4 and seeds[2] == again.seed != reports[2].seed
        # A suite run draws every d once, with the seed each report carries.
        seeds.clear()
        config = SuiteConfig((SuiteInstance(rs.group, rs.e),), checks=("lemma9",), seed=3)
        (inst,) = run_suite(config)
        assert seeds == [c.seed for c in inst.checks] and len(seeds) == rs.e - 1

    def test_lemma9_runs_only_the_chunk_of_d(self, monkeypatch):
        seeds = self._recorded_draws(monkeypatch)
        # C_7 at e = 11: nine d's of 7 x 1000 entries fit the budget.
        rs = RingSpec(GroupSpec(7, (1,)), 11)
        assert oracle._lemma9_chunks(rs, range(1, 11)) == [list(range(1, 10)), [10]]
        units = Units(rs)
        tenth = verify_check("lemma9", units, {"d": 10})
        assert seeds == [tenth.seed]
        seeds.clear()
        third = verify_check("lemma9", units, {"d": 3})
        assert len(seeds) == 9 and seeds[2] == third.seed
        seeds.clear()
        assert verify_check("lemma9", units, {"d": 10}) == tenth and seeds == []
        # From |G| = 33 on a chunk holds one d: a bare call draws its own.
        rs = RingSpec(GroupSpec(2, (6,)), 3)
        assert oracle._lemma9_chunks(rs, range(1, 3)) == [[1], [2]]
        seeds.clear()
        assert verify_check("lemma9", rs, {"d": 2}).seed == seeds[0] and len(seeds) == 1

    @pytest.mark.parametrize(
        "rs",
        [
            RingSpec(GroupSpec(2, (5, 5)), 6),  # the dense-table cap
            RingSpec(GroupSpec(2, (9,)), 8),
            RingSpec(GroupSpec(3, (2,)), 9),
            RingSpec(GroupSpec(2, (1,)), 20),
            RingSpec(GroupSpec(2, (2,)), 3),  # every y is tried
        ],
    )
    def test_stacked_lemma9_block_is_bounded(self, rs):
        # Planned only, never run: a chunk of stacked d's holds at most
        # _BLOCK_ENTRIES entries unless it is one d, no two neighbouring
        # chunks would fit together, and every column block powered fits.
        ds = range(1, rs.e)
        chunks = oracle._lemma9_chunks(rs, ds)
        assert [d for chunk in chunks for d in chunk] == list(ds)
        exhaustive = rs.size <= 4 and rs.e <= 3
        cols = rs.modulus ** rs.size - 1 if exhaustive else oracle._LEMMA9_SAMPLES
        entries = rs.size * cols  # one d's block
        budget = pgroup._BLOCK_ENTRIES
        assert all(len(chunk) == 1 or entries * len(chunk) <= budget for chunk in chunks)
        assert all(entries * (len(a) + len(b)) > budget for a, b in zip(chunks, chunks[1:]))
        for chunk in chunks:
            blocks = list(pgroup._blocks(cols * len(chunk), rs.size))
            assert blocks[0][0] == 0 and blocks[-1][1] == cols * len(chunk)
            assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
            assert all(lo < hi <= lo + budget // rs.size for lo, hi in blocks)

    def test_report_seed_is_the_seed_that_drew(self, monkeypatch):
        # The report names the seed its d's candidates were drawn with, also
        # when d is a numpy integer: d = 2 is the second d drawn of the
        # chunk [1, 2, 3, 4].
        seeds = self._recorded_draws(monkeypatch)
        rs = RingSpec(GroupSpec(2, (1,)), 5)
        for d in (2, np.int64(2)):
            seeds.clear()
            assert verify_check("lemma9", rs, {"d": d}, seed=3).seed == seeds[1]
            assert len(seeds) == 4

    def test_seed_outside_32_bits_is_refused(self):
        rs = RingSpec(GroupSpec(2, (1,)), 5)
        for seed in (-1, 1 << 32, True):
            with pytest.raises(ValueError, match="seed"):
                verify_check("lemma9", rs, {"d": 1}, seed=seed)
        assert verify_check("lemma9", rs, {"d": 1}, seed=oracle.SEED_MAX).passed

    def test_unknown_check_id(self):
        with pytest.raises(ValueError):
            verify_check("lemma1", Z4C2)

    @pytest.mark.parametrize("check, params", [("lemma3", {"n": 2}), ("lemma5", None)])
    def test_huge_group_is_refused_at_once(self, check, params):
        # |G| = 3^(2^32): the gate decides from the exponent, before the
        # ideal chain builds G's radices.
        with alarm(5), pytest.raises(ValueError, match="dense table cap"):
            verify_check(check, RingSpec(GroupSpec(3, (2 ** 32,)), 2), params)

    def test_check_requirements(self):
        with pytest.raises(ValueError):
            verify_check("theorem1", Z2C2)  # needs e >= 2
        with pytest.raises(ValueError):
            verify_check("lemma4", Z4C2)  # needs e = 1
        with pytest.raises(ValueError):
            verify_check("lemma9", Z4C2, {"d": 2})

    @pytest.mark.parametrize(
        "call, check",
        [
            (lambda rs: verify_check("lemma9", rs, {"d": 1.5}), "lemma9"),
            (lambda rs: verify_check("lemma9", rs, {"d": True}), "lemma9"),
            (lambda rs: verify_check("lemma9", rs, {"d": "1"}), "lemma9"),
            (lambda rs: verify_check("lemma9", rs), "lemma9"),
            (lambda rs: verify_check("lemma3", rs), "lemma3"),
            (lambda rs: verify_check("theorem2", rs, {"d": 1}), "theorem2"),
            (lambda rs: verify_check("lemma3", rs, {"n": 2, "x": 3}), "lemma3"),
            (lambda rs: plan_checks(rs, {"theorm2"}), "theorm2"),
        ],
        ids=["float", "bool", "str", "no d", "no n", "stray d", "stray x",
             "unknown id"],
    )
    def test_params_are_refused_naming_the_check(self, call, check):
        # The registry's gate: no report computed at another parameter or
        # seeded by a stray key, no KeyError or TypeError, no empty plan.
        with pytest.raises(ValueError) as info:
            call(RingSpec(GroupSpec(2, (2,)), 3))
        assert check in str(info.value) and "\n" not in str(info.value)

    def test_numpy_int_param_reads_as_int(self):
        rs = RingSpec(GroupSpec(2, (2,)), 3)
        report = verify_check("lemma9", rs, {"d": 1})
        assert verify_check("lemma9", rs, {"d": np.int64(1)}) == report
        assert report.check_id == "lemma9:d=1" and report.passed

    def test_budget_propagates(self):
        with pytest.raises(BudgetExceededError):
            verify_check("theorem2", Units(Z9C3, budget=80))

    def test_no_v_sized_array_at_e_at_least_2(self, monkeypatch):
        # On the default suite's e >= 2 instances the enumerative checks hold
        # no array with |V| or more columns: they read the power map's
        # |V| / p^{|G|-1} representatives, and lemma5 about sqrt|V| units a side.
        # Every array bound to a name in a punits frame is measured, line by
        # line, with blocks of 2^12 entries; instances whose units fit one
        # block are left out.
        monkeypatch.setattr(pgroup, "_BLOCK_ENTRIES", 1 << 12)
        package = os.path.dirname(oracle.__file__)
        checked = 0
        for inst in default_suite_config().instances:
            rs = RingSpec(inst.group, inst.e)
            plan = [(c, prm) for c, prm in plan_checks(rs) if CHECKS[c].enumerative]
            if rs.e < 2 or not plan or unit_count(rs) * rs.size <= pgroup._BLOCK_ENTRIES:
                continue
            widest = 0

            def trace(frame, event, arg):
                nonlocal widest
                if not frame.f_code.co_filename.startswith(package):
                    return None
                for v in frame.f_locals.values():
                    if isinstance(v, np.ndarray) and v.ndim:
                        widest = max(widest, v.shape[-1])
                return trace

            units = Units(rs)
            sys.settrace(trace)
            try:
                for check, params in plan:
                    assert verify_check(check, units, params).passed
            finally:
                sys.settrace(None)
            assert 0 < widest < unit_count(rs), rs
            checked += 1
        assert checked >= 10


class TestLemma5SplitCount:
    @given(st.sampled_from(LEMMA5_RINGS))
    def test_split_count_matches_a_scan(self, rs):
        # Every unit, decoded here digit by digit, is tested against every
        # w^m by membership; the split count must give each |1 + w^m|.
        q, n = rs.modulus, rs.size
        digits = np.array(list(itertools.product(range(q), repeat=n - 1)), dtype=np.int64)
        vecs = np.vstack([digits.T, (1 - digits.sum(axis=1)) % q])
        vecs[0] -= 1  # u - 1
        ms = range(1, nilpotency_index(rs) + 1)
        scanned = [int(np.count_nonzero(ideal_power_form(rs, m).contains(vecs))) for m in ms]
        assert oracle._layer_sizes(rs, [zpelin._remainder(rs, m) for m in ms]) == scanned
        assert scanned[0] == unit_count(rs) and scanned[-1] == 1

    def test_lemma5_at_3_squared_past_the_cap(self):
        # |G| = 9 is past lemma5's planner cap and |V| = 3^16 past the
        # default budget; scanning V took seconds, the split count reads
        # 2 * 3^8 units.
        units = Units(RingSpec(GroupSpec(3, (1, 1)), 2), (1 << 31) - 1)
        with alarm(5):
            assert verify_check("lemma5", units).passed


class TestWorkingSet:
    """Each batched kernel allocates, above what it leaves live, at most
    eight blocks of _BLOCK_ENTRIES int64 entries (lemma2, which holds five
    powers of a block at once, sixteen; lemma9, eight besides its draw of
    |G| x 1000 candidates), on rings whose units or columns span several
    blocks; at a smaller budget its allocation shrinks with it
    (tracemalloc, which numpy's allocations report to).  The gather table
    is built beforehand."""

    BUDGETS = [1 << 13, pgroup._BLOCK_ENTRIES]

    @staticmethod
    def transient(build) -> int:
        import tracemalloc

        tracemalloc.start()
        try:
            kept = build()  # noqa: F841  live until the memory is read
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak - current

    @staticmethod
    def units(p, lams, e, budget=oracle.DEFAULT_BUDGET) -> Units:
        units = Units(RingSpec(GroupSpec(p, lams), e), budget)
        units.table
        return units

    @pytest.mark.parametrize("budget", BUDGETS)
    @pytest.mark.parametrize("lams, e", [((2, 2), 1), ((1,), 18)])
    def test_power_map(self, lams, e, budget, monkeypatch):
        # 2^15 units of 16 coefficients, and 2^17 representatives of 2.
        monkeypatch.setattr(pgroup, "_BLOCK_ENTRIES", budget)
        units = self.units(2, lams, e)
        if e >= 2:
            units.kernel
        assert self.transient(lambda: units.power_map) <= 8 * budget * 8
        assert units.rs.size * len(units.power_map.one) >= 4 * budget

    @pytest.mark.parametrize("budget", BUDGETS)
    def test_kernel(self, budget, monkeypatch):
        # |K| = 2^15 elements of 16 coefficients.
        monkeypatch.setattr(pgroup, "_BLOCK_ENTRIES", budget)
        units = self.units(2, (1, 1, 1, 1), 2, budget=1 << 30)
        assert self.transient(lambda: units.kernel) <= 8 * budget * 8
        assert units.kernel == (1 << 15, 0)

    @pytest.mark.parametrize("budget", BUDGETS)
    def test_lemma5_split_count(self, budget, monkeypatch):
        # 2^15 units of 16 coefficients, split 2^7 by 2^8; the Howell forms
        # are built by the first, untraced call.
        monkeypatch.setattr(pgroup, "_BLOCK_ENTRIES", budget)
        units = self.units(2, (2, 2), 1)
        assert verify_check("lemma5", units).passed
        assert self.transient(lambda: verify_check("lemma5", units)) <= 8 * budget * 8

    @pytest.mark.parametrize("budget", BUDGETS)
    def test_lemma2(self, budget, monkeypatch):
        # 256 columns of 256 coefficients: 8 blocks at 2^13, 1 at the default.
        monkeypatch.setattr(pgroup, "_BLOCK_ENTRIES", budget)
        units = self.units(2, (4, 4), 1)
        report = verify_check("lemma2", units)
        assert report.passed and report.observed["cases"] == 14 * 256
        assert self.transient(lambda: verify_check("lemma2", units)) <= 16 * budget * 8

    def test_lemma9_pass(self):
        # Seven d's of 1000 candidates with 16 coefficients each, in two or
        # more chunks of stacked d's, each passed on its own.
        units = self.units(2, (2, 2), 8)
        chunks = oracle._lemma9_chunks(units.rs, range(1, 8))
        assert len(chunks) >= 2
        for ds in chunks:
            allocated = self.transient(lambda: oracle._lemma9_pass(units, {d: d for d in ds}))
            assert allocated <= 8 * pgroup._BLOCK_ENTRIES * 8

    @pytest.mark.parametrize("budget", BUDGETS)
    def test_lemma9_pass_in_column_blocks(self, budget, monkeypatch):
        # One d of 1000 candidates with 256 coefficients: 32 blocks at 2^13,
        # 4 at the default, every unit exceptional (p = 2, d = 1).
        monkeypatch.setattr(pgroup, "_BLOCK_ENTRIES", budget)
        units = self.units(2, (4, 4), 2)
        draw = units.rs.size * oracle._LEMMA9_SAMPLES * 8
        allocated = self.transient(lambda: oracle._lemma9_pass(units, {1: 1}))
        assert allocated <= draw + 8 * budget * 8


def _has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


class TestFreedBlocks:
    """The first Units of a process sets glibc's mmap and trim thresholds
    once (``oracle._keep_freed_blocks``), so that the block kernels' freed
    arrays stay mapped for the next block; where there is no mallopt,
    nothing is set and nothing is raised."""

    @pytest.fixture
    def unset(self):
        # The helper as if no Units had been made; afterwards the real
        # settings are made again.
        oracle._keep_freed_blocks.cache_clear()
        yield
        oracle._keep_freed_blocks.cache_clear()
        oracle._keep_freed_blocks()

    def test_mallopt_runs_once_per_process(self, unset, monkeypatch):
        calls = []
        libc = SimpleNamespace(mallopt=lambda param, value: calls.append((param, value)) or 1)
        monkeypatch.setattr(oracle.ctypes, "CDLL", lambda name: libc)
        assert verify_check("theorem2", Z4C2).passed
        assert verify_check("lemma9", Units(Z9C3), {"d": 1}).passed
        assert calls == [(-3, 32 << 20), (-1, 64 << 20)]

    @staticmethod
    def _no_library(name):
        raise OSError("no C library")

    @pytest.mark.parametrize("cdll", [_no_library, lambda name: object()], ids=["oserror", "no-mallopt"])
    def test_units_work_without_mallopt(self, unset, monkeypatch, cdll):
        monkeypatch.setattr(oracle.ctypes, "CDLL", cdll)
        assert verify_check("theorem2", Z4C2).passed
        assert verify_check("theorem1", Units(Z9C3)).passed

    @pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
    def test_block_kernels_fault_few_pages(self):
        # A fresh process's theorem1, theorem2 and lemma9 at every d on
        # Z_{2^20} C_2: about 4,000 minor faults when glibc trims the heap
        # after every block, about 1,300 when the freed blocks stay mapped.
        code = """
            import resource
            from punits import oracle
            from punits.pgroup import GroupSpec
            from punits.ring import RingSpec

            units = oracle.Units(RingSpec(GroupSpec(2, (1,)), 20))
            checks = [("theorem1", None), ("theorem2", None)]
            checks += [("lemma9", {"d": d}) for d in range(1, 20)]
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            assert all(oracle.verify_check(c, units, params).passed for c, params in checks)
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
            """
        proc = fresh_python("-c", textwrap.dedent(code))
        assert proc.returncode == 0, proc.stderr.decode()
        assert int(proc.stdout) < 2000


class TestPlanner:
    def test_plan_for_e1(self):
        plans = plan_checks(Z2C2)
        names = [c for c, _ in plans]
        assert "theorem2" in names
        assert "lemma4" in names
        assert "theorem1" not in names
        assert "lemma6" not in names
        assert "lemma9" not in names

    def test_plan_for_e2(self):
        names = [c for c, _ in plan_checks(Z4C2)]
        assert names.count("lemma9") == 1
        assert "theorem1" in names
        assert "lemma4" not in names

    def test_budget_drops_only_enumeration_checks(self):
        names = [c for c, _ in plan_checks(Z9C3, budget=10)]
        assert "theorem2" not in names
        assert "lemma2" in names
        assert "lemma3" in names
        assert "lemma9" in names

    def test_enabled_filter(self):
        names = [c for c, _ in plan_checks(Z4C2, enabled={"theorem2"})]
        assert names == ["theorem2"]

    def test_exponent_of_v_matches_census(self):
        # largest invariant exponent agrees with the deepest census order
        for rs in (Z4C2, Z9C3, Z4V4, RingSpec(GroupSpec(2, (2,)), 2)):
            hist = order_histogram(rs)
            top = max(k for k, _ in hist.counts)
            assert v_invariants(rs.group, rs.e).exponent_exp() == top

    def test_v_order_exp_agrees_with_enumeration(self):
        for rs in (Z4C2, Z9C3, Z4V4):
            assert rs.p ** v_order_exp(rs.group, rs.e) == unit_count(rs)


def test_formula_checks_leave_numpy_ma_unimported():
    # Some numpy calls (np.unique among them) import numpy.ma, about 1 MB of
    # resident memory for the rest of the process.  A suite that plans the
    # formula checks lemma2, lemma3 and lemma9 must not pull it in.
    code = """
        import sys
        from punits import cli
        from punits.pgroup import GroupSpec

        config = cli.SuiteConfig(
            instances=(
                cli.SuiteInstance(GroupSpec(2, (1, 1)), 2),
                cli.SuiteInstance(GroupSpec(3, (1,)), 3),
            )
        )
        reports = cli.run_suite(config)
        cli.emit_report(reports)
        planned = {c.check_id.split(":")[0] for r in reports for c in r.checks}
        assert {"lemma2", "lemma3", "lemma9"} <= planned, planned
        assert all(r.all_pass() for r in reports)
        assert "numpy.ma" not in sys.modules
        """
    proc = fresh_python("-c", textwrap.dedent(code))
    assert proc.returncode == 0, proc.stderr.decode()
