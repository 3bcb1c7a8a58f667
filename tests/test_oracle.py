import os
import random
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from punits import oracle
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

from .helpers import partitions, random_normalized_unit

Z2C2 = RingSpec(GroupSpec(2, (1,)), 1)
Z4C2 = RingSpec(GroupSpec(2, (1,)), 2)
Z9C3 = RingSpec(GroupSpec(3, (1,)), 2)
Z4V4 = RingSpec(GroupSpec(2, (1, 1)), 2)


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
        monkeypatch.setattr(oracle, "_BLOCK", 5)
        assert order_histogram(Z4V4) == whole


class TestInvariantRecovery:
    def test_examples(self):
        h = OrderHistogram(((0, 1), (1, 3)))
        assert invariants_from_histogram(h, 2).entries == ((1, 2),)
        h = OrderHistogram(((0, 1), (1, 3), (2, 4)))
        assert invariants_from_histogram(h, 2).entries == ((1, 1), (2, 1))
        h = OrderHistogram(((0, 1), (1, 8)))
        assert invariants_from_histogram(h, 3).entries == ((1, 2),)

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
        assert report.predicted["exceptional"] > 0

    def test_lemma9_random_is_seed_deterministic(self):
        rs = RingSpec(GroupSpec(2, (1,)), 5)
        a = verify_check("lemma9", rs, {"d": 2}, seed=11)
        b = verify_check("lemma9", rs, {"d": 2}, seed=11)
        c = verify_check("lemma9", rs, {"d": 2}, seed=12)
        assert a == b
        assert a.seed != c.seed

    @pytest.mark.parametrize(
        "rs", [RingSpec(GroupSpec(2, (1,)), 5), RingSpec(GroupSpec(2, (2, 1)), 3)]
    )
    @pytest.mark.parametrize("seed", [0, 1, 29, oracle.SEED_MAX])
    def test_exceptional_census_draws_the_checks_candidates(self, rs, seed):
        # Random candidates: the census must draw what the check draws for
        # d = 1 with the same base seed, so the totals agree for any seed.
        from punits.oracle import lemma9_exceptional_census

        census = lemma9_exceptional_census(rs, 1, seed=seed)
        report = verify_check("lemma9", rs, {"d": 1}, seed=seed)
        assert report.observed["cases"] == oracle._LEMMA9_SAMPLES
        assert census.total() == report.observed["exceptional"] > 0

    def test_lemma9_draws_once_per_d(self, monkeypatch):
        from punits.cli import SuiteConfig, SuiteInstance, run_suite
        from punits.oracle import lemma9_exceptional_census

        seeds = []
        draw = oracle._lemma9_candidates

        def counted(rs, seed):
            seeds.append(seed)
            return draw(rs, seed)

        monkeypatch.setattr(oracle, "_lemma9_candidates", counted)
        rs = RingSpec(GroupSpec(2, (1,)), 5)
        # A single-d caller draws, and powers, only its own d.
        report = verify_check("lemma9", rs, {"d": 2}, seed=3)
        assert seeds == [report.seed]
        seeds.clear()
        lemma9_exceptional_census(rs, 1, seed=3)
        assert len(seeds) == 1
        # A suite run draws every d once, with the seed each report carries.
        seeds.clear()
        config = SuiteConfig((SuiteInstance(rs.group, rs.e),), checks=("lemma9",), seed=3)
        (inst,) = run_suite(config)
        assert seeds == [c.seed for c in inst.checks] and len(seeds) == rs.e - 1

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
        # Planned only, never run: no chunk of stacked d's holds more entries
        # than one d's block at the dense-table cap, and small rings stack
        # every d in one block.
        ds = range(1, rs.e)
        chunks = oracle._lemma9_chunks(rs, ds)
        assert [d for chunk in chunks for d in chunk] == list(ds)
        exhaustive = rs.size <= 4 and rs.e <= 3
        cols = rs.modulus ** rs.size - 1 if exhaustive else oracle._LEMMA9_SAMPLES
        assert oracle._BLOCK_ENTRIES == oracle.DENSE_TABLE_CAP * oracle._LEMMA9_SAMPLES
        assert all(rs.size * cols * len(chunk) <= oracle._BLOCK_ENTRIES for chunk in chunks)
        if rs.size <= 8:
            assert len(chunks) == 1

    def test_report_seed_is_the_seed_that_drew(self, monkeypatch):
        # The report names the seed the candidates were drawn with, also
        # when d is a numpy integer.
        seeds = []
        draw = oracle._lemma9_candidates

        def recorded(rs, seed):
            seeds.append(seed)
            return draw(rs, seed)

        monkeypatch.setattr(oracle, "_lemma9_candidates", recorded)
        rs = RingSpec(GroupSpec(2, (1,)), 5)
        for d in (2, np.int64(2)):
            seeds.clear()
            assert verify_check("lemma9", rs, {"d": d}, seed=3).seed == seeds[0]

    def test_seed_outside_32_bits_is_refused(self):
        from punits.oracle import lemma9_exceptional_census

        rs = RingSpec(GroupSpec(2, (1,)), 5)
        for seed in (-1, 1 << 32, True):
            with pytest.raises(ValueError, match="seed"):
                verify_check("lemma9", rs, {"d": 1}, seed=seed)
            with pytest.raises(ValueError, match="seed"):
                lemma9_exceptional_census(rs, 1, seed=seed)
        assert verify_check("lemma9", rs, {"d": 1}, seed=oracle.SEED_MAX).passed

    def test_lemma9_exceptional_census(self):
        from punits.oracle import lemma9_exceptional_census

        rs = RingSpec(GroupSpec(2, (2,)), 3)
        census = lemma9_exceptional_census(rs, 1)
        report = verify_check("lemma9", rs, {"d": 1})
        # same exhaustive candidate set, so totals agree
        assert census.total() == report.observed["exceptional"]
        # first claim still bounds every exceptional order by p^{e-d}
        assert all(k <= rs.e - 1 for k, _ in census.counts)
        # empty when the exceptional condition cannot occur
        assert lemma9_exceptional_census(rs, 2).counts == ()
        odd = RingSpec(GroupSpec(3, (1,)), 2)
        assert lemma9_exceptional_census(odd, 1).counts == ()

    def test_unknown_check_id(self):
        with pytest.raises(ValueError):
            verify_check("lemma1", Z4C2)

    def test_check_requirements(self):
        with pytest.raises(ValueError):
            verify_check("theorem1", Z2C2)  # needs e >= 2
        with pytest.raises(ValueError):
            verify_check("lemma4", Z4C2)  # needs e = 1
        with pytest.raises(ValueError):
            verify_check("lemma9", Z4C2, {"d": 2})

    def test_budget_propagates(self):
        with pytest.raises(BudgetExceededError):
            verify_check("theorem2", Units(Z9C3, budget=80))

    def test_no_v_sized_array_at_e_at_least_2(self, monkeypatch):
        # On the default suite's e >= 2 instances the enumerative checks hold
        # no array with |V| or more columns: they read the power map's
        # |V| / p^{|G|-1} representatives, and lemma5 scans V block by block.
        # Every array bound to a name in a punits frame is measured, line by
        # line, with blocks of 2^12 units; instances with |V| <= 2^12 are
        # one block.
        monkeypatch.setattr(oracle, "_BLOCK", 1 << 12)
        package = os.path.dirname(oracle.__file__)
        checked = 0
        for inst in default_suite_config().instances:
            rs = RingSpec(inst.group, inst.e)
            plan = [(c, prm) for c, prm in plan_checks(rs) if CHECKS[c].enumerative]
            if rs.e < 2 or not plan or unit_count(rs) <= oracle._BLOCK:
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
    code = textwrap.dedent(
        """
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
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    pythonpath = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
