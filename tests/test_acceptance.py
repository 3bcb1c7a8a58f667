"""Acceptance suite: one test per criterion, exact tolerances throughout.

The default verification catalog is executed once per session (workers=1,
seed=0); the individual criteria then interrogate its reports.  Each test
prints a single ``ACCEPTANCE <n> ...: PASS|FAIL`` line (visible with
``pytest -s``).
"""

import hashlib
import json
import time

import pytest

from punits.cli import default_suite_config, emit_report, run_suite
from punits.oracle import (
    invariants_from_histogram,
    order_histogram,
    synthetic_census,
    unit_count,
)
from punits.pgroup import GroupSpec
from punits.ring import RingSpec, binomial_p_power
from punits.theory import AbelianInvariants, v_invariants
from punits.zpelin import nilpotency_index

from .helpers import SUITE_SHA256, legendre_binomial_valuation, partitions, stdlib_json


@pytest.fixture(scope="session")
def suite_outcome():
    config = default_suite_config(workers=1, seed=0)
    start = time.perf_counter()
    reports = run_suite(config)
    elapsed = time.perf_counter() - start
    return config, reports, elapsed


def _declare(criterion: str, ok: bool) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok


def _checks(reports, name: str):
    for rep in reports:
        for check in rep.checks:
            if check.check_id == name or check.check_id.startswith(name + ":"):
                yield rep, check


def test_criterion_01_corollary_reproduction():
    group = GroupSpec(2, (1,))
    start = time.perf_counter()
    ok = True
    for e in range(2, 6):
        expected = AbelianInvariants(((1, 1), (e - 1, 1)))
        theory_side = v_invariants(group, e)
        oracle_side = invariants_from_histogram(
            order_histogram(RingSpec(group, e)), 2
        )
        ok &= theory_side == expected == oracle_side
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    _declare("1 (V(Z_{2^e}C_2) = C_2 x C_{2^{e-1}}, theory and oracle)", ok)


def test_criterion_02_invariant_suite(suite_outcome):
    config, reports, elapsed = suite_outcome
    expected = {
        (i.group, i.e)
        for i in config.instances
        if unit_count(RingSpec(i.group, i.e)) <= config.budget
    }
    seen = {}
    for rep, check in _checks(reports, "theorem2"):
        seen[(rep.group, rep.e)] = check.passed
    ok = set(seen) == expected and all(seen.values())
    # the over-budget instance still gets a consistent closed-form report
    over = [r for r in reports if (r.group, r.e) not in expected]
    ok &= all(r.invariants.size_exp() == r.v_order_exp for r in over)
    ok &= elapsed < 120.0
    _declare(
        f"2 (theory vs oracle invariants on {len(expected)} catalog instances, "
        f"{elapsed:.1f}s)",
        ok,
    )


def test_criterion_03_order_p_units(suite_outcome):
    config, reports, _ = suite_outcome
    expected = {
        (i.group, i.e)
        for i in config.instances
        if i.e >= 2 and unit_count(RingSpec(i.group, i.e)) <= config.budget
    }
    seen = {}
    for rep, check in _checks(reports, "theorem1"):
        seen[(rep.group, rep.e)] = check.passed
    ok = set(seen) == expected and all(seen.values())
    _declare(f"3 (order-p unit count and socle form, {len(seen)} instances)", ok)


def test_criterion_04_reduction_kernel(suite_outcome):
    config, reports, _ = suite_outcome
    expected = {
        (i.group, i.e)
        for i in config.instances
        if i.e >= 2 and unit_count(RingSpec(i.group, i.e)) <= config.budget
    }
    seen = {}
    for rep, check in _checks(reports, "lemma6"):
        seen[(rep.group, rep.e)] = check.passed
    ok = set(seen) == expected and all(seen.values())
    _declare(f"4 (kernel of V -> V mod p^{{e-1}}, {len(seen)} instances)", ok)


def test_criterion_05_socle_at_e1(suite_outcome):
    config, reports, _ = suite_outcome
    seen = {}
    for rep, check in _checks(reports, "lemma4"):
        seen[(rep.group, rep.e)] = check.passed
    required = {
        (i.group, i.e)
        for i in config.instances
        if i.e == 1 and i.group.p in (2, 3)
    }
    ok = required <= set(seen) and all(seen.values())
    _declare(f"5 (order-p units = 1 + I(G[p]) at e=1, {len(seen)} instances)", ok)


def test_criterion_06_dimension_subgroups(suite_outcome):
    config, reports, _ = suite_outcome
    by_instance: dict = {}
    ok = True
    for rep, check in _checks(reports, "lemma3"):
        n = int(check.check_id.split("n=")[1])
        by_instance.setdefault((rep.group, rep.e), set()).add(n)
        ok &= check.passed
    for inst in config.instances:
        if inst.group.order() <= 16 and inst.e <= 3:
            nu = nilpotency_index(RingSpec(inst.group, inst.e))
            ok &= by_instance.get((inst.group, inst.e)) == set(range(1, nu + 1))
    _declare("6 (dimension subgroups match the agemo formula, all n)", ok)


def test_criterion_07_layer_quotients(suite_outcome):
    config, reports, _ = suite_outcome
    expected = {
        (i.group, i.e)
        for i in config.instances
        if i.group.order() <= 8
        and i.e <= 2
        and unit_count(RingSpec(i.group, i.e)) <= config.budget
    }
    seen = {}
    for rep, check in _checks(reports, "lemma5"):
        seen[(rep.group, rep.e)] = check.passed
    ok = set(seen) == expected and all(seen.values())
    _declare(f"7 (|1+w^m|/|1+w^{{m+1}}| = |w^m|/|w^{{m+1}}|, {len(seen)} instances)", ok)


def test_criterion_08_power_collapse_identity(suite_outcome):
    config, reports, _ = suite_outcome
    seen = {}
    for rep, check in _checks(reports, "lemma2"):
        seen[(rep.group, rep.e)] = check.passed
    ok = len(seen) == len(config.instances) and all(seen.values())
    _declare(f"8 ((1-g)^{{p^l}} collapse identity on {len(seen)} instances)", ok)


def test_criterion_09_predicted_unit_orders(suite_outcome):
    config, reports, _ = suite_outcome
    by_instance: dict = {}
    ok = True
    exceptional_total = 0
    for rep, check in _checks(reports, "lemma9"):
        d = int(check.check_id.split("d=")[1])
        by_instance.setdefault((rep.group, rep.e), set()).add(d)
        exceptional_total += check.observed["exceptional"]
        ok &= check.passed
    for inst in config.instances:
        if inst.e >= 2:
            ok &= by_instance.get((inst.group, inst.e)) == set(range(1, inst.e))
    _declare(
        f"9 (orders of 1 + p^d y; {exceptional_total} exceptional cases asserted)",
        ok,
    )


def test_criterion_10_binomial_valuations():
    ok = True
    for p in (2, 3, 5):
        for n in range(9):
            top = p ** n
            for j in range(1, top + 1):
                ok &= binomial_p_power(p, n, j) == legendre_binomial_valuation(
                    p, top, j
                )
            if not ok:
                break
    _declare("10 (binomial p-valuations vs Legendre oracle, p in {2,3,5}, n <= 8)", ok)


def test_criterion_11_invariant_recovery_round_trip():
    ok = True
    for p in (2, 3, 5):
        for size in range(13):
            for lams in partitions(size):
                inv = AbelianInvariants.from_factor_exps(lams)
                ok &= invariants_from_histogram(synthetic_census(inv, p), p) == inv
    _declare("11 (census round-trip for all p-groups with size exponent <= 12)", ok)


def _suite_sha256(reports) -> str:
    return hashlib.sha256(emit_report(reports, "json").encode()).hexdigest()


def test_default_suite_json_is_pinned(suite_outcome):
    config, reports, _ = suite_outcome
    assert (config.workers, config.seed) == (1, 0)
    assert _suite_sha256(reports) == SUITE_SHA256


def test_default_suite_json_is_the_stdlib_rendering(suite_outcome):
    # emit_report writes the skeleton itself: its text must still be the
    # stdlib's rendering of what it holds.
    _, reports, _ = suite_outcome
    text = emit_report(reports, "json")
    assert stdlib_json(json.loads(text)) == text


def test_criterion_12_suite_determinism(suite_outcome):
    # Two and four workers fan the instances out over forked processes.
    config, reports, _ = suite_outcome
    assert config.workers == 1
    digests = [_suite_sha256(reports)] + [
        _suite_sha256(run_suite(default_suite_config(workers=w, seed=0))) for w in (2, 4)
    ]
    ok = digests == [SUITE_SHA256] * 3
    _declare("12 (suite JSON pinned and byte-identical for workers 1, 2 and 4, same seed)", ok)
