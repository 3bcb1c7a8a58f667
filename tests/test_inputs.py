"""Every public entry reads its integer parameters by one rule.

A parameter is an int: a bool, float, str or None is refused with a
ValueError that names it, never coerced, and so is an int out of its
range; a valid value is answered with exact ints at once, whatever its
size.  Each call runs under ``helpers.alarm``, so a hang fails the test.
A ring element with the wrong number of coefficients, a matrix with ragged
rows, the valuation of 0 and the inverse of a non-unit are refused with
one ValueError of one line.
"""

import re
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from punits.oracle import (
    SEED_MAX,
    OrderHistogram,
    Units,
    invariants_from_histogram,
    plan_checks,
    synthetic_census,
    unplanned_reason,
)
from punits.pgroup import (
    GroupSpec,
    agemo_order_exp,
    cyclic_factor_count,
    element,
    element_from_index,
    element_pow,
    is_prime,
    omega_order_exp,
    p_valuation,
)
from punits.ring import (
    RingElement,
    RingSpec,
    binomial_p_power,
    lemma9_predicted_order,
    one,
    reduce_mod,
    unit_inverse,
)
from punits.theory import AbelianInvariants
from punits.zpelin import ResidueMatrix, howell_form, module_membership

from .helpers import alarm

_HOSTILE = (1.5, 2.0, True, "2", None, -1, 0, 2 ** 64, 10 ** 9)
_PRIMES = (2, 3, 5, 7, 2 ** 31 - 1, 2 ** 61 - 1)
_VALUES = st.one_of(
    st.sampled_from(_HOSTILE + _PRIMES), st.integers(-3, 40), st.integers()
)

_G = GroupSpec(2, (2, 1))  # |G| = 8
_RS = RingSpec(GroupSpec(2, (1, 1)), 2)
_X = RingElement(_RS, (1, 1, 0, 3))
_Y = one(RingSpec(GroupSpec(3, (1,)), 3))
_M = ResidueMatrix(2, 2, 2, ((2, 1),))
_SMALL = RingSpec(GroupSpec(2, (1,)), 1)
_Z8C2 = RingSpec(GroupSpec(2, (1,)), 3)


def _lemma9_after_seed_1(seed):
    # A pass cached for seed 1 answers no seed that only equals 1, as True
    # does.
    units = Units(_Z8C2)
    units.lemma9(1, 1)
    return units.lemma9(seed, 1).measured


def _int_in(lo=None, hi=None) -> Callable:
    return lambda v: type(v) is int and (lo is None or v >= lo) and (hi is None or v <= hi)


def _prime(cap=None) -> Callable:
    return lambda v: _int_in(2, 2 ** 64 - 1)(v) and is_prime(v) and (cap is None or v <= cap)


class Entry(NamedTuple):
    name: str
    param: str
    call: Callable
    valid: Callable


_ENTRIES = [
    Entry("element", "exponent", lambda v: element(_G, (v, 0)), _int_in()),
    Entry("element_pow", "m", lambda v: element_pow(_G, (1, 1), v), _int_in(0)),
    Entry("element_from_index", "index", lambda v: element_from_index(_G, v), _int_in(0, 7)),
    Entry("agemo_order_exp", "i", lambda v: agemo_order_exp(_G, v), _int_in(0)),
    Entry("omega_order_exp", "i", lambda v: omega_order_exp(_G, v), _int_in(0)),
    Entry("cyclic_factor_count", "i", lambda v: cyclic_factor_count(_G, v), _int_in(1)),
    Entry("GroupSpec.p", "p", lambda v: GroupSpec(v, (1,)).p, _prime()),
    Entry("GroupSpec.lambdas", "lambda", lambda v: GroupSpec(2, (v,)).lambdas, _int_in(1)),
    Entry("RingSpec.e", "e", lambda v: RingSpec(GroupSpec(2, (1,)), v).e, _int_in(1, 31)),
    Entry("RingElement", "coefficient", lambda v: RingElement(_RS, (v, 0, 0, 0)).coeffs,
          _int_in()),
    Entry("RingElement.__pow__", "m", lambda v: (_X ** v).coeffs, _int_in(0)),
    Entry("reduce_mod", "e_target", lambda v: reduce_mod(_X, v).coeffs, _int_in(1, 2)),
    Entry("lemma9_predicted_order", "d", lambda v: lemma9_predicted_order(v, _Y),
          _int_in(1, 2)),
    Entry("binomial_p_power.p", "p", lambda v: binomial_p_power(v, 3, 1), _prime()),
    Entry("binomial_p_power.n", "n", lambda v: binomial_p_power(3, v, 1), _int_in(0)),
    Entry("binomial_p_power.j", "j", lambda v: binomial_p_power(3, 4, v), _int_in(1, 81)),
    Entry("binomial_p_power.j_huge_n", "j", lambda v: binomial_p_power(3, 10 ** 9, v),
          _int_in(1)),
    Entry("ResidueMatrix.p", "p",
          lambda v: howell_form(ResidueMatrix(v, 1, 2, ((2, 3),))).rows, _prime(2 ** 31)),
    Entry("ResidueMatrix.e", "e", lambda v: ResidueMatrix(3, v, 2, ((1, 1),)).rows,
          _int_in(1, 19)),
    Entry("ResidueMatrix.ncols", "ncols", lambda v: ResidueMatrix(3, 1, v, ()).ncols,
          _int_in(1)),
    Entry("ResidueMatrix.rows", "entry",
          lambda v: howell_form(ResidueMatrix(3, 2, 2, ((v, 1),))).rows, _int_in()),
    Entry("module_membership", "entry", lambda v: module_membership((v, 0), _M), _int_in()),
    Entry("Units.lemma9", "d", lambda v: Units(_Z8C2).lemma9(0, v).measured, _int_in(1, 2)),
    Entry("Units.lemma9.seed", "seed", _lemma9_after_seed_1, _int_in(0, SEED_MAX)),
    Entry("plan_checks.budget", "budget",
          lambda v: len(plan_checks(_SMALL, {"theorem2"}, v)), _int_in(1)),
    # lemma2 enumerates nothing, so no budget refusal reads the budget for
    # it: only the entries' own rule does.
    Entry("plan_checks.budget.lemma2", "budget",
          lambda v: len(plan_checks(_SMALL, {"lemma2"}, v)), _int_in(1)),
    Entry("unplanned_reason.budget", "budget",
          lambda v: unplanned_reason("lemma2", _SMALL, v) is None, _int_in(1)),
    Entry("invariants_from_histogram", "p",
          lambda v: invariants_from_histogram(OrderHistogram(((0, 1),)), v).entries,
          _prime()),
    Entry("synthetic_census", "p",
          lambda v: synthetic_census(AbelianInvariants(((1, 2),)), v).counts, _prime()),
    Entry("AbelianInvariants.order_exp", "order_exp",
          lambda v: AbelianInvariants(((v, 2),)).entries, _int_in(0)),
    Entry("AbelianInvariants.multiplicity", "multiplicity",
          lambda v: AbelianInvariants(((1, v),)).entries, _int_in(0)),
    Entry("OrderHistogram.order_exponent", "order exponent",
          lambda v: OrderHistogram(((v, 2), (0, 1))).counts, _int_in(0)),
    Entry("OrderHistogram.count", "count",
          lambda v: OrderHistogram(((1, v), (0, 1))).counts, _int_in(0)),
]


def _exact(x) -> bool:
    if isinstance(x, np.ndarray):
        return x.dtype.kind in "iu"
    if isinstance(x, (tuple, list)):
        return all(map(_exact, x))
    return type(x) in (int, bool)


def _with_hostile_examples(test):
    for value in _HOSTILE:
        test = example(value=value)(test)
    return test


@pytest.mark.parametrize("entry", _ENTRIES, ids=lambda e: e.name)
@settings(max_examples=25)
@_with_hostile_examples
@given(value=_VALUES)
def test_entry_reads_its_rule(entry, value):
    if entry.valid(value):
        with alarm(1):
            result = entry.call(value)
        assert _exact(result), result
    else:
        with alarm(1), pytest.raises(ValueError) as info:
            entry.call(value)
        # a prime test refuses p >= 2^64 in is_prime's own words
        assert re.search(rf"\b{entry.param}\b|^primes", str(info.value)), info.value


@pytest.mark.parametrize("p", [1, 0, -1])
def test_p_valuation_refuses_p_below_2(p):
    # p = 1 divides every m, so the division loop would never end.
    with alarm(1), pytest.raises(ValueError, match=r"\bp\b"):
        p_valuation(5, p)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: RingElement(_RS, (1, 0, 0)), "expected 4 coefficients, got 3"),
        (lambda: ResidueMatrix(3, 1, 2, ((1, 1), (1,))), "ragged rows"),
        (lambda: p_valuation(0, 3), "valuation of 0"),
        (lambda: unit_inverse(RingElement(_RS, (2, 0, 0, 0))), "normalized unit"),
    ],
    ids=["coefficient count", "ragged rows", "valuation of 0", "inverse of a non-unit"],
)
def test_malformed_value_is_refused_in_one_line(call, message):
    # A value of the right type that no element, matrix or unit can be.
    with alarm(1), pytest.raises(ValueError) as info:
        call()
    assert message in str(info.value) and "\n" not in str(info.value)
