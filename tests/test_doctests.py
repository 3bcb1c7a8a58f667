import doctest

import punits.pgroup
import punits.theory
import punits.zpelin


def test_pgroup_doctests():
    failures, _ = doctest.testmod(punits.pgroup)
    assert failures == 0


def test_theory_doctests():
    failures, _ = doctest.testmod(punits.theory)
    assert failures == 0


def test_zpelin_doctests():
    failures, _ = doctest.testmod(punits.zpelin)
    assert failures == 0
