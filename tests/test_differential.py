"""Batched numpy kernels against the scalar RingElement reference.

Random small (p, lambda, e) and random normalized units: ``_batch_mul``,
``_batch_pow`` and ``_batch_order_exps`` must agree exactly with
``RingElement.__mul__`` (the ``_convolve`` reference), ``__pow__`` and
``unit_order``; ``_batch_mul`` also on blocks just inside and just past
the size bound of its one gathered product, and with ``_batch_pow`` on
rings of characteristic near 2^31, where unreduced sums of products
overflow int64 and the rows are added one at a time.
Random small rings with |V| <= 4096: the power map ``Units.power_map``
must send each lifted representative to its scalar p-th power (reduced to
the base ring, and compared with 1) whatever the block size and worker
count, at e = 1 its Frobenius scatter must equal the batched p-th power,
and for e >= 2 its ``chi``, read at every base index through the fold
(the scalar reduction mod p^{e-2} at e >= 3), must be the base ring's own
full power map.
The census read from it through the images of chi must equal the scalar
``unit_order`` census and the census gathered along chi once per
exponent, also on the full path; the image sets must be those of every
iterate of any map, and a map with one entry sent to the identity, no
longer an endomorphism, must be refused.  Every planned check must report the same
through one shared ``Units`` as
through calls on the bare RingSpec, and a failed reduction-kernel check
must fall back to the full map with the same reports, as a failed check
of the base ring's kernel must fall back to chi over the base.  theorem1 and lemma4
read V[p] off the power map: their counts must equal scalar ones from
``unit_order``, theorem1's also with an element of G[p] dropped and
lemma4's also when fed every element of Z_p G, so that they are nonzero,
for any block size and worker count, and no V[p] block may outlive its
check.  lemma4's transform to the monomial basis in x_j = a_j - 1 must
give the binomials ``math.comb`` gives, on every group with |G| <= 64, its
box test must be membership in the Howell form of the translates of every
h - 1, h in G[p], and the monomials outside the box must number
|G| - |G^p|.  On the same groups at e = 1, the g with g - 1 in w^n, read
off the least degrees in that basis, must be those of a fresh ideal
chain's walk for every n up to nu + 2 in a random order and at n = 10^12,
and nu one more than the chain's nonzero levels.  On every group with
|G| <= 64 and p <= 7, at each e <= 4, nu from the cyclic factors' content
valuations must be one more than the nonzero levels of the chain run to
completion, and at e = 1 it must be the identity's least degree and 1 +
the largest degree on G's digit grid.  The formula checks:
lemma2's batched columns must be the scalar powers (1 - g)^{p^k} and its
counts those of the scalar case-by-case reference, and on every group with
|G| <= 64 a block of its columns must be that slice of all of them, and
the map g -> g^{p^s} induces must send each column to the column of
g^{p^s}; that map, read off G's digit grid, must be the scalar scatter-add
along ``helpers.power_indices`` on random blocks, and its agemo sub-grid
must hold that array's values; ``_batch_order_exps``
on lemma9's units 1 + p^d y, stacked over d, must match scalar iterated
p-th powering under per-column bounds that fall along the block; the
lemma9 pass over each chunk of d's must report, per d, the scalar orders,
exceptional marks and the orders ``ring.lemma9_predicted_order`` gives
for that d's own candidates, the exceptional ones among them, also at
q = 2^31 and 7^11, where the product is reduced every two rows, against
the scalar ``unit_order`` as well; on every
exceptional unit 1 + 2y of Z_8C_4, Z_8C_2^2 and Z_16C_2 that closed form
must be the scalar order; and the divisibility valuation must be the
per-coefficient minimum.
"""

import contextlib
import functools
import itertools
import math
import random
import weakref
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from punits import oracle, pgroup, zpelin
from punits.oracle import (
    CHECKS,
    SEED_MAX,
    Units,
    _agemo,
    _batch_mul,
    _batch_order_exps,
    _batch_pow,
    _derive_seed,
    _image_sets,
    _induced,
    _lemma2_powers,
    _lemma9_candidates,
    _matches,
    _min_valuations,
    _outside_socle_ideal,
    _units_at,
    enumerate_units,
    order_histogram,
    plan_checks,
    unit_count,
    verify_check,
)
from punits.pgroup import (
    GroupSpec,
    agemo_order_exp,
    element_mul,
    element_pow,
    enumerate_elements,
    gather_table,
    identity,
    is_prime,
    p_valuation,
    radix_encode,
    socle_indices,
)
from punits.ring import (
    RingElement,
    RingSpec,
    _order_exp_bound,
    _rows_per_reduction,
    augmentation,
    from_group_element,
    lemma9_predicted_order,
    one,
    reduce_mod,
    unit_order,
)
from punits.theory import p_rank_vzp
from punits.zpelin import _jennings, howell_array, ideal_power_members, nilpotency_index

from .helpers import (
    iterated_gather_census,
    power_indices,
    reference_lemma2,
    reference_socle_ideal_generators,
    small_specs,
)

# |G| <= 16 keeps the scalar O(|G|^2) reference quick.
SPECS = [g for g in small_specs(4, primes=(2, 3, 5)) if g.order() <= 16]


# The groups with |G| <= 64 and p <= 7, for the kernels read off G's digit
# grid, and every group with |G| <= 64, C_61 among them, for the transform
# to the monomial basis.
GROUPS_TO_64 = [g for g in small_specs(6, primes=(2, 3, 5, 7)) if g.order() <= 64]
EVERY_GROUP_TO_64 = [
    g for g in small_specs(6, [p for p in range(2, 64) if is_prime(p)]) if g.p ** g.size_exp <= 64
]

SMALL_RINGS = st.builds(RingSpec, st.sampled_from(SPECS), st.integers(1, 3))

# Rings with |G| (q-1)^2 >= 2^63: summing the |G| products of one
# coefficient without reducing them first would overflow int64.  q is odd,
# so the wrap mod 2^64 is not also correct mod q.
WIDE_RINGS = [RingSpec(GroupSpec(7, (1,)), 11), RingSpec(GroupSpec(3, (2,)), 19)]


@st.composite
def unit_batches(draw, rings=SMALL_RINGS):
    """A ring (by default Z_{p^e}G with e <= 3) and 1-4 random normalized
    units in it."""
    rs = draw(rings)
    q, n = rs.modulus, rs.size
    rows = draw(
        st.lists(
            st.lists(st.integers(0, q - 1), min_size=n - 1, max_size=n - 1),
            min_size=1,
            max_size=4,
        )
    )
    units = [RingElement(rs, (*r, (1 - sum(r)) % q)) for r in rows]
    return rs, units


def _array(units) -> np.ndarray:
    """The units as a coefficient-major block, one unit per column."""
    return np.array([u.coeffs for u in units], dtype=np.int64).T


@given(unit_batches(), st.randoms(use_true_random=False))
def test_batch_mul_matches_scalar_product(batch, rng):
    rs, xs = batch
    ys = list(xs)
    rng.shuffle(ys)
    got = _batch_mul(gather_table(rs.group), rs.modulus, _array(xs), _array(ys))
    assert got.T.tolist() == [list((x * y).coeffs) for x, y in zip(xs, ys)]


@given(unit_batches(), st.integers(1, 40))
def test_batch_pow_matches_scalar_power(batch, m):
    rs, xs = batch
    got = _batch_pow(gather_table(rs.group), rs.modulus, _array(xs), m)
    assert got.T.tolist() == [list((x ** m).coeffs) for x in xs]


@given(unit_batches())
def test_batch_order_exps_match_unit_order(batch):
    rs, xs = batch
    exps = _batch_order_exps(Units(rs), _array(xs), _order_exp_bound(rs))
    assert [rs.p ** int(m) for m in exps] == [unit_order(x) for x in xs]


@given(unit_batches(), st.randoms(use_true_random=False), st.booleans())
def test_gathered_product_matches_scalar_product_at_the_bound(batch, rng, past):
    # The units tiled to the widest block whose gathered operand y[tbl]
    # fits _BLOCK_ENTRIES, or one column wider: one einsum inside the
    # bound, the row loop past it, and the scalar products either way.
    rs, xs = batch
    ys = list(xs)
    rng.shuffle(ys)
    n = rs.size
    width = pgroup._BLOCK_ENTRIES // (n * n) + past
    reps = -(-width // len(xs))

    def tiled(block):
        return np.tile(block, reps)[:, :width]

    with mock.patch.object(oracle.np, "einsum", wraps=np.einsum) as einsum:
        got = _batch_mul(gather_table(rs.group), rs.modulus, tiled(_array(xs)), tiled(_array(ys)))
    assert einsum.called != past
    assert np.array_equal(got, tiled(_array([x * y for x, y in zip(xs, ys)])))


@given(unit_batches(st.sampled_from(WIDE_RINGS)), st.integers(1, 40))
def test_batch_kernels_do_not_overflow_on_wide_rings(batch, m):
    rs, xs = batch
    q, n = rs.modulus, rs.size
    # All free coefficients q-1: its square sums n-1 products near 2^62.
    xs = [RingElement(rs, (q - 1,) * (n - 1) + (n,)), *xs]
    ys = xs[::-1]
    tbl = gather_table(rs.group)
    got = _batch_mul(tbl, q, _array(xs), _array(ys))
    assert got.T.tolist() == [list((x * y).coeffs) for x, y in zip(xs, ys)]
    got = _batch_pow(tbl, q, _array(xs), m)
    assert got.T.tolist() == [list((x ** m).coeffs) for x in xs]


# Every (G, e) from SPECS with e <= 4 and |V| <= 4096.
RINGS = [
    rs
    for rs in (RingSpec(g, e) for g in SPECS for e in range(1, 5))
    if unit_count(rs) <= 4096
]


def _scalar_index(u: RingElement) -> int:
    """Enumeration index of u: its first |G|-1 coefficients in base p^e."""
    index = 0
    for c in u.coeffs[:-1]:
        index = index * u.spec.modulus + c
    return index


@functools.cache
def _scalar_orders(rs: RingSpec) -> list[tuple[RingElement, int]]:
    """Every unit with its order, from the scalar unit_order."""
    return [(u, unit_order(u)) for u in enumerate_units(rs)]


@functools.cache
def _scalar_census(rs: RingSpec) -> dict[int, int]:
    """Order exponent -> number of units, from the scalar unit_order."""
    orders = Counter(order for _, order in _scalar_orders(rs))
    return {p_valuation(order, rs.p): count for order, count in orders.items()}


def _scalar_p_torsion(rs: RingSpec) -> list[RingElement]:
    """V[p]: the units of order 1 or p."""
    return [u for u, order in _scalar_orders(rs) if order <= rs.p]


def _scalar_socle(group: GroupSpec) -> list:
    """G[p] by element_pow, in enumeration order."""
    ident = identity(group)
    return [g for g in enumerate_elements(group) if element_pow(group, g, group.p) == ident]


def _lift(u: RingElement, rs: RingSpec) -> RingElement:
    """u in Z_{p^e'}G, e' <= e, as a unit of rs: the same first |G|-1
    coefficients and the last one forced by augmentation 1 mod p^e."""
    head = u.coeffs[:-1]
    return RingElement(rs, (*head, (1 - sum(head)) % rs.modulus))


def _kernel_violation():
    """Make every Units' reduction-kernel check report one k with k^p != 1."""
    return mock.patch.object(
        Units, "kernel", property(lambda self: (self.rs.p ** (self.rs.size - 1), 1))
    )


def _base_kernel_violation(units: Units, checked: list):
    """Check V's own reduction kernel on ``units``, then make every later
    kernel check, that of the base ring, report one k with k^p != 1 and
    append the ring it was asked about to ``checked``."""
    units.kernel
    return mock.patch.object(
        oracle, "_kernel_check",
        lambda table, rs: checked.append(rs) or (rs.p ** (rs.size - 1), 1),
    )


def _full_chi(pm) -> np.ndarray:
    """chi at every base index, read through the fold."""
    return pm.chi[pm.fold(np.arange(len(pm.one)))]


@given(st.sampled_from(RINGS))
def test_power_map_matches_scalar_power(rs):
    pm = Units(rs).power_map
    quotient = rs.e >= 2
    assert pm.base == (RingSpec(rs.group, rs.e - 1) if quotient else rs)
    assert pm.domain == (RingSpec(rs.group, rs.e - 2) if rs.e >= 3 else pm.base)
    assert pm.mult * len(pm.one) == unit_count(rs)
    base_units = list(enumerate_units(pm.base))
    folds = [_scalar_index(reduce_mod(u, pm.domain.e)) for u in base_units]
    assert pm.fold(np.arange(len(pm.one))).tolist() == folds
    powers = [_lift(u, rs) ** rs.p for u in base_units]
    assert _full_chi(pm).tolist() == [_scalar_index(reduce_mod(w, pm.base.e)) for w in powers]
    assert pm.one.tolist() == [w == one(rs) for w in powers]


def test_frobenius_map_matches_batched_power_at_e1():
    # At e = 1 the power map scatters each unit's coefficients along
    # g -> g^p; the batched p-th power of every unit must give the same map.
    for rs in [rs for rs in RINGS if rs.e == 1]:
        q, n = rs.modulus, rs.size
        units = _units_at(rs, np.arange(unit_count(rs), dtype=np.int64))
        powers = _batch_pow(gather_table(rs.group), q, units, rs.p)
        pm = Units(rs).power_map
        assert np.array_equal(pm.one, _matches(powers, np.eye(n, dtype=np.int64)[0]))
        assert np.array_equal(pm.chi, radix_encode(powers[:-1], (q,) * (n - 1)))


@given(st.sampled_from([rs for rs in RINGS if rs.e >= 2]))
def test_quotient_map_is_the_base_rings_own_power_map(rs):
    # Reduction mod p^{e-1} is a ring map, so chi is phi of V(Z_{p^{e-1}}G).
    base = RingSpec(rs.group, rs.e - 1)
    with _kernel_violation():
        full = Units(base).power_map
    assert (full.base, full.mult, full.domain) == (base, 1, base)
    assert np.array_equal(_full_chi(Units(rs).power_map), full.chi)


@given(st.sampled_from(RINGS))
def test_census_matches_scalar_unit_orders(rs):
    assert order_histogram(rs).as_dict() == _scalar_census(rs)


@given(st.sampled_from(RINGS), st.booleans())
def test_pushed_census_matches_iterated_gather(rs, full):
    # full: the reduction-kernel check fails, so the map is over V itself.
    with _kernel_violation() if full else contextlib.nullcontext():
        units = Units(rs)
        census = units.census().as_dict()
    pm = units.power_map
    assert (pm.mult == 1) == (full or rs.e == 1)
    assert census == _scalar_census(rs)
    assert census == iterated_gather_census(pm.one, _full_chi(pm), pm.mult, unit_count(rs))


@pytest.mark.parametrize("rs", [rs for rs in RINGS if rs.e >= 3], ids=lambda rs: rs.to_text())
def test_base_kernel_check_failure_keeps_chi_over_the_base(rs):
    # If the base ring's kernel check fails, chi is kept over the base
    # itself, one entry per representative, as at e = 2.  The census and
    # every planned check must then report as on the folded path.
    plan = plan_checks(rs)
    units = Units(rs)
    folded = [verify_check(c, units, params, seed=3) for c, params in plan]
    unfolded_units, checked = Units(rs), []
    with _base_kernel_violation(unfolded_units, checked):
        unfolded = [verify_check(c, unfolded_units, params, seed=3) for c, params in plan]
        census = unfolded_units.census()
    pm = unfolded_units.power_map
    assert units.power_map.domain == RingSpec(rs.group, rs.e - 2)
    assert checked == [pm.base]
    assert pm.domain == pm.base == RingSpec(rs.group, rs.e - 1)
    assert len(pm.chi) == len(pm.one)
    assert census == units.census()
    assert unfolded == folded


@given(st.data())
def test_image_sets_are_those_of_every_iterate(data):
    # Any map of a set to itself: the m-th set is the image of chi^m.
    size = data.draw(st.integers(1, 40))
    chi = np.array(
        data.draw(st.lists(st.integers(0, size - 1), min_size=size, max_size=size)),
        dtype=np.int32,
    )
    images = _image_sets(chi, len(chi), lambda idx: idx)
    power = np.arange(size)
    for _ in range(size + 2):
        power = chi[power]
        assert next(images).tolist() == np.unique(power).tolist()


@given(st.sampled_from(RINGS), st.booleans())
def test_census_refuses_a_map_that_is_no_endomorphism(rs, full):
    # Sending one more index of chi's domain to the identity grows the
    # kernel (by a fibre of the fold when chi is folded), while every image
    # keeps a fibre of at least p domain indices, so |ker| |im| != N.  A map
    # that sends everything to the identity has no index left to send.
    with _kernel_violation() if full else contextlib.nullcontext():
        units = Units(rs)
        pm = units.power_map
    ident = _full_chi(pm)[np.argmax(pm.one)]  # one marks units with phi(u) = 1
    moved = np.flatnonzero(pm.chi != ident)
    assume(len(moved))
    chi = pm.chi.copy()
    chi[moved[0]] = ident
    units.power_map = oracle.PowerMap(pm.base, pm.mult, pm.one, chi, pm.domain)
    with pytest.raises(ArithmeticError, match="endomorphism"):
        units.census()


def _map_and_torsion_reports(units: Units):
    """The power map, and the theorem1 or lemma4 report read from it."""
    checks = [c for c in ("theorem1", "lemma4") if CHECKS[c].requires(units.rs, {})]
    return units.power_map, [verify_check(c, units) for c in checks]


@given(st.sampled_from(RINGS))
def test_power_map_independent_of_blocks(rs):
    # Each block fills its own slice of one array: many small blocks must
    # not change it, nor the V[p] checks that read it.
    first, first_reports = _map_and_torsion_reports(Units(rs))
    with mock.patch.object(pgroup, "_BLOCK_ENTRIES", 5 * rs.size):  # blocks of 5 units
        pm, reports = _map_and_torsion_reports(Units(rs))
    assert len(first_reports) == 1 and first_reports[0].passed
    assert (pm.base, pm.mult) == (first.base, first.mult)
    assert np.array_equal(pm.one, first.one)
    assert np.array_equal(pm.chi, first.chi)
    assert reports == first_reports


@given(st.lists(st.sampled_from(RINGS), min_size=2, max_size=2, unique=True))
def test_alternating_instances_get_their_own_power_map(pair):
    # The power map is kept for one instance at a time; going back and forth
    # must recompute it, never hand one ring the power map of the other.
    for rs in pair + pair:
        assert order_histogram(rs).as_dict() == _scalar_census(rs)


@given(st.sampled_from(RINGS))
def test_shared_units_report_as_one_shot_calls(rs):
    # The checks of one instance share one Units (its kernel check and power
    # map); each must report exactly what it reports on a fresh Units of its own.
    shared = Units(rs)
    plan = plan_checks(rs)
    assert [verify_check(c, shared, params, seed=3) for c, params in plan] == [
        verify_check(c, rs, params, seed=3) for c, params in plan
    ]


@given(st.sampled_from([rs for rs in RINGS if rs.e >= 2]), st.booleans())
def test_kernel_check_failure_takes_the_full_path(rs, drop_socle_element):
    # If K^p = 1 fails, the power map is built over V itself.  Every check
    # must then report as on the quotient path, except lemma6, which reports
    # the violation.  Dropping an element of G[p] makes theorem1 find units
    # outside the socle form, whose count the quotient path scales by |K|.
    plan = plan_checks(rs)
    with mock.patch.object(
        oracle,
        "socle_indices",
        lambda g: socle_indices(g)[: -1 if drop_socle_element else None],
    ):
        quotient = [verify_check(c, rs, params, seed=3) for c, params in plan]
        with _kernel_violation():
            units = Units(rs)
            full = [verify_check(c, units, params, seed=3) for c, params in plan]
            census = units.census()
    assert (units.power_map.base, units.power_map.mult) == (rs, 1)
    assert census.as_dict() == _scalar_census(rs)
    for (check, _), q, f in zip(plan, quotient, full):
        if check == "lemma6":
            assert q.passed
            assert f.observed["order_p_violations"] == 1
        else:
            assert f == q
        if check == "theorem1":
            outside = q.observed["outside_socle_form"]
            assert (outside > 0) == drop_socle_element


@given(st.sampled_from([rs for rs in RINGS if rs.e >= 2]), st.booleans())
def test_theorem1_counts_match_scalar_reference(rs, drop_socle_element):
    # Count the units of order dividing p whose residue mod p^{e-1} is no
    # element of G[p], with the last element of G[p] dropped or not.
    socle = _scalar_socle(rs.group)[: -1 if drop_socle_element else None]
    q1 = rs.p ** (rs.e - 1)
    allowed = {tuple(c % q1 for c in from_group_element(rs, g).coeffs) for g in socle}
    torsion = _scalar_p_torsion(rs)
    outside = sum(tuple(c % q1 for c in u.coeffs) not in allowed for u in torsion)
    with mock.patch.object(
        oracle,
        "socle_indices",
        lambda g: socle_indices(g)[: -1 if drop_socle_element else None],
    ):
        report = verify_check("theorem1", rs)
    assert report.observed == {
        "order_dividing_p": len(torsion),
        "outside_socle_form": outside,
    }
    assert (outside > 0) == drop_socle_element


def _coset_key(group: GroupSpec, subgroup: list):
    """g -> the least element of the coset g H, for H the given subgroup."""
    return {
        g: min(element_mul(group, g, h) for h in subgroup)
        for g in enumerate_elements(group)
    }


@given(st.sampled_from([rs for rs in RINGS if rs.e == 1]), st.booleans())
def test_lemma4_counts_match_scalar_reference(rs, whole_ring):
    # The ideal generated by h - 1 over G[p] is the kernel of
    # Z_p G -> Z_p[G/G[p]], so u - 1 lies in it iff u has the coset sums of 1.
    # Fed every element of Z_p G in place of V[p] (through p_torsion), the
    # check must count the non-members: every element of augmentation other
    # than 1, and every unit outside 1 + I(G[p]).
    group = rs.group
    key = _coset_key(group, _scalar_socle(group))
    elements = list(enumerate_elements(group))

    def coset_sums(u: RingElement) -> dict:
        sums = Counter()
        for g, c in zip(elements, u.coeffs):
            sums[key[g]] += c
        return {k: c % rs.modulus for k, c in sums.items() if c % rs.modulus}

    if whole_ring:
        fed = [RingElement(rs, c) for c in itertools.product(range(rs.p), repeat=rs.size)]
    else:
        fed = _scalar_p_torsion(rs)
    outside = sum(coset_sums(u) != coset_sums(one(rs)) for u in fed)
    block = np.array([u.coeffs for u in fed], dtype=np.int64).T
    with mock.patch.object(Units, "p_torsion", lambda self: np.ascontiguousarray(block)):
        report = verify_check("lemma4", rs)
    assert report.observed == {"unit_count": len(fed), "outside_ideal": outside}
    assert (outside > 0) == whole_ring


@functools.cache
def _binomial_matrix(group: GroupSpec) -> np.ndarray:
    """Row i, column g: the coefficient of x^i = prod_j x_j^{i_j} in
    g = prod_j (1 + x_j)^{c_j}, x_j = a_j - 1, which is
    prod_j binom(c_j, i_j) mod p, by math.comb."""
    elements = list(enumerate_elements(group))
    return np.array(
        [
            [math.prod(map(math.comb, g, i)) % group.p for g in elements]
            for i in elements
        ],
        dtype=np.int64,
    )


@pytest.mark.parametrize("group", EVERY_GROUP_TO_64, ids=GroupSpec.to_text)
def test_jennings_sends_each_element_to_its_binomials(group):
    # Every group with |G| <= 64: the transform of the column of each g.
    x = np.eye(group.order(), dtype=np.int64)
    assert np.array_equal(_jennings(x, group), _binomial_matrix(group))


@given(st.sampled_from(EVERY_GROUP_TO_64), st.data())
def test_jennings_of_random_blocks(group, data):
    # Entries in (-p, p), as u - 1 has; the transform is linear mod p.
    p, n = group.p, group.order()
    rng = np.random.default_rng(data.draw(st.integers(0, SEED_MAX)))
    x = rng.integers(1 - p, p, size=(n, data.draw(st.integers(1, 4))), dtype=np.int64)
    expect = _binomial_matrix(group) @ x % p
    assert np.array_equal(_jennings(x, group), expect)


@functools.cache
def _socle_ideal(group: GroupSpec):
    """The translates (h - 1) g over every h != 1 of G[p] (rows) and their
    Howell form over F_p."""
    gens = reference_socle_ideal_generators(RingSpec(group, 1))
    return np.array(gens.rows, dtype=np.int64).reshape(gens.nrows, gens.ncols), howell_array(gens)


@given(st.sampled_from(EVERY_GROUP_TO_64), st.data())
def test_socle_ideal_box_matches_howell_membership(group, data):
    # Random vectors, and random combinations of the translates of every
    # h - 1, which lie in I(G[p]): outside the box iff outside the span.
    p, n = group.p, group.order()
    gens, H = _socle_ideal(group)
    rng = np.random.default_rng(data.draw(st.integers(0, SEED_MAX)))
    cols = data.draw(st.integers(1, 8))
    members = gens.T @ rng.integers(0, p, size=(len(gens), cols), dtype=np.int64) % p
    vecs = np.concatenate([rng.integers(0, p, size=(n, cols), dtype=np.int64), members], axis=1)
    expect = ~H.contains(vecs)
    assert not expect[cols:].any()
    assert np.array_equal(_outside_socle_ideal(vecs.copy(), group), expect)


@pytest.mark.parametrize("group", EVERY_GROUP_TO_64, ids=GroupSpec.to_text)
def test_monomials_outside_the_box_count_the_p_rank(group):
    # The monomial x^i in the group basis has coefficient
    # prod_j binom(i_j, c_j) (-1)^{i_j - c_j} at g.  It lies in I(G[p]) iff
    # some i_j >= p^{lambda_j - 1}, and there are |G| - |G^p| such i.
    p, elements = group.p, list(enumerate_elements(group))

    def coefficient(i, g):  # binom(a, c) = 0 for c > a
        return math.prod(math.comb(a, c) * (-1) ** abs(a - c) for a, c in zip(i, g)) % p

    monomials = np.array([[coefficient(i, g) for i in elements] for g in elements], np.int64)
    assert np.array_equal(_jennings(monomials.copy(), group), np.eye(len(elements)))
    inside = ~_outside_socle_ideal(monomials, group)
    tops = [p ** (l - 1) for l in group.lambdas]
    assert inside.tolist() == [any(map(int.__ge__, i, tops)) for i in elements]
    assert np.count_nonzero(inside) == group.order() - p ** agemo_order_exp(group, 1)
    assert np.count_nonzero(inside) == p_rank_vzp(group)


# One chain per ring, built here rather than through zpelin's cache, as
# the reference of the members at e = 1 and of the factor products.
_fresh_chain = functools.cache(zpelin._IdealChain)


@given(st.integers(0, SEED_MAX))
def test_members_at_e1_match_the_chain(seed):
    # Every group with |G| <= 64 at e = 1: the members read off the least
    # degrees equal the chain's walk for n = 1 ... nu + 2 in a random order
    # and at n = 10^12, and nu is one more than the chain's nonzero levels.
    rng = random.Random(seed)
    for group in EVERY_GROUP_TO_64:
        rs = RingSpec(group, 1)
        chain = _fresh_chain(rs)
        nu = nilpotency_index(rs)
        for n in rng.sample([*range(1, nu + 3), 10 ** 12], nu + 3):
            members = ideal_power_members(rs, n)
            assert members.tolist() == chain.power_members(n).tolist()
            assert not members.flags.writeable
        assert chain.level(nu).size_exp == 0 and nu == len(chain.levels) + 1


@settings(max_examples=20)
@given(st.integers(0, SEED_MAX))
def test_members_of_split_groups_are_the_factor_products(seed):
    # Every group with |G| <= 64 and k >= 2 at e = 2, 3: the product of the
    # cyclic factors' sets, walked from cold caches, equals G's own chain's
    # walk for n = 1 ... nu + 2 in a random order and at n = 10^12, as
    # ascending read-only indices.  Each example rebuilds the factors'
    # chains of 56 rings (about 0.09 s), so it takes fewer examples than
    # the profile's.
    rng = random.Random(seed)
    for group in (g for g in EVERY_GROUP_TO_64 if g.k >= 2):
        for e in (2, 3):
            rs = RingSpec(group, e)
            chain = _fresh_chain(rs)
            nu = nilpotency_index(rs)
            zpelin._chain.cache_clear()
            zpelin._products.cache_clear()
            for n in rng.sample([*range(1, nu + 3), 10 ** 12], nu + 3):
                members = ideal_power_members(rs, n)
                assert members.tolist() == chain.power_members(n).tolist()
                assert not members.flags.writeable
                assert (np.diff(members) > 0).all()


@given(st.sampled_from(range(1, 5)))
def test_nilpotency_index_matches_the_chain(e):
    # Every group with |G| <= 64, p <= 7, at each e <= 4: nu from the
    # factors' content valuations is one more than the number of nonzero
    # levels of the chain, run to completion.
    for group in GROUPS_TO_64:
        rs = RingSpec(group, e)
        chain = _fresh_chain(rs)
        while not chain.complete:
            chain.level(len(chain.levels) + 1)
        assert nilpotency_index(rs) == len(chain.levels) + 1


@pytest.mark.parametrize("group", EVERY_GROUP_TO_64, ids=GroupSpec.to_text)
def test_least_degree_of_the_identity_is_nu(group):
    # The identity's sentinel in the least degrees is nu at e = 1, which is
    # also 1 + the largest degree on G's digit grid.
    nu = nilpotency_index(RingSpec(group, 1))
    assert zpelin._least_degrees(group)[0] == nu == zpelin._degrees(group).max() + 1


@given(st.sampled_from(RINGS))
def test_no_p_torsion_block_outlives_its_check(rs):
    # Units.p_torsion decodes a fresh block for each check that asks; none
    # may stay on the Units, or anywhere else, once the checks are done.
    refs = []
    decode = Units.p_torsion

    def recorded(self):
        block = decode(self)
        refs.append(weakref.ref(block))
        return block

    units = Units(rs)
    with mock.patch.object(Units, "p_torsion", recorded):
        for check, params in plan_checks(rs):
            assert verify_check(check, units, params).passed
    assert refs and all(ref() is None for ref in refs)
    assert [k for k, v in vars(units).items() if isinstance(v, np.ndarray)] == ["table"]


@given(st.sampled_from(RINGS))
def test_lemma2_columns_match_scalar_powers(rs):
    powers = _lemma2_powers(Units(rs), 0, rs.size)
    assert sorted(powers) == list(range(rs.e - 1, rs.e + 4))
    elements = list(enumerate_elements(rs.group))
    for k, block in powers.items():
        expect = [(one(rs) - from_group_element(rs, g)) ** rs.p ** k for g in elements]
        assert block.T.tolist() == [list(x.coeffs) for x in expect]
    cases, violations = reference_lemma2(rs)
    assert verify_check("lemma2", rs).observed == {"cases": cases, "violations": violations}


@given(st.sampled_from(GROUPS_TO_64), st.integers(1, 3), st.integers(0, 4), st.data())
def test_lemma2_blocks_and_the_induced_power_map(group, e, s, data):
    # lemma2 powers its columns one block at a time and compares column g
    # of P[l] with column g of P[l - s] mapped along g -> g^{p^s}; for the
    # identity it checks, that image must be the column of g^{p^s}.
    rs = RingSpec(group, e)
    units = Units(rs)
    lo = data.draw(st.integers(0, rs.size - 1))
    hi = data.draw(st.integers(lo + 1, rs.size))
    block, images = _lemma2_powers(units, lo, hi), power_indices(group, group.p ** s)
    for k, P in _lemma2_powers(units, 0, rs.size).items():
        assert np.array_equal(block[k], P[:, lo:hi])
        assert np.array_equal(_induced(P, group, s, rs.modulus), P[:, images])


@given(st.sampled_from(GROUPS_TO_64), st.data())
def test_induced_power_map_and_agemo_grid_match_power_indices(group, data):
    # G's power map g -> g^{p^s}, read off its digit grid, against its index
    # array: the image of a random block is the scalar scatter-add of its
    # rows along that array, and the agemo sub-grid holds the array's values
    # (s past lambda_1 sends G to 1).
    s = data.draw(st.integers(0, group.lambdas[0] + 2))
    q = group.p ** data.draw(st.integers(1, 3))
    rng = np.random.default_rng(data.draw(st.integers(0, SEED_MAX)))
    x = rng.integers(0, q, size=(group.order(), data.draw(st.integers(1, 4))), dtype=np.int64)
    images = power_indices(group, group.p ** s)
    expect = [[0] * x.shape[1] for _ in images]
    for i, g in enumerate(images.tolist()):
        for c, a in enumerate(x[i].tolist()):
            expect[g][c] = (expect[g][c] + a) % q
    before = x.copy()
    assert _induced(x, group, s, q).tolist() == expect
    assert np.array_equal(x, before)
    grid = np.zeros(group.radices, dtype=bool)
    grid[_agemo(group, s)] = True
    assert np.flatnonzero(grid).tolist() == np.unique(images).tolist()


def _iterated_order_exp(u: RingElement, max_exp: int) -> int:
    """Least m <= max_exp with u^{p^m} = 1 by repeated p-th powers, else -1."""
    for m in range(max_exp + 1):
        if u == one(u.spec):
            return m
        u = u ** u.spec.p
    return -1


def _lemma9_unit(rs: RingSpec, d: int, y) -> RingElement:
    return one(rs) + rs.p ** d * RingElement(rs, tuple(y))


@given(st.sampled_from([rs for rs in RINGS if rs.e >= 2]), st.data())
def test_lemma9_order_exps_match_scalar_powering(rs, data):
    # Units 1 + p^d y stacked in ascending d, each column under its own
    # bound, the bounds falling along the block.  The units are not
    # normalized; a bound below a unit's order leaves -1, exactly as the
    # scalar loop does.
    cols = data.draw(
        st.lists(
            st.integers(1, rs.e - 1).flatmap(
                lambda d: st.tuples(
                    st.just(d),
                    st.integers(0, rs.e - d),
                    st.lists(st.integers(0, rs.modulus - 1), min_size=rs.size, max_size=rs.size),
                )
            ),
            min_size=1,
            max_size=12,
        )
    )
    cols.sort(key=lambda c: -c[1])
    units = [_lemma9_unit(rs, d, y) for d, _, y in cols]
    bounds = np.array([bound for _, bound, _ in cols])
    got = _batch_order_exps(Units(rs), _array(units), bounds)
    assert got.tolist() == [_iterated_order_exp(u, b) for u, b in zip(units, bounds)]


@given(st.sampled_from([rs for rs in RINGS if rs.e >= 2]), st.integers(0, SEED_MAX), st.data())
def test_lemma9_pass_matches_scalar_per_d(rs, seed, data):
    # One pass powers the candidates of a chunk of d's together; each d
    # must still report on the candidates drawn with its own derived seed.
    units = Units(rs)
    for d in range(1, rs.e):
        lem = units.lemma9(seed, d)
        ys = _lemma9_candidates(rs, _derive_seed(seed, "lemma9", rs, {"d": d}))
        assert len(lem.measured) == len(lem.predicted) == len(lem.exceptional) == ys.shape[1]
        picks = data.draw(st.lists(st.integers(0, ys.shape[1] - 1), min_size=1, max_size=8))
        for j in picks + np.flatnonzero(lem.exceptional)[:8].tolist():
            y = ys[:, j].tolist()
            s = min(p_valuation(c, rs.p) if c else rs.e for c in y)
            square = RingElement(rs, tuple(y)) * RingElement(rs, tuple(y))
            odd = rs.p == 2 and d == 1 and s == 0 and any(c % 2 for c in square.coeffs)
            expect = _iterated_order_exp(_lemma9_unit(rs, d, y), rs.e - d)
            assert (lem.measured[j], lem.exceptional[j]) == (expect, odd)
            predicted = lemma9_predicted_order(d, RingElement(rs, tuple(y)))
            assert rs.p ** int(lem.predicted[j]) == predicted


@given(st.sampled_from([rs for rs in RINGS if rs.e >= 2]), st.integers(0, SEED_MAX), st.data())
def test_lemma9_closed_form_on_the_drawn_candidates(rs, seed, data):
    # The lemma9 check measures orders against its own vectorized copy of
    # the rule; the scalar closed form must agree with that copy on the
    # candidates the pass draws, the exceptional ones among them.
    d = data.draw(st.integers(1, rs.e - 1))
    lem = Units(rs).lemma9(seed, d)
    ys = _lemma9_candidates(rs, _derive_seed(seed, "lemma9", rs, {"d": d}))
    picks = data.draw(st.lists(st.integers(0, ys.shape[1] - 1), min_size=1, max_size=8))
    for j in picks + np.flatnonzero(lem.exceptional)[:8].tolist():
        predicted = lemma9_predicted_order(d, RingElement(rs, tuple(ys[:, j].tolist())))
        assert predicted == rs.p ** int(lem.predicted[j])


def _scalar_order(u: RingElement) -> int:
    # u = a v with a = augmentation(u), a unit of Z_{p^e}, and v = u / a in
    # V; both are p-power torsion here, so u's order is the larger of theirs.
    p, q, a = u.spec.p, u.spec.modulus, augmentation(u)
    a_order = next(p ** m for m in itertools.count() if pow(a, p ** m, q) == 1)
    return max(a_order, unit_order(pow(a, -1, q) * u))


@pytest.mark.parametrize(
    "rs, chunks",
    [
        (RingSpec(GroupSpec(2, (1,)), 31), 1),  # q = 2^31
        (RingSpec(GroupSpec(7, (1,)), 11), 2),  # odd q: a wrapped int64 sum is wrong mod q
    ],
    ids=["C2-e31", "C7-e11"],
)
def test_lemma9_at_the_widest_moduli(rs, chunks):
    # q so wide that the batched product reduces its sum every two rows:
    # every d through one Units must pass, and a few drawn candidates per
    # d, the exceptional ones at d = 1 on C_2 among them, must have the
    # scalar closed form's order and the scalar reference's.
    assert _rows_per_reduction(rs.modulus) == 2
    assert len(oracle._lemma9_chunks(rs, range(1, rs.e))) == chunks
    units = Units(rs)
    for d in range(1, rs.e):
        report = verify_check("lemma9", units, {"d": d}, seed=5)
        assert report.passed and report.observed["cases"] == oracle._LEMMA9_SAMPLES
        lem = units.lemma9(5, d)
        exceptional = np.flatnonzero(lem.exceptional)
        assert (len(exceptional) > 0) == (rs.p == 2 and d == 1)
        ys = _lemma9_candidates(rs, report.seed)
        for j in [0, 1, 2] + exceptional[:3].tolist():
            y = RingElement(rs, tuple(ys[:, j].tolist()))
            order = lemma9_predicted_order(d, y)
            assert order == rs.p ** int(lem.predicted[j]) == _scalar_order(one(rs) + rs.p ** d * y)


@pytest.mark.parametrize(
    "rs, census",
    [
        (RingSpec(GroupSpec(2, (2,)), 3), {1: 256, 2: 2816}),  # Z_8 C_4: 3072
        (RingSpec(GroupSpec(2, (1, 1)), 3), {1: 256, 2: 1792}),  # Z_8 C_2^2: 2048
        (RingSpec(GroupSpec(2, (1,)), 4), {1: 16, 2: 48, 3: 64}),  # Z_16 C_2: 128
    ],
)
def test_lemma9_exceptional_orders_match_scalar_powering(rs, census):
    # Every exceptional unit 1 + 2y (y with an odd coefficient and y^2 with
    # one too): the closed form by one squaring against the order the
    # scalar reference reaches by repeated squaring, tallied by exponent.
    # unit_order would refuse the 1 + 2y whose augmentation is not 1.
    measured = Counter()
    for digits in itertools.product(range(rs.modulus), repeat=rs.size):
        y = RingElement(rs, digits)
        if all(c % 2 == 0 for c in digits) or all(c % 2 == 0 for c in (y * y).coeffs):
            continue
        m = _iterated_order_exp(_lemma9_unit(rs, 1, digits), rs.e - 1)
        assert lemma9_predicted_order(1, y) == 2 ** m
        measured[m] += 1
    assert measured == census


@given(st.sampled_from([2, 3, 5]), st.integers(1, 4), st.data())
def test_min_valuations_match_per_coefficient_minimum(p, e, data):
    # Entries p^v * c mod p^e: v = e gives 0, and c may itself be a
    # multiple of p, so every valuation 0..e occurs.
    q = p ** e
    n, width = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 8))
    entries = data.draw(
        st.lists(
            st.tuples(st.integers(0, e), st.integers(0, q - 1)),
            min_size=n * width,
            max_size=n * width,
        )
    )
    ys = np.array([p ** v * c % q for v, c in entries], dtype=np.int64).reshape(n, width)
    expect = [min(p_valuation(c, p) if c else e for c in col) for col in ys.T.tolist()]
    assert _min_valuations(ys, p, e).tolist() == expect
