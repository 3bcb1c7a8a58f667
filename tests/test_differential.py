"""Batched numpy kernels against the scalar RingElement reference.

Random small (p, lambda, e) and random normalized units: ``_batch_mul``,
``_batch_pow`` and ``_batch_order_exps`` must agree exactly with
``RingElement.__mul__`` (the ``_convolve`` reference), ``__pow__`` and
``unit_order``.
"""

import numpy as np
from hypothesis import given, strategies as st

from punits.oracle import _batch_mul, _batch_order_exps, _batch_pow, _table
from punits.ring import RingElement, RingSpec, _order_exp_bound, unit_order

from .helpers import small_specs

# |G| <= 16 keeps the scalar O(|G|^2) reference quick.
SPECS = [g for g in small_specs(4, primes=(2, 3, 5)) if g.order() <= 16]


@st.composite
def unit_batches(draw):
    """A ring Z_{p^e}G with e <= 3 and 1-4 random normalized units in it."""
    rs = RingSpec(draw(st.sampled_from(SPECS)), draw(st.integers(1, 3)))
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
    return np.array([u.coeffs for u in units], dtype=np.int64)


@given(unit_batches(), st.randoms(use_true_random=False))
def test_batch_mul_matches_scalar_product(batch, rng):
    rs, xs = batch
    ys = list(xs)
    rng.shuffle(ys)
    got = _batch_mul(_table(rs), rs.modulus, _array(xs), _array(ys))
    assert got.tolist() == [list((x * y).coeffs) for x, y in zip(xs, ys)]


@given(unit_batches(), st.integers(1, 40))
def test_batch_pow_matches_scalar_power(batch, m):
    rs, xs = batch
    got = _batch_pow(_table(rs), rs.modulus, _array(xs), m)
    assert got.tolist() == [list((x ** m).coeffs) for x in xs]


@given(unit_batches())
def test_batch_order_exps_match_unit_order(batch):
    rs, xs = batch
    exps = _batch_order_exps(rs, _array(xs), _order_exp_bound(rs))
    assert [rs.p ** int(m) for m in exps] == [unit_order(x) for x in xs]
