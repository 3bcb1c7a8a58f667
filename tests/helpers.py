"""Shared brute-force oracles for the test suite.

Everything here is deliberately independent of the code paths it checks:
dictionary-based convolution instead of the index-table convolution,
iterated squaring instead of valuation formulas, exhaustive span
enumeration instead of Howell pivots.
"""

from __future__ import annotations

import random

from punits.pgroup import GroupSpec, element_mul, enumerate_elements, identity
from punits.ring import RingElement, RingSpec
from punits.zpelin import ResidueMatrix


def partitions(n: int):
    """All descending partitions of n (the abelian p-groups of order p^n)."""
    if n == 0:
        yield ()
        return

    def rec(remaining, max_part):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, max_part), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    yield from rec(n, n)


def small_specs(max_size_exp: int, primes=(2, 3)):
    """Every GroupSpec with |G| = p^m, m <= max_size_exp, for the given primes."""
    out = []
    for p in primes:
        for m in range(1, max_size_exp + 1):
            for lams in partitions(m):
                out.append(GroupSpec(p, lams))
    return out


def dict_mul(x: RingElement, y: RingElement) -> RingElement:
    """Group-ring product via exponent tuples, bypassing the index table."""
    rs = x.spec
    group = rs.group
    els = list(enumerate_elements(group))
    acc: dict = {}
    for g, a in zip(els, x.coeffs):
        if not a:
            continue
        for h, b in zip(els, y.coeffs):
            if not b:
                continue
            k = element_mul(group, g, h)
            acc[k] = (acc.get(k, 0) + a * b) % rs.modulus
    return RingElement(rs, tuple(acc.get(g, 0) for g in els))


def span_elements(M: ResidueMatrix):
    """Exhaustive span enumeration; only for small test matrices."""
    q = M.modulus
    out = {(0,) * M.ncols}
    for row in M.rows:
        new = set()
        for base in out:
            for c in range(q):
                new.add(tuple((b + c * r) % q for b, r in zip(base, row)))
        out = new
    return out


def iterated_element_order(spec: GroupSpec, g) -> int:
    """Least p^t with g^{p^t} = 1 by explicit repeated p-th powering."""
    ident = identity(spec)
    cur = g
    order = 1
    while cur != ident:
        nxt = ident
        for _ in range(spec.p):
            nxt = element_mul(spec, nxt, cur)
        cur = nxt
        order *= spec.p
    return order


def random_element(rng: random.Random, rs: RingSpec) -> RingElement:
    return RingElement(rs, tuple(rng.randrange(rs.modulus) for _ in range(rs.size)))


def random_normalized_unit(rng: random.Random, rs: RingSpec) -> RingElement:
    coeffs = [rng.randrange(rs.modulus) for _ in range(rs.size - 1)]
    coeffs.append((1 - sum(coeffs)) % rs.modulus)
    return RingElement(rs, tuple(coeffs))


def legendre_binomial_valuation(p: int, top: int, j: int) -> int:
    """v_p(binomial(top, j)) from factorial valuations (Legendre sums)."""

    def fact_val(m: int) -> int:
        total = 0
        pk = p
        while pk <= m:
            total += m // pk
            pk *= p
        return total

    return fact_val(top) - fact_val(j) - fact_val(top - j)
