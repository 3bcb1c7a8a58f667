"""Shared brute-force oracles for the test suite.

Everything here is deliberately independent of the code paths it checks:
dictionary-based convolution instead of the index-table convolution,
iterated squaring instead of valuation formulas, exhaustive span
enumeration instead of Howell pivots, a pure-Python Howell elimination
and exact row-by-row membership reduction instead of the numpy core, the
direct product construction of w^n instead of the ideal chain, a
product table built with ``element_mul`` and a dictionary, and its
inverse, instead of the index codec's tables, scalar ring powers case
by case instead of lemma2's batched columns, the translates of all of
G[p] instead of the monomials outside a box, the order census by gathering
the kernel mask along the power map once per exponent instead of reading
fibre sizes off its images, and G's power maps as index arrays instead of
its digit grid.

``alarm`` bounds the wall time of a call that must refuse at once.
``SUITE_SHA256`` pins the default suite's bytes, ``stdlib_json`` is the
rendering every JSON output must match, and ``fresh_python`` runs a child
interpreter on this checkout's sources.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import random
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np

from punits.pgroup import (
    GroupSpec,
    element_mul,
    element_pow,
    enumerate_elements,
    identity,
    radix_decode,
    radix_encode,
)
from punits.ring import RingElement, RingSpec, from_group_element, one, p_valuation
from punits.zpelin import ResidueMatrix


# The seed-0 default suite's bytes, for any worker count, as perfbench's
# reference records them: a change to any kernel must leave every reported
# value as it is.
SUITE_SHA256 = "a3f72ebdb81b43d217a099c3e6745a94af7913ea9b009da5e88cf168c4c2f824"


def stdlib_json(obj) -> str:
    """The rendering every JSON output must match byte for byte."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def fresh_python(*args: str, env=None, timeout: float = 120) -> subprocess.CompletedProcess:
    """Run ``[sys.executable, *args]`` in the environment ``env`` (default
    os.environ) with this checkout's ``src`` first on PYTHONPATH.  stdout
    and stderr are captured as bytes, so a hash is taken over the bytes
    written."""
    env = dict(os.environ if env is None else env)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], capture_output=True, env=env, timeout=timeout)


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


@functools.cache
def reference_product_index_table(group: GroupSpec) -> tuple[tuple[int, ...], ...]:
    """T[i][j] = index of g_i g_j, by element_mul on enumerated elements;
    cached, because the table and the gather table are both checked
    against it."""
    els = list(enumerate_elements(group))
    index = {g: i for i, g in enumerate(els)}
    return tuple(tuple(index[element_mul(group, g, h)] for h in els) for g in els)


def reference_gather_table(group: GroupSpec) -> np.ndarray:
    """Row i maps m to the j with g_i g_j = g_m, by inverting each row of
    the reference product table."""
    return np.argsort(np.asarray(reference_product_index_table(group)), axis=1)


def power_indices(group: GroupSpec, m: int) -> np.ndarray:
    """Entry i is the index of g_i^m: each coordinate times m mod its radix,
    m of any sign or size reduced mod each radix first, through the index
    codec; the reference for G's power maps read off its digit grid."""
    order = group.order()
    coords = radix_decode(np.arange(order), group.radices, np.empty((group.k, order), np.int64))
    return radix_encode((c * (m % r) % r for c, r in zip(coords, group.radices)), group.radices)


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


def reference_howell_form(M: ResidueMatrix) -> ResidueMatrix:
    """Howell normal form by pure-Python row elimination, one entry at a time."""
    p, e, q = M.p, M.e, M.modulus
    work = [list(row) for row in M.rows if any(row)]
    basis: list[list[int]] = []

    for col in range(M.ncols):
        cand = [r for r in work if r[col]]
        if not cand:
            continue
        pivot_row = min(cand, key=lambda r: p_valuation(r[col], p))
        work.remove(pivot_row)
        v = p_valuation(pivot_row[col], p)
        inv = pow(pivot_row[col] // p ** v, -1, q)
        pivot_row = [(inv * x) % q for x in pivot_row]
        piv = p ** v

        for r in work:
            if r[col]:
                f = r[col] // piv
                for j in range(col, M.ncols):
                    r[j] = (r[j] - f * pivot_row[j]) % q
        basis.append(pivot_row)

        # Annihilator row p^{e-v} * pivot_row (Howell property).
        if v:
            ann = [(p ** (e - v) * x) % q for x in pivot_row]
            if any(ann):
                work.append(ann)
        work = [r for r in work if any(r)]

    # Reduce entries above each pivot into [0, pivot).
    for i, row in enumerate(basis):
        col = next(c for c, x in enumerate(row) if x)
        piv = row[col]
        for j in range(i):
            f = basis[j][col] // piv
            if f:
                basis[j] = [(a - f * b) % q for a, b in zip(basis[j], row)]

    return ResidueMatrix(p, e, M.ncols, tuple(tuple(r) for r in basis))


def reference_residues(rows, pivots, q: int, vecs) -> list[list[int]]:
    """The residue of each column of vecs by a Howell form given as rows and
    pivot columns, by exact integer reduction mod q after every row."""
    rows = np.asarray(rows).tolist()
    out = []
    for vec in np.asarray(vecs).T.tolist():
        v = [x % q for x in vec]
        for row, col in zip(rows, pivots):
            f = v[col] // row[col]
            v = [(a - f * b) % q for a, b in zip(v, row)]
        out.append(v)
    return out


def reference_contains(rows, pivots, q: int, vecs) -> list[bool]:
    """Membership of each column of vecs in the span of a Howell form:
    whether its exact residue (``reference_residues``) is 0."""
    return [not any(v) for v in reference_residues(rows, pivots, q, vecs)]


def direct_ideal_power_rows(rs: RingSpec, n: int) -> ResidueMatrix:
    """A spanning set of w^n built directly, with scalar ring products.

    Rows are the coefficient vectors of ``(a_{i1}-1)...(a_{in}-1) * g`` over
    all multisets of the k canonical group generators and all translates g
    in G.
    """
    group = rs.group
    gens = []
    for j in range(group.k):
        exps = [0] * group.k
        exps[j] = 1
        gens.append(from_group_element(rs, tuple(exps)) - one(rs))

    rows = []
    for comb in itertools.combinations_with_replacement(range(group.k), n):
        base = one(rs)
        for j in comb:
            base = base * gens[j]
        if base.is_zero():
            continue
        for g in enumerate_elements(group):
            rows.append((base * from_group_element(rs, g)).coeffs)
    return ResidueMatrix(rs.p, rs.e, rs.size, tuple(rows))


def reference_socle_ideal_generators(rs: RingSpec) -> ResidueMatrix:
    """The translates (h - 1) g over every h != 1 of G[p] and every g in G,
    h-major, by element_mul: all (|G[p]| - 1)|G| of them."""
    group = rs.group
    elements = list(enumerate_elements(group))
    index = {g: i for i, g in enumerate(elements)}
    rows = []
    for h in elements[1:]:
        if element_pow(group, h, group.p) != identity(group):
            continue
        for g in elements:
            row = [0] * len(elements)
            row[index[element_mul(group, h, g)]] += 1
            row[index[g]] -= 1
            rows.append(tuple(row))
    return ResidueMatrix(rs.p, rs.e, len(elements), tuple(rows))


def reference_lemma2(rs: RingSpec) -> tuple[int, int]:
    """(cases, violations) of (1-g)^{p^l} = (1-g^{p^s})^{p^{l-s}} over all
    g in G, e <= l <= e+3 and 0 <= s <= l-e+1, one scalar case at a time."""
    p, e = rs.p, rs.e
    unit_one = one(rs)
    cases = 0
    violations = 0
    for g in enumerate_elements(rs.group):
        base = unit_one - from_group_element(rs, g)
        for l in range(e, e + 4):
            lhs = base ** (p ** l)
            for s in range(0, l - e + 2):
                gs = element_pow(rs.group, g, p ** s)
                rhs = (unit_one - from_group_element(rs, gs)) ** (p ** (l - s))
                cases += 1
                if lhs != rhs:
                    violations += 1
    return cases, violations


def iterated_gather_census(one, chi, mult: int, total: int) -> dict[int, int]:
    """Order exponent -> number of units, from a power map's masks: the
    kernel of phi^{m+1} is the kernel of phi^m read at chi, one gather per
    exponent, each index standing for mult units of the total."""
    ker = np.asarray(one)
    sizes = [1, mult * int(np.count_nonzero(ker))]
    while sizes[-1] < total:
        if len(sizes) > 64:
            raise ArithmeticError("no exponent kills every unit")
        ker = ker[chi]
        sizes.append(mult * int(np.count_nonzero(ker)))
    return {m: b - a for m, (a, b) in enumerate(zip([0, *sizes], sizes)) if b > a}


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


class Hang(BaseException):
    """Raised by ``alarm``.  Not an Exception, so no handler of the code
    under test turns it into a result (``cli.main`` catches OSError, and
    TimeoutError is one)."""


@contextlib.contextmanager
def alarm(seconds: float):
    """Raise Hang in the block once it has run for ``seconds`` of wall time.
    A signal is handled between bytecodes, so one long C call, such as a
    huge power, is interrupted only when it returns."""

    def fire(signum, frame):
        raise Hang(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
