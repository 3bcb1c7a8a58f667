"""Canonical-form linear algebra over Z_{p^e}: Howell normal form.

Row spans over a residue ring with zero divisors need more than an
echelon form: membership tests require that every span element whose
leading coordinates vanish is generated by the trailing rows.  The Howell
normal form has exactly that property, and is canonical: two matrices
have equal row spans iff their Howell forms are identical.

Conventions here: pivots are exact powers of p (unit parts divided out),
pivot columns strictly increase, entries above a pivot p^v are reduced
into [0, p^v), and zero rows are dropped.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .pgroup import enumerate_elements, identity, socle_elements
from .ring import RingSpec, from_group_element, one, p_valuation


@dataclass(frozen=True)
class ResidueMatrix:
    """A rectangular matrix over Z_{p^e}, rows as canonical residues."""

    p: int
    e: int
    ncols: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        q = self.modulus
        rows = tuple(tuple(int(c) % q for c in row) for row in self.rows)
        for row in rows:
            if len(row) != self.ncols:
                raise ValueError("ragged rows in residue matrix")
        object.__setattr__(self, "rows", rows)

    @property
    def modulus(self) -> int:
        return self.p ** self.e

    @property
    def nrows(self) -> int:
        return len(self.rows)


def _leading(row) -> int:
    for c, v in enumerate(row):
        if v:
            return c
    return -1


def howell_form(M: ResidueMatrix) -> ResidueMatrix:
    """Howell normal form of M; span(H) = span(M), H canonical."""
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
        unit = pivot_row[col] // (p ** v)
        inv = pow(unit, -1, q)
        pivot_row = [(inv * x) % q for x in pivot_row]
        piv = p ** v

        for r in work:
            if r[col]:
                f = r[col] // piv
                for j in range(col, M.ncols):
                    r[j] = (r[j] - f * pivot_row[j]) % q
        basis.append(pivot_row)

        # Annihilator row: p^{e-v} * pivot_row spans the part of the span
        # whose leading entries vanish at this column (Howell property).
        if v:
            ann = [(p ** (e - v) * x) % q for x in pivot_row]
            if any(ann):
                work.append(ann)
        work = [r for r in work if any(r)]

    # Reduce entries above each pivot into [0, pivot).
    for i, row in enumerate(basis):
        col = _leading(row)
        piv = row[col]
        for j in range(i):
            f = basis[j][col] // piv
            if f:
                basis[j] = [(a - f * b) % q for a, b in zip(basis[j], row)]

    return ResidueMatrix(p, e, M.ncols, tuple(tuple(r) for r in basis))


def _reduce_vector(H: ResidueMatrix, v) -> tuple[int, ...]:
    # Greedy reduction against a Howell form; residual 0 iff member.
    q, p = H.modulus, H.p
    vec = [int(c) % q for c in v]
    for row in H.rows:
        col = _leading(row)
        piv = row[col]
        f = vec[col] // piv
        if f:
            for j in range(col, H.ncols):
                vec[j] = (vec[j] - f * row[j]) % q
    return tuple(vec)


def module_membership(v, M: ResidueMatrix) -> bool:
    """Whether the vector v lies in the row span of M over Z_{p^e}.

    Always reduces against the Howell form: an echelon form without the
    trailing annihilator rows would answer wrongly on spans with zero
    divisors.
    """
    if len(v) != M.ncols:
        raise ValueError(f"expected {M.ncols} coordinates, got {len(v)}")
    return not any(_reduce_vector(howell_form(M), v))


def module_size_exp(M: ResidueMatrix) -> int:
    """t with |span(M)| = p^t, from the Howell pivot valuations."""
    total = 0
    for row in howell_form(M).rows:
        piv = row[_leading(row)]
        total += M.e - p_valuation(piv, M.p)
    return total


def ideal_power_generators(rs: RingSpec, n: int) -> ResidueMatrix:
    """A module spanning set for w^n, the n-th power of the augmentation ideal.

    Rows are the coefficient vectors of products
    ``(a_{i1}-1)...(a_{in}-1) * g`` over all multisets of the k canonical
    group generators and all translates g in G.  As an ideal w is generated
    by the generator differences, so these products span w^n as a
    Z_{p^e}-module.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
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
            prod = base * from_group_element(rs, g)
            rows.append(prod.coeffs)
    return ResidueMatrix(rs.p, rs.e, rs.size, tuple(rows))


def nilpotency_index(rs: RingSpec) -> int:
    """Least n with w^n = 0."""
    n = 1
    while module_size_exp(ideal_power_generators(rs, n)) > 0:
        n += 1
    return n


def socle_ideal_generators(rs: RingSpec) -> ResidueMatrix:
    """Spanning set of the ideal generated by {h - 1 : h in G[p]}."""
    group = rs.group
    rows = []
    ident = identity(group)
    for h in socle_elements(group):
        if h == ident:
            continue
        diff = from_group_element(rs, h) - one(rs)
        for g in enumerate_elements(group):
            rows.append((diff * from_group_element(rs, g)).coeffs)
    return ResidueMatrix(rs.p, rs.e, rs.size, tuple(rows))
