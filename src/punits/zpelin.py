"""Canonical-form linear algebra over Z_{p^e}: Howell normal form; the
monomial basis of Z_{p^e}G, in which every power of the augmentation ideal
w is the monomials of high degree plus one Howell block; the nilpotency
index of w and the dimension subgroups read off it; and the chain of
powers of w in the basis of G's elements.

Row spans over a residue ring with zero divisors need more than an
echelon form: membership tests require that every span element whose
leading coordinates vanish is generated by the trailing rows.  The Howell
normal form has exactly that property, and is canonical: two matrices
have equal row spans iff their Howell forms are identical.

Conventions here: pivots are exact powers of p (unit parts divided out),
pivot columns strictly increase, entries above a pivot p^v are reduced
into [0, p^v), and zero rows are dropped.

Every form starts with an echelon block E: for each column that leads a
row of the input with a unit entry, one such row (any), scaled to lead
with 1, in increasing lead order.  U = E[:, leads] is then unit upper
triangular, and U^{-1} E is E's reduced form.  If no row of U has more than
one entry off the diagonal, that is a back-substitution along pointers:
with X_i row i of E on the columns off E's leads, ptr_i the row whose lead
holds row i's one off-diagonal entry u_i, and c_i = -u_i (c_i = 0 for a
row without one), the reduced rows satisfy

    R_i = X_i + c_i R_{ptr_i}.

One round of pointer jumping,

    X_i += c_i X_{ptr_i},  c_i *= c_{ptr_i},  ptr_i = ptr_{ptr_i},

all on the old values and reduced mod q, keeps this invariant and doubles
the length of the chain each pointer skips, so after ceil(log2 depth) + 1
rounds every c_i is 0 and X_i = R_i.  X and c hold residues, so c_i X_{ptr_i}
+ X_i <= (q - 1)^2 + (q - 1) < q^2 <= 2^62 fits int64 (q <= 2^31 =
``RING_CHAR_CAP``).  The other rows are then reduced against E in one
``_product_mod``: E's reduced rows are 1 at their own lead and 0 at the
others', so a row's entries at E's leads are its coefficients, and what is
left of it is 0 there.  If nothing is left, E is the form.  Otherwise the
sequential core below takes what is left (its pivots, units or p^v, fall
off E's leads), E's rows are reduced by the core's rows the way
``HowellArray.contains`` reduces a vector, and the two sets of rows are
merged by pivot column.  That is the Howell form of the whole: an element x
of the span is sum a_i R_i + y with a_i = x at lead i and y in the core's
span, so the core's Howell property carries over.  If a row of U has two or
more entries off the diagonal, E stays empty and the core takes every row.

The sequential core works in one int64 buffer of nrows + ncols rows: the
input rows, then room for one annihilator row per pivot.  Rows [0, top) are
the basis found so far and rows [top, end) are still to be reduced; nothing
is copied or deleted per pivot, and rows that fall to zero stay where they
are.  It walks the columns that hold a nonzero.  At each the row of least
valuation v is normalized to pivot p^v and swapped to ``top``; then one
gather/scatter over the pivot row's nonzero columns reduces every other row
(Gauss-Jordan in the forward pass): active rows, whose entries there are
multiples of p^v, to 0, and basis rows into [0, p^v).  The annihilator
p^{e-v} * row goes to ``end``.  Each row operation is reduced mod q = p^e
(``pgroup.mod_in_place``), and q <= 2^31 keeps each product f * row below 2^62.

``HowellArray.contains`` takes a block of vectors, one per column with
entries in (-q, q), and reduces it against the form's own rows
(``_reduced``).  Every entry above a pivot 1 is reduced into [0, 1), so it
is 0, and every entry below a pivot is 0: a unit-pivot row's coefficient in
the reduction of x is x's own entry at its pivot column, whatever the other
rows are.  So all of those rows come off at once, by one product
x - H_u^T x[unit pivot columns] (at e = 1 every pivot is 1, and that is the
whole test).  The rows with pivot p^v, v >= 1 (``unit`` marks which are
which), follow in turn by elimination.  The whole block is reduced before
the first of them, as the product leaves entries in (-2q + 1, q), then
before every k-th, k = ``ring._rows_per_reduction(q, signed=True)``
(entries and f may be negative), and at the end; before the others only
the pivot entry is, so that f = v[col] // p^v stays below q.  What is left
is x's residue, which is canonical (``HowellArray.coset_keys``), and x lies
in the span iff it is 0.

The product is ``_product_mod``.  It multiplies in float64 (BLAS),
chunk by chunk of k = ``ring._float_terms(q)`` inner columns, the largest k
with k(q-1)^2 <= 2^53: every partial sum of a chunk is then an integer of
magnitude at most 2^53, exact in any order of addition.  Each chunk goes to
int64 and joins the running sum, which is reduced before the next.  Past q
of about 9.5 * 10^7 (2^27, 3^17, 5^12, 7^10 and up) not one product is
exact in float64, and the chunks are int64 products of
``ring._rows_per_reduction(q)`` columns, the bound of ``oracle``'s batched
product (q + k(q-1)^2 <= 2^63 - 1; k >= 2, and 2 at 7^11).

The monomial basis.  With a_1, ..., a_k the canonical generators of G, of
orders p^{lambda_j}, and x_j = a_j - 1, the monomials x^i = prod_j
x_j^{i_j}, 0 <= i_j < p^{lambda_j}, are a Z_q-basis of Z_qG, q = p^e, at
every e (Jennings at e = 1): g = prod_j (1 + x_j)^{c_j} has coefficient
prod_j binom(c_j, i_j) at x^i, and the matrix binom(c, i), c, i <
p^lambda, is 1 on its diagonal and 0 below it, so it has an inverse over
Z.  ``_monomials`` applies it mod q along each axis of G's digit grid
(at q = p along the grid refined to base-p digits, by Lucas's theorem) and
puts the coefficient of x^i at coordinates i, so a monomial's degree
sum_j i_j is the sum of its coordinates (``_degrees``).  lemma4 reads it
at q = p, and lemma5 at every e.  The column of g itself is the tensor
product of the Pascal columns c_j (``_pascal``), which the dimension
subgroups read with no product.

In that basis every power w^n has one shape.  As an ideal, w is generated
by the x_j (xy - 1 = x(y - 1) + (x - 1)), so w^n is generated by the
monomials of degree n, and as a Z_q-module it is spanned by the x^i of
degree >= n with any i_j >= 0, as every group element is a polynomial in
the x_j.  Those with every i_j < p^{lambda_j} are the basis vectors of
degree >= n.  The others are written in the basis through (1 +
x_j)^{p^{lambda_j}} = 1, a tensor product of each factor's row x_j^{i_j}
(``_powers``, one table per (p, lambda_j, e), m = 0 ... the last m with
x_j^m != 0), and their parts of degree < n span one block R_n (Howell
1986; ``_remainder``).  So w^n is the vectors whose part of degree < n
lies in R_n, and |w^n| = p^{e #{deg >= n}} |R_n|.  R_n is listed from the
cyclic factors alone and formed on the coordinates of degree < n only: a
product is 0 once its factors' content valuations sum to e, and 0 below
degree n once their least degrees sum to n.  At e = 1, x_j^{p^{lambda_j}}
= a_j^{p^{lambda_j}} - 1 = 0, so R_n = 0 and w^n is the span of the
monomials of degree >= n.

The nilpotency index nu, the least n with w^n = 0, needs only the factors'
content valuations (``nilpotency_index``): nu - 1 is the largest degree of
a nonzero monomial.  Z_qG is the tensor product over Z_q of the
Z_qC_{p^{lambda_j}}, each free on its group elements, and x^i is the
tensor product of the x_j^{i_j}.  The content valuation of an element (the
least p-valuation of its coefficients, the same in any basis that a matrix
with an inverse over Z carries to another) is additive on such products:
the product of coefficients where each factor attains its least valuation
has exactly the sum, and none has less.  So x^i = 0 iff sum_j c_j(i_j) >=
e, with c_j(m) the content valuation of x_j^m, capped at e.  c_j is 0
below p^{lambda_j} and never falls, so each factor is a staircase M_j(t),
the largest m with c_j(m) <= t (``_staircase``, one step of a walk along
x_j^m in the monomial basis per m, from x_j^{p^{lambda_j} - 1}), and nu - 1
is the largest sum_j M_j(t_j) with sum_j t_j <= e - 1, a max-plus fold
over the factors.  At e = 1 that is sum_j (p^{lambda_j} - 1).

The dimension subgroups S_n = {g in G : g - 1 in w^n}, which lemma3 checks
(``ideal_power_members``), are read off one table per ring, G's depths
(``_depths``): for each g, the largest n with g - 1 in w^n, and nu for
the identity.  As w^{n+1} lies in w^n, g lies in S_n iff n is at most its
depth, so any n costs one comparison.  The columns g - 1 are written in
the monomial basis in ``pgroup._blocks``-sized blocks.  g - 1 lies in w^d
for d its least
degree, as its part of degree < d is 0, and at e = 1 in no higher power.
At e >= 2 the g of a block are then tested against R_{d + 1}, R_{d + 2},
..., each test on the g that passed the one before, so every g is tested
once per level it reaches.  No Howell form |G| wide is built, cyclic G or
not.  This uses neither lemma3 nor Jennings' theorem on dimension
subgroups.

The ideal chain.  ``ideal_power_form`` and ``ideal_power_generators``
give H(w^n) in the basis of G's elements, from one chain per ring
(``_IdealChain``).  H(w) is the Howell form of the rows g - g_last (g in
G, g_last the last element in index order), and

    H(w^{n+1}) = Howell{(a_j^{-1} - 1) h : h a row of H(w^n), j = 1..k},

as w^{n+1} = sum_j (a_j - 1) w^n and (a_j^{-1} - 1) w^n = (a_j - 1)
(-a_j^{-1} w^n) = (a_j - 1) w^n.  Each translate h a_j^{-1} moves h's
coefficients one step down G's digit grid on axis j (one ``np.roll``).
The inverses are chosen for the echelon block: where h leads with 1 at an
element g whose coordinate j is not 0, h a_j^{-1} - h leads with 1 at g
a_j^{-1}, which comes before g in index order, where h is still 0.  A
level's rows therefore arrive with unit leads, and on every chain measured
each row of their U has at most one entry off the diagonal; at e = 1 the
whole level is one block.  A chain is extended only up to the power asked
for, and up to its first zero level, and kept for the life of the process.
No check builds it: mapping R_n back to the group basis with one Howell
form was measured slower where the chain is fast, at small n (C_1024 at
e = 2, n = 3: 2.72 s against 0.07 s), and the chain stays for this public
use and as the tests' reference.

G's gather table and generators are read from ``pgroup``.  Matrices are
int64 arrays of residues; ``ResidueMatrix`` is only the public edge type.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .pgroup import (
    GroupSpec,
    _blocks,
    checked_int,
    checked_prime,
    mod_in_place,
    radix_encode,
    residues,
    table_order,
)
from .ring import RingSpec, _float_terms, _rows_per_reduction, checked_modulus_exp, p_valuation


@dataclass(frozen=True)
class ResidueMatrix:
    """A rectangular matrix over Z_{p^e}, rows as canonical residues.

    p must be prime (``pgroup.checked_prime``), e an int >= 1 with p^e <=
    ``RING_CHAR_CAP`` (``ring.checked_modulus_exp``, decided from e before
    p^e is built), ncols an int >= 1 and every entry an int
    (``pgroup.residues``), reduced mod p^e; each row has ncols entries.
    """

    p: int
    e: int
    ncols: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        p = checked_prime(self.p)
        e = checked_modulus_exp(p, self.e)
        ncols = checked_int(self.ncols, "ncols", 1)
        rows = tuple(residues(row, p**e, "entry") for row in self.rows)
        if any(len(row) != ncols for row in rows):
            raise ValueError("ragged rows in residue matrix")
        for name, value in (("p", p), ("e", e), ("ncols", ncols), ("rows", rows)):
            object.__setattr__(self, name, value)

    @property
    def modulus(self) -> int:
        return self.p ** self.e

    @property
    def nrows(self) -> int:
        return len(self.rows)


@dataclass(frozen=True, eq=False)
class HowellArray:
    """A Howell form as arrays.

    ``rows`` is read-only with dtype ``np.min_scalar_type(q - 1)``, one row
    per pivot; ``pivots`` holds each row's pivot column, ``unit`` (a
    read-only boolean array) marks the rows whose pivot entry is 1, and the
    span has p^``size_exp`` elements.
    """

    p: int
    e: int
    rows: np.ndarray
    pivots: tuple[int, ...]
    unit: np.ndarray
    size_exp: int

    def contains(self, vecs: np.ndarray) -> np.ndarray:
        """Boolean mask: which columns of vecs lie in the span.

        vecs is int64, one vector per column, with entries in (-q, q).
        """
        q = self.p ** self.e
        return ~_reduced(vecs, self.rows, self.pivots, self.unit, q).any(axis=0)

    def coset_keys(self, vecs: np.ndarray) -> np.ndarray:
        """The coset of the span that holds each column of vecs (int64,
        entries in (-q, q)), as an int64 key: the column's residue
        (``_reduced``) read as a base-q number, exact while q^n <= 2^62 for
        n coordinates.  Two columns get one key iff they lie in one coset.

        The residue r(x) is x less a span element, every entry in [0, q)
        and the entry at each pivot p^v in [0, p^v).  If x - y lies in the
        span, so does d = r(x) - r(y).  Were d != 0, with c its first
        nonzero column, the Howell property would make d a combination of
        the rows with pivot column >= c alone.  Those past c are 0 at c, so
        some row has its pivot p^v at c, and d_c is a multiple of p^v (p^v
        divides q).  But r(x)_c and r(y)_c both lie in [0, p^v), so d_c = 0,
        a contradiction.  So r(x) = r(y): r is constant on each coset, and
        tells cosets apart, as x - r(x) lies in the span.
        """
        q, n = self.p ** self.e, vecs.shape[0]
        if q ** n > 1 << 62:
            raise OverflowError(f"coset keys of {n} coordinates mod {q} pass int64")
        return radix_encode(_reduced(vecs, self.rows, self.pivots, self.unit, q), (q,) * n)

    def matrix(self) -> ResidueMatrix:
        rows = tuple(map(tuple, self.rows.tolist()))
        return ResidueMatrix(self.p, self.e, self.rows.shape[1], rows)


def _reduced(vecs, rows, pivots, unit, q: int) -> np.ndarray:
    """The columns of vecs (int64, entries in (-q, q)) reduced mod q by the
    Howell rows ``rows`` with pivot columns ``pivots`` and unit flags ``unit``.
    """
    cols = np.array(pivots, dtype=np.intp)
    # A unit-pivot row's coefficient is the vector's own entry at its
    # pivot column; v lies in (-2q + 1, q) until its first reduction.
    v = vecs - _product_mod(rows[unit].T, vecs[cols[unit]], q)
    k = _rows_per_reduction(q, signed=True)
    for i, (row, col) in enumerate(zip(rows[~unit], cols[~unit])):
        if i % k:  # rows since the last reduction changed v[col]
            mod_in_place(v[col], q)
        else:  # the first row and every k-th: the whole block
            mod_in_place(v, q)
        at = row.nonzero()[0]
        v[at] -= row[at, None] * (v[col] // row[col])
    return mod_in_place(v, q)


def _product_mod(A: np.ndarray, X: np.ndarray, q: int) -> np.ndarray:
    """A X mod q, as int64, for integer A with entries in [0, q) and X in
    (-q, q); X may be a stack of matrices, its second-last axis the inner
    one, as numpy's ``@`` reads it.

    The product runs in float64, chunk by chunk of k = ``ring._float_terms(q)``
    columns of A: each chunk is exact, a sum of k products of magnitude at
    most (q-1)^2, so at most 2^53 in all.  Past q of about 9.5 * 10^7, where
    not even one product is exact, it runs in int64 with k =
    ``ring._rows_per_reduction(q)``.  The running sum, in int64, is reduced
    before each further chunk.
    """
    k, dtype = _float_terms(q), np.float64
    if k < 1:
        k, dtype = _rows_per_reduction(q), np.int64

    def chunk(lo: int) -> np.ndarray:
        # The operands' float64 copies are freed before the product is
        # converted.  Held until then, those of a working-set block of units
        # made glibc trim its heap and refault it on every call (about 1600
        # minor faults a call; twice the time of the int64 product).
        a, x = A[:, lo : lo + k], X[..., lo : lo + k, :]
        product = a.astype(dtype, copy=False) @ x.astype(dtype, copy=False)
        return product.astype(np.int64, copy=False)

    out = chunk(0)
    for lo in range(k, A.shape[1], k):
        mod_in_place(out, q)
        out += chunk(lo)
    return mod_in_place(out, q)


def _howell(A: np.ndarray, p: int, e: int) -> HowellArray:
    """Howell form of the rows of the int64 matrix A (entries in [0, p^e))."""
    q = p ** e
    nrows, ncols = A.shape
    nz = A != 0
    lead = nz.argmax(axis=1)
    lead_val = A[np.arange(nrows), lead]
    # The echelon block E: one row of A per column that leads a row with a
    # unit entry there (any one of them), in increasing lead order.
    cand = np.flatnonzero(lead_val % p)
    if not cand.size:
        return _howell_array(*_howell_core(A, p, e), p, e)
    slot = np.full(ncols, -1)
    slot[lead[cand]] = cand
    leads = np.flatnonzero(slot >= 0)
    picked = slot[leads]
    r = leads.size
    idx = np.arange(r)
    U = np.take(nz[picked], leads, axis=1)
    U[idx, idx] = False
    deps = U.sum(axis=1)
    if deps.max() > 1:
        return _howell_array(*_howell_core(A, p, e), p, e)

    cols = np.flatnonzero(slot < 0)
    ptr = U.argmax(axis=1)
    c = A[picked, leads[ptr]] * deps  # the off-diagonal entry of U, or 0
    X = np.take(A[picked], cols, axis=1)
    scale = lead_val[picked]
    if (scale != 1).any():  # pivots to 1
        inv = _unit_inverses(scale, p, e)
        c *= inv
        X = mod_in_place(X * inv[:, None], q)
    c = mod_in_place(-c, q)
    # Back-substitution by pointer jumping: E's reduced row i, restricted to
    # the columns off E's leads, is R_i = X_i + c_i R_{ptr_i}.
    while c.any():
        X += c[:, None] * X[ptr]
        mod_in_place(X, q)
        c = mod_in_place(c * c[ptr], q)
        ptr = ptr[ptr]

    # The other rows, reduced against E: their entries at E's leads are
    # the coefficients, and they vanish there after the reduction.
    keep = nz.any(axis=1)
    keep[picked] = False
    rest = np.flatnonzero(keep)[:, None]
    Y = A[rest, cols]
    Y -= _product_mod(A[rest, leads], X, q)
    Y = mod_in_place(Y, q)
    Y = Y[Y.any(axis=1)]
    if not Y.size:
        out = np.zeros((r, ncols), dtype=np.int64)
        out[idx, leads] = 1
        out[:, cols] = X
        return _howell_array(out, leads.tolist(), np.ones(r, dtype=bool), r * e, p, e)

    C, cpiv, cunit, csize = _howell_core(Y, p, e)
    cunit = np.array(cunit, dtype=bool)
    out = np.zeros((r + len(C), ncols), dtype=np.int64)
    out[idx, leads] = 1
    out[:r, cols] = _reduced(X.T, C, cpiv, cunit, q).T  # E's rows by the core's
    out[r:, cols] = C
    pivots = np.concatenate([leads, cols[cpiv]])
    order = np.argsort(pivots)
    unit = np.concatenate([np.ones(r, dtype=bool), cunit])[order]
    return _howell_array(out[order], pivots[order].tolist(), unit, r * e + csize, p, e)


def _howell_array(rows, pivots, unit, size_exp, p, e) -> HowellArray:
    """The read-only HowellArray of Howell rows given as int64."""
    rows = rows.astype(np.min_scalar_type(p ** e - 1))
    unit = np.array(unit, dtype=bool)
    rows.flags.writeable = unit.flags.writeable = False
    return HowellArray(p, e, rows, tuple(pivots), unit, size_exp)


def _unit_inverses(u: np.ndarray, p: int, e: int) -> np.ndarray:
    """The inverses mod p^e of the units u, as u^(phi(p^e) - 1)."""
    q, n = p ** e, p ** (e - 1) * (p - 1) - 1
    out, base = np.ones_like(u), u % q
    while n:
        if n & 1:
            out = out * base % q
        base = base * base % q
        n >>= 1
    return out


def _howell_core(A: np.ndarray, p: int, e: int):
    """The sequential elimination: Howell rows (int64), pivot columns, unit
    flags and size exponent of the rows of A."""
    q = p ** e
    nrows, ncols = A.shape
    buf = np.empty((nrows + ncols, ncols), dtype=np.int64)
    buf[:nrows] = A
    top, end = 0, nrows
    pivots, unit, size_exp = [], [], 0

    for col in np.flatnonzero(A.any(axis=0)).tolist():
        if top == end:
            break
        vals = buf[top:end, col]
        nz = vals.nonzero()[0]
        if not nz.size:
            continue
        vals = vals[nz]
        units = (vals % p).nonzero()[0]
        if units.size:
            v, first = 0, int(units[0])
        else:
            v = p_valuation(int(np.gcd.reduce(vals)), p)
            first = int((vals % p ** (v + 1)).nonzero()[0][0])  # least valuation
        piv = p ** v
        src = top + int(nz[first])
        row = mod_in_place(buf[src] * pow(int(vals[first]) // piv, -1, q), q)
        buf[src] = buf[top]
        buf[top] = row

        # Active rows hold multiples of piv in this column and drop to 0;
        # basis rows are reduced into [0, piv).
        f = buf[:end, col] // piv
        f[top] = 0
        hit = f.nonzero()[0]
        at = row.nonzero()[0]
        block = buf[hit[:, None], at]
        block -= f[hit, None] * row[at]
        buf[hit[:, None], at] = mod_in_place(block, q)
        top += 1
        pivots.append(col)
        unit.append(v == 0)
        size_exp += e - v
        # Annihilator row: p^{e-v} * row spans the part of the span whose
        # leading entries vanish at this column (Howell property).
        if v:
            ann = mod_in_place(row * p ** (e - v), q)
            if ann.any():
                buf[end] = ann
                end += 1

    return buf[:top], pivots, unit, size_exp


def howell_array(M: ResidueMatrix) -> HowellArray:
    """Howell normal form of M as arrays (see ``HowellArray``)."""
    return _howell(np.array(M.rows, dtype=np.int64).reshape(M.nrows, M.ncols), M.p, M.e)


def howell_form(M: ResidueMatrix) -> ResidueMatrix:
    """Howell normal form of M; span(H) = span(M), H canonical."""
    return howell_array(M).matrix()


def module_membership(v, M: ResidueMatrix) -> bool:
    """Whether the vector v lies in the row span of M over Z_{p^e}.

    Always reduces against the Howell form: an echelon form without the
    trailing annihilator rows would answer wrongly on spans with zero
    divisors.
    """
    if len(v) != M.ncols:
        raise ValueError(f"expected {M.ncols} coordinates, got {len(v)}")
    vec = np.array(residues(v, M.modulus, "entry"), dtype=np.int64)
    return bool(howell_array(M).contains(vec.reshape(-1, 1))[0])


def module_size_exp(M: ResidueMatrix) -> int:
    """t with |span(M)| = p^t, from the Howell pivot valuations."""
    return howell_array(M).size_exp


class _IdealChain:
    """H(w), H(w^2), ... of one ring in the basis of G's elements, extended
    on demand up to the first zero level."""

    def __init__(self, rs: RingSpec) -> None:
        table_order(rs.group)  # refuses a G past the table cap before its radices
        self.rs = rs
        first = np.eye(rs.size, dtype=np.int64)[:-1]
        first[:, -1] = rs.modulus - 1
        self.levels = [_howell(first, rs.p, rs.e)]

    def level(self, n: int) -> HowellArray:
        rs = self.rs
        while len(self.levels) < n and self.levels[-1].size_exp:
            h = self.levels[-1].rows.astype(np.int64).reshape(-1, *rs.group.radices)
            # Block j holds the rows h a_j^{-1} - h: h a_j^{-1} has h's
            # coefficient of g a_j at g, one step up G's digit grid on axis j.
            translates = np.concatenate([np.roll(h, -1, axis) - h for axis in range(1, h.ndim)])
            translates = mod_in_place(translates.reshape(-1, rs.size), rs.modulus)
            self.levels.append(_howell(translates, rs.p, rs.e))
        return self.levels[min(n, len(self.levels)) - 1]


@functools.cache
def _chain(rs: RingSpec) -> _IdealChain:
    return _IdealChain(rs)


def _monomials(x: np.ndarray, group: GroupSpec, q: int) -> np.ndarray:
    """x's columns, elements of Z_qG (q a power of p) with entries in
    (-q, q), in the monomial basis x^i = prod_j x_j^{i_j}, x_j = a_j - 1,
    0 <= i_j < p^{lambda_j}: the coefficient of x^i at coordinates i of G's
    digit grid, in index order, reduced mod q.  g = prod_j (1 + x_j)^{c_j}
    has coefficient prod_j binom(c_j, i_j) at x^i, so the Pascal matrix
    binom(c, i) mod q is applied along each axis of the grid.  At q = p the
    grid is refined to base-p digits, shape (p,) * sum(lambda), as by
    Lucas's theorem binom(c, i) mod p is the product of the binomials of
    the digits.  An axis of p entries takes p - 1 passes of suffix sums
    (the Taylor shift f(y) -> f(1 + x) by Horner's rule), each reduced mod
    q, so no entry reaches p q; a longer one the matrix (``_pascal``,
    upper triangular), one ``_product_mod`` per block of its rows
    (``pgroup._blocks``)."""
    axes = (group.p,) * sum(group.lambdas) if q == group.p else group.radices
    for axis, size in enumerate(axes):
        grid = x.reshape(math.prod(axes[:axis]), size, -1)
        if size == group.p:  # p - 1 passes of suffix sums: Horner's rule for f(1 + x)
            for k in range(size - 1):
                for c in range(size - 2, k - 1, -1):
                    grid[:, c] += grid[:, c + 1]
                mod_in_place(grid, q)
        else:  # in place: each block of rows reads only the rows at or past its own
            for lo, hi in _blocks(size, size):
                grid[:, lo:hi] = _product_mod(_pascal(size, q)[lo:hi, lo:], grid[:, lo:], q)
        x = grid.reshape(x.shape)
    return x


@functools.cache
def _pascal(size: int, q: int) -> np.ndarray:
    """binom(c, i) mod q at row i, column c, for i, c < size, read-only with
    dtype ``np.min_scalar_type(q - 1)``: binom(c, i) is the sum of
    binom(c', i - 1) over c' < c."""
    out = np.zeros((size, size), dtype=np.min_scalar_type(q - 1))
    out[0] = 1
    for i in range(1, size):
        out[i, 1:] = np.cumsum(out[i - 1, :-1], dtype=np.int64) % q
    out.flags.writeable = False
    return out


def _degrees(group: GroupSpec) -> np.ndarray:
    """The degree sum_j i_j of each monomial x^i (``_monomials``), at
    coordinates i of G's digit grid (shape ``group.radices``), in index
    order."""
    return functools.reduce(np.add.outer, map(np.arange, group.radices)).ravel()


def _power_walk(p: int, lam: int, e: int):
    """x^m for m = p^lam - 1, p^lam, ..., x = a - 1 in Z_{p^e}C_{p^lam}, in
    the monomial basis x^i, i < p^lam, as int64 vectors without end.  As
    (1 + x)^{p^lam} = 1, x^{p^lam} = -sum_{0 < i < p^lam} binom(p^lam, i) x^i.
    Multiplying by x moves each coefficient up one (``np.roll``) and adds
    the one that leaves the top times that sum, ``fold``, whose entry -1 at
    x^0 cancels the coefficient the roll carries round."""
    q, size = p ** e, p ** lam
    binoms = itertools.accumulate(range(size - 1), lambda b, i: b * (size - i) // (i + 1), initial=1)
    fold = np.array([-b % q for b in binoms], dtype=np.int64)  # -binom(size, i), i < size
    x = np.eye(1, size, size - 1, dtype=np.int64)[0]
    while True:
        yield x
        x = mod_in_place(np.roll(x, 1) + x[-1] * fold, q)


@functools.cache
def _staircase(p: int, lam: int, e: int) -> tuple[int, ...]:
    """M(t) for t = 0 ... e - 1: the largest m at which the content
    valuation of x^m, x = a - 1 in Z_{p^e}C_{p^lam} (the least valuation of
    its coefficients, capped at e), is at most t.  Kept per (p, lam, e), so
    equal factors, and rings with a factor in common, share one.

    The content is the same in the group basis and in the monomial one, as
    a matrix over Z with an inverse over Z carries one to the other.  It is
    0 below m = p^lam, where x^m is a basis vector, and never falls as m
    grows, since multiplying by x cannot lower it.  So the walk starts at
    x^{p^lam - 1} (``_power_walk``) and goes until the content reaches e,
    holding one vector of p^lam entries; ``_powers`` keeps the rows where
    they are needed."""
    stairs = []
    for m, x in enumerate(_power_walk(p, lam, e), p ** lam - 1):
        content = p_valuation(int(np.gcd.reduce(x)) or p ** e, p)
        stairs += [m - 1] * (content - len(stairs))
        if len(stairs) == e:
            return tuple(stairs)


@functools.cache
def _powers(p: int, lam: int, e: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The table of x^m, x = a - 1 in Z_{p^e}C_{p^lam}, for m = 0 ... M, the
    last m with x^m != 0 (``_staircase``), in the monomial basis: row m,
    read-only with dtype ``np.min_scalar_type(p^e - 1)``.  With it each
    row's least degree (its first nonzero coordinate; m below p^lam) and
    content valuation, the number of t with M(t) < m."""
    stairs, size = _staircase(p, lam, e), p ** lam
    table = np.eye(stairs[-1] + 1, size, dtype=np.min_scalar_type(p ** e - 1))
    for row, x in zip(table[size - 1 :], _power_walk(p, lam, e)):
        row[:] = x
    least = (table != 0).argmax(axis=1)
    content = np.searchsorted(stairs, np.arange(len(table)))
    for a in (table, least, content):
        a.flags.writeable = False
    return table, least, content


@functools.cache
def _remainder(rs: RingSpec, n: int) -> tuple[HowellArray, np.ndarray, int]:
    """R_n, the Howell form of w^n's part on the monomials of degree below
    n; the mask of those coordinates (``_degrees``, in index order); and t
    with |w^n| = p^t.

    w^n is the Z_q-span of the monomials x^i of degree >= n, any i_j >= 0,
    and each is the tensor product of its factors' rows x_j^{i_j} of
    ``_powers``.  Those with every i_j below p^{lambda_j} are the basis
    vectors of degree >= n; the others make R_n.  So w^n is the vectors
    whose part of degree < n lies in R_n, and t = e #{deg >= n} +
    ``size_exp`` of R_n.  A product is 0 once its factors' contents sum to
    e, as content valuations add, and 0 below degree n once their least
    degrees sum to n, so only the exponents short of both are listed,
    factor by factor, and each product is formed on the coordinates of
    degree < n alone."""
    factors = [_powers(rs.p, lam, rs.e) for lam in rs.group.lambdas]
    exps = np.zeros((1, 0), dtype=np.intp)
    least = content = degree = np.zeros(1, dtype=np.int64)
    for _, fleast, fcontent in factors:
        s, m = np.nonzero((least[:, None] + fleast < n) & (content[:, None] + fcontent < rs.e))
        exps = np.column_stack([exps[s], m])
        least, content, degree = least[s] + fleast[m], content[s] + fcontent[m], degree[s] + m
    exps = exps[degree >= n]
    rows, degree = np.ones((len(exps), 1), dtype=np.int64), np.zeros(1, dtype=np.int64)
    for (table, _, _), column in zip(factors, exps.T):
        degree = np.add.outer(degree, np.arange(table.shape[1])).ravel()
        rows = (rows[:, :, None] * table[column][:, None, :]).reshape(len(rows), len(degree))
        rows, degree = mod_in_place(rows[:, degree < n], rs.modulus), degree[degree < n]
    R, low = _howell(rows, rs.p, rs.e), _degrees(rs.group) < n
    return R, low, rs.e * int(np.count_nonzero(~low)) + R.size_exp


@functools.cache
def _depths(rs: RingSpec) -> np.ndarray:
    """For each g in G, in index order, the largest n with g - 1 in w^n,
    read-only; the identity, g - 1 = 0, gets nu (``nilpotency_index``,
    which refuses a G past the dense table cap before its radices are
    built).  The columns g - 1 are written in the monomial basis in
    ``pgroup._blocks``-sized blocks: g = prod_j (1 + x_j)^{c_j} is the
    tensor product of the Pascal columns c_j (``_pascal``), along the same
    axes as ``_monomials``.  g - 1 lies in w^d for d its least
    degree, the first degree at which its transform is nonzero, and at
    e = 1, where every x_j^m with m >= p^{lambda_j} is 0 and so R_n = 0, in
    no higher power.  At e >= 2 the g of a block with the least open depth
    d are tested against R_{d + 1} on their coordinates of degree <= d; the
    g that pass move up one and the others are done, until none is left.
    As w^{n+1} lies in w^n, g lies in w^n up to its depth and in no power
    past it."""
    nu, q = nilpotency_index(rs), rs.modulus
    degree = _degrees(rs.group)
    depth = np.empty_like(degree)
    axes = (rs.p,) * sum(rs.group.lambdas) if q == rs.p else rs.group.radices  # as _monomials
    for lo, hi in _blocks(rs.size, rs.size):
        y = np.ones((1, hi - lo), dtype=np.int64)
        for size, c in zip(axes, np.unravel_index(np.arange(lo, hi), axes)):
            y = mod_in_place((y[:, None] * _pascal(size, q)[:, c]).reshape(-1, hi - lo), q)
        y[0] -= 1  # column j is g_{lo+j} - 1; the identity is g_0
        d = depth[lo:hi]
        d[:] = np.where(y != 0, degree[:, None], nu).min(axis=0)
        n = 1  # the g below depth n - 1 are done; the identity's nu is no depth to test
        while rs.e > 1 and (rest := d[(d >= n) & (d < nu)]).size:
            n = int(rest.min()) + 1
            at = np.flatnonzero(d == n - 1)
            d[at[_remainder(rs, n)[0].contains(y[degree < n][:, at])]] = n
    depth.flags.writeable = False
    return depth


def ideal_power_form(rs: RingSpec, n: int) -> HowellArray:
    """The Howell form of w^n as arrays, in the basis of G's elements, from
    the ring's ideal chain; it has no rows once n reaches the nilpotency
    index.  n must be an int >= 1 (see ``pgroup.checked_int``)."""
    return _chain(rs).level(checked_int(n, "n", 1))


def ideal_power_members(rs: RingSpec, n: int) -> np.ndarray:
    """The ascending, read-only indices of the g in G with g - 1 in w^n,
    read off G's depths (``_depths``) by one comparison, at every e and
    with no ideal chain.  n must be an int >= 1 (see
    ``pgroup.checked_int``)."""
    n = checked_int(n, "n", 1)
    depth = _depths(rs)
    members = np.flatnonzero(depth >= min(n, int(depth[0])))  # depth[0] = nu; S_n = {1} past it
    members.flags.writeable = False
    return members


def ideal_power_generators(rs: RingSpec, n: int) -> ResidueMatrix:
    """A module spanning set for w^n, the n-th power of the augmentation ideal.

    The rows are the Howell form of w^n from the ring's ideal chain, so
    there are none for n at or past the nilpotency index.
    """
    return ideal_power_form(rs, n).matrix()


def nilpotency_index(rs: RingSpec) -> int:
    """Least n with w^n = 0, from the content valuations of each cyclic
    factor's (a_j - 1)^m (``_staircase``), with no ideal chain.

    w^n is the ideal generated by the monomials x^i = prod_j x_j^{i_j},
    x_j = a_j - 1, of degree sum_j i_j = n, so nu - 1 is the largest degree
    of a nonzero monomial.  x^i is the tensor product over the factors of
    the x_j^{i_j}, whose content valuations add, so x^i = 0 iff they sum to
    at least e.  Hence nu - 1 = max sum_j M_j(t_j) over t_j >= 0 with
    sum_j t_j <= e - 1, one max-plus fold over the factors.  Refuses a G past
    the dense table cap before anything is built.

    >>> from punits.pgroup import GroupSpec
    >>> nilpotency_index(RingSpec(GroupSpec(2, (1,)), 2))
    3
    """
    table_order(rs.group)
    p, e = rs.p, rs.e
    # best[s]: the largest degree of a monomial in the factors so far whose
    # content valuations sum to at most s (none yet: 1, of degree 0).
    best = [0] * e
    for lam in rs.group.lambdas:
        stairs = _staircase(p, lam, e)
        best = [max(best[s - t] + stairs[t] for t in range(s + 1)) for s in range(e)]
    return best[-1] + 1
