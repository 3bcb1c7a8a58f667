"""Canonical-form linear algebra over Z_{p^e}: Howell normal form, the
chain of powers of the augmentation ideal w, the nilpotency index of w from
each cyclic factor's content valuations, and the dimension subgroups: at
e = 1 read off w's monomial basis, at e >= 2 from the cyclic factors'
chains.

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

The powers of w form one chain per ring.  H(w) is the Howell form of the
rows g - g_last (g in G, g_last the last element in index order), and with
a_1, ..., a_k the canonical generators of G

    H(w^{n+1}) = Howell{(a_j^{-1} - 1) h : h a row of H(w^n), j = 1..k}.

These rows span w^{n+1}.  As an ideal, w is generated by the a_j - 1
(xy - 1 = x(y - 1) + (x - 1)); w^n is an ideal, so w^{n+1} = sum_j
(a_j - 1) w^n; and (a_j^{-1} - 1) w^n = (a_j - 1) (-a_j^{-1} w^n) =
(a_j - 1) w^n, as -a_j^{-1} is a unit and w^n an ideal.  Multiplication by
a fixed element is module-linear, so the products (a_j^{-1} - 1) h span
that.  Multiplying by a group element permutes coefficients, so each
translate h a_j^{-1} is one column gather (the inverse permutation of a_j's
row of the gather table).  Since the Howell form is canonical, each level
equals the Howell form of any other spanning set of w^n.

The inverses are chosen for the echelon block.  h a_j^{-1} moves each
coefficient of h one step down in coordinate j, so where h leads with 1 at
the column of an element g whose coordinate j is not 0, h a_j^{-1} - h
leads with 1 at the column of g a_j^{-1}, which comes before g's in index
order, where h is still 0 (with a_j, h a_j - h would lead at g's column,
like h itself).  A level's rows therefore arrive with unit
leads, and on every chain measured (all levels of the ``ideals`` rings and
of rings up to |G| = 1024) each row of their U has at most one entry off
the diagonal; at e = 1 the whole level is one block.  The rows g - g_last
lead with 1 at g and are 0 off g and the last column, which no row leads:
they are their own reduced block.  A chain is extended only up to the power
asked for and kept for the life of the process.

At e >= 2 a cyclic group's chain also keeps the sets S_n = {g in G :
g - 1 in w^n}, the dimension subgroups lemma3 checks
(``ideal_power_members``), as ascending index arrays.  S_0 = G, and as
w^n = w w^{n-1} lies in w^{n-1}, S_n is the part of S_{n-1} whose columns
g - 1 pass one ``contains`` block against H(w^n).  Once S_n = {1} it answers
every larger n, as g - 1 = 0 lies in every span, with no further test and
no set per level: a call costs at most one block, on a shrinking set, per
level up to the first n with S_n = {1}.

A group with k >= 2 cyclic factors C_j = <a_j> needs no chain of its own
for S_n: it is the product of the factors' sets S_n(C_j) = C_j ∩
(1 + w_j^n), w_j the augmentation ideal of Z_{p^e}C_j (``_FactorProducts``).
The projection G -> C_j induces a ring map Z_{p^e}G -> Z_{p^e}C_j that
preserves augmentation and fixes Z_{p^e}C_j, a retraction: it maps w onto
w_j, so w^n into w_j^n, and C_j ∩ (1 + w^n) lies in C_j ∩ (1 + w_j^n), while
w_j^n lies in w^n for the converse.  S_n is a subgroup, as gh - 1 =
(g - 1)(h - 1) + (g - 1) + (h - 1) and w^n is an ideal, and g lies in S_n iff
each of its coordinate projections does: if g does, its image under the
retraction onto C_j is g's projection, with g_j - 1 in w_j^n; if every
g_j does, g = prod_j g_j is a product of members.  So each level is one
product on G's digit grid of the factors' sets, read off the cyclic
chains, which equal factors share, and kept per ring up to the first
S_n = {1}: no Howell form wider than p^{lambda_1} columns is built.  This
uses neither lemma3 nor Jennings' theorem on dimension subgroups.

The nilpotency index nu, the least n with w^n = 0, needs no chain at any
e (``nilpotency_index``).  As an ideal, w^n is generated by the monomials
x^i = prod_j x_j^{i_j}, x_j = a_j - 1, of degree sum_j i_j = n (any
i_j >= 0), the fact the chain's recursion rests on; so nu - 1 is the largest
degree of a nonzero monomial.  Z_{p^e}G is the tensor product over Z_{p^e}
of the Z_{p^e}C_{p^{lambda_j}}, each free on its group elements, and x^i is
the tensor product of the x_j^{i_j}.  The content valuation of an element
(the least p-valuation of its coefficients) is additive on such products:
the product of coefficients where each factor attains its least valuation
has exactly the sum, and none has less.  So x^i = 0 iff sum_j c_j(i_j) >= e,
with c_j(m) the content valuation of x_j^m in Z_{p^e}C_{p^{lambda_j}},
capped at e.  c_j is 0 below p^{lambda_j} and never falls, so each factor is
a staircase M_j(t), the largest m with c_j(m) <= t (``_staircase``, one
cyclic shift per step from x_j^{p^{lambda_j}}), and nu - 1 is the largest
sum_j M_j(t_j) with sum_j t_j <= e - 1, a max-plus fold over the factors.
At e = 1 that is sum_j (p^{lambda_j} - 1).  This uses neither lemma3 nor a
closed form for nu.

At e = 1 S_n does not need the chain either.  There
(a_j - 1)^{p^{lambda_j}} = a_j^{p^{lambda_j}} - 1 = 0, so F_pG is
the truncated polynomial ring in x_j = a_j - 1 (Jennings), and the
monomials x^i, 0 <= i_j < p^{lambda_j}, are a basis.  w^n is
spanned by the monomials of degree >= n, and g - 1 lies in w^n iff its
coefficients vanish at every degree below n.  ``_jennings`` writes a
column in that basis, on G's digit grid refined to base-p digits (by
Lucas's theorem the Pascal matrix mod p along each digit axis), and puts
the coefficient of x^i at coordinates i of G's digit grid, so a
monomial's degree is the sum of its coordinates (``_degrees``).  One pass
over the columns g - 1, in ``pgroup._blocks``-sized blocks, gives each g
the least degree at which g - 1 is nonzero (``_least_degrees``, |G| ints
kept per group for the life of the process).  Then S_n is the set of g
whose least degree is at least n, g = 1 in every S_n (its least degree is
set to nu); any n costs one comparison.  This uses neither lemma3 nor
Jennings' theorem on dimension subgroups.

G's own chain is now built only for ``ideal_power_form`` at every e
(lemma5 and the public API read it), for S_n of a cyclic G at e >= 2
(lemma3, up to the first n with S_n = {1}; the factor products read these
chains), and as the tests' reference for nu and for S_n at every e.
``oracle`` reads ``_jennings`` too, for lemma4.

G's gather table and generators are read from ``pgroup``.  Matrices are
int64 arrays of residues; ``ResidueMatrix`` is only the public edge type.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .pgroup import (
    GroupSpec,
    _blocks,
    checked_int,
    checked_prime,
    gather_table,
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
    (-q, q).

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
        a, x = A[:, lo : lo + k], X[lo : lo + k]
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
    """H(w), H(w^2), ... of one ring, extended on demand."""

    def __init__(self, rs: RingSpec) -> None:
        group, q = rs.group, rs.modulus
        self.rs = rs
        table = gather_table(group)  # refuses a G past the table cap before its radices
        # Column j of the identity matrix is the coordinates of a_j.
        gens = radix_encode(np.eye(group.k, dtype=np.int64), group.radices)
        # x a_j^{-1} is x[shifts[j]]: the inverse of a_j's gather.
        self.shifts = np.argsort(table[gens], axis=1)
        first = np.eye(rs.size, dtype=np.int64)[:-1]
        first[:, -1] = q - 1
        self.levels = [_howell(first, rs.p, rs.e)]  # the nonzero powers
        self.zero = _howell(first[:0], rs.p, rs.e)
        self.complete = False
        self.members = [np.arange(rs.size)]  # S_0 = G, S_1, ..., up to {1}

    def level(self, n: int) -> HowellArray:
        rs = self.rs
        while len(self.levels) < n and not self.complete:
            h = self.levels[-1].rows
            # Block j holds the rows h a_j^{-1} - h.
            translates = np.empty((len(self.shifts),) + h.shape, dtype=np.int64)
            np.subtract(h[:, self.shifts].transpose(1, 0, 2), h, out=translates, dtype=np.int64)
            translates = mod_in_place(translates.reshape(-1, rs.size), rs.modulus)
            H = _howell(translates, rs.p, rs.e)
            if H.size_exp:
                self.levels.append(H)
            else:
                self.complete = True
        return self.levels[n - 1] if n <= len(self.levels) else self.zero

    def power_members(self, n: int) -> np.ndarray:
        members = self.members
        while len(members) <= n and members[-1].size > 1:
            s = members[-1]
            # Column j is g_{s_j} - 1; the identity is g_0.
            vecs = np.zeros((self.rs.size, s.size), dtype=np.int64)
            vecs[s, np.arange(s.size)] = 1
            vecs[0] -= 1
            kept = s[self.level(len(members)).contains(vecs)]
            kept.flags.writeable = False
            members.append(kept)
        return members[min(n, len(members) - 1)]


@functools.cache
def _chain(rs: RingSpec) -> _IdealChain:
    return _IdealChain(rs)


class _FactorProducts:
    """S_0 = G, S_1, ... of a ring with k >= 2 cyclic factors, up to {1}:
    each the product on G's digit grid of the factors' own sets, read off
    the chains of Z_{p^e}C_{p^lambda_j} (shared by equal factors and by
    rings with a factor in common)."""

    def __init__(self, rs: RingSpec) -> None:
        group = rs.group
        self.members = [np.arange(table_order(group))]  # refuses a G past the cap first
        self.radices = group.radices
        self.factors = [_chain(RingSpec(GroupSpec(rs.p, (lam,)), rs.e)) for lam in group.lambdas]

    def power_members(self, n: int) -> np.ndarray:
        members = self.members
        while len(members) <= n and members[-1].size > 1:
            sets = [chain.power_members(len(members)) for chain in self.factors]
            # Ascending: the last coordinate varies fastest, as in index order.
            kept = radix_encode(np.meshgrid(*sets, indexing="ij", copy=False), self.radices).ravel()
            kept.flags.writeable = False
            members.append(kept)
        return members[min(n, len(members) - 1)]


_products = functools.cache(_FactorProducts)


def _jennings(x: np.ndarray, group: GroupSpec) -> np.ndarray:
    """x's columns, elements of F_pG with entries in (-p, p), in the basis
    of the monomials prod_j x_j^{i_j}, x_j = a_j - 1, 0 <= i_j < p^{lambda_j}
    (Jennings), on G's digit grid; x's entries may be overwritten.
    g = prod_j (1 + x_j)^{c_j} has coefficient prod_j binom(c_j, i_j) at
    x^i, and by Lucas's theorem binom(c, i) is the product of the binomials
    of the base-p digits, so the p x p Pascal matrix binom(c, i) mod p is
    applied along each axis of the grid refined to base-p digits, shape
    (p,) * sum(lambda), as p - 1 passes of suffix sums (the Taylor shift
    f(y) -> f(1 + x) by Horner's rule).  Each pass is reduced mod p, so no
    entry reaches p^2."""
    p = group.p
    grid = x.reshape(*(p,) * sum(group.lambdas), x.shape[1])
    for digit in (np.moveaxis(grid, axis, 0) for axis in range(grid.ndim - 1)):
        for k in range(p - 1):
            for c in range(p - 2, k - 1, -1):
                digit[c] += digit[c + 1]
            mod_in_place(grid, p)
    return grid.reshape(x.shape)


def _degrees(group: GroupSpec) -> np.ndarray:
    """The degree sum_j i_j of each monomial x^i where ``_jennings`` puts its
    coefficient, at coordinates i of G's digit grid (shape
    ``group.radices``), in index order."""
    return functools.reduce(np.add.outer, map(np.arange, group.radices)).ravel()


@functools.cache
def _least_degrees(group: GroupSpec) -> np.ndarray:
    """For each g in G, in index order, the least degree of a monomial at
    which g - 1 in F_pG has a nonzero coefficient (``_jennings``), read-only:
    g - 1 lies in w^n iff n is at most that degree.  The identity, g - 1 = 0,
    gets nu, the least n with w^n = 0 (``nilpotency_index``, which refuses a
    G past the dense table cap before its radices are built)."""
    nu = nilpotency_index(RingSpec(group, 1))
    degree = _degrees(group)
    size = len(degree)
    least = np.empty(size, dtype=np.int64)
    for lo, hi in _blocks(size, size):
        cols = np.eye(size, hi - lo, -lo, dtype=np.int64)
        cols[0] -= 1  # column j is g_{lo+j} - 1; the identity is g_0
        least[lo:hi] = np.where(_jennings(cols, group) != 0, degree[:, None], nu).min(axis=0)
    least.flags.writeable = False
    return least


def ideal_power_form(rs: RingSpec, n: int) -> HowellArray:
    """The Howell form of w^n as arrays; it has no rows once n reaches the
    nilpotency index.  n must be an int >= 1 (see ``pgroup.checked_int``)."""
    return _chain(rs).level(checked_int(n, "n", 1))


def ideal_power_members(rs: RingSpec, n: int) -> np.ndarray:
    """The ascending, read-only indices of the g in G with g - 1 in w^n.
    n must be an int >= 1 (see ``pgroup.checked_int``).  At e = 1 they are
    read off G's least degrees (``_least_degrees``), with no ideal chain; at
    e >= 2 off G's own chain when G is cyclic, else as the product of its
    cyclic factors' sets (``_FactorProducts``)."""
    n = checked_int(n, "n", 1)
    if rs.e > 1:
        return (_chain(rs) if rs.group.k == 1 else _products(rs)).power_members(n)
    least = _least_degrees(rs.group)
    members = np.flatnonzero(least >= min(n, int(least[0])))  # least[0] = nu; S_n = {1} past it
    members.flags.writeable = False
    return members


def ideal_power_generators(rs: RingSpec, n: int) -> ResidueMatrix:
    """A module spanning set for w^n, the n-th power of the augmentation ideal.

    The rows are the Howell form of w^n from the ring's ideal chain, so
    there are none for n at or past the nilpotency index.
    """
    return ideal_power_form(rs, n).matrix()


@functools.cache
def _staircase(p: int, lam: int, e: int) -> tuple[int, ...]:
    """M(t) for t = 0 ... e - 1: the largest m at which the content
    valuation of (a - 1)^m in Z_{p^e}C_{p^lam} (the least valuation of its
    coefficients, capped at e) is at most t.  Kept per (p, lam, e), so equal
    factors, and rings with a factor in common, share one.

    It is 0 below m = p^lam, as (a - 1)^m then has coefficient 1 at a^m, and
    never falls as m grows, since multiplying by a - 1 cannot lower the
    content.  So the walk starts at (a - 1)^{p^lam}, whose coefficient at a^i
    is binom(p^lam, i) (-1)^{p^lam - i}, with the one at i = p^lam folded onto
    a^0 (a running product in Python ints), and multiplies by a - 1 (one
    cyclic shift less the vector itself) until the content reaches e."""
    q, size = p ** e, p ** lam
    coeffs, b = [], 1
    for i in range(size):  # b = binom(size, i)
        coeffs.append((-b if (size - i) % 2 else b) % q)
        b = b * (size - i) // (i + 1)
    coeffs[0] = (coeffs[0] + 1) % q  # a^size = a^0, with coefficient 1
    x = np.array(coeffs, dtype=np.int64)
    stairs, m = [], size
    while len(stairs) < e:
        t = len(stairs)  # the content of x is at least t
        while t < e and not (x % p ** (t + 1)).any():
            t += 1
        stairs += [m - 1] * (t - len(stairs))
        x = mod_in_place(np.roll(x, 1) - x, q)
        m += 1
    return tuple(stairs)


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
