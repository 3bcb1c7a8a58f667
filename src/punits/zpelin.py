"""Canonical-form linear algebra over Z_{p^e}: Howell normal form, and the
chain of powers of the augmentation ideal w.

Row spans over a residue ring with zero divisors need more than an
echelon form: membership tests require that every span element whose
leading coordinates vanish is generated by the trailing rows.  The Howell
normal form has exactly that property, and is canonical: two matrices
have equal row spans iff their Howell forms are identical.

Conventions here: pivots are exact powers of p (unit parts divided out),
pivot columns strictly increase, entries above a pivot p^v are reduced
into [0, p^v), and zero rows are dropped.

One numpy core computes every form, in one int64 buffer of nrows + ncols
rows: the input rows, then room for one annihilator row per pivot.  Rows
[0, top) are the basis found so far and rows [top, end) are still to be
reduced; nothing is copied or deleted per pivot, and rows that fall to
zero stay where they are.  At each column the row of least valuation v is
normalized to pivot p^v and swapped to ``top``; then one gather/scatter
over the pivot row's nonzero columns reduces every other row (Gauss-Jordan
in the forward pass): active rows, whose entries there are multiples of
p^v, to 0, and basis rows into [0, p^v).  The annihilator p^{e-v} * row
goes to ``end``.  Each row operation is reduced mod q = p^e
(``pgroup.mod_in_place``), and q <= 2^31 keeps each product f * row below 2^62.

Membership by the dual.  Z_{p^e} is a Frobenius ring, so a submodule M
of Z_{p^e}^n is its own double annihilator: with M^perp = {y : h . y = 0
for every h in M}, M = {x : A x = 0} for any A whose rows span M^perp,
and |M| |M^perp| = p^{en}.  If the rows of H span M, the rows of
[H^T | I] span {(Hy, y) : y in Z_{p^e}^n}; its elements with Hy = 0 are
(0, y) for y in M^perp, and by the Howell property they are spanned by
the Howell rows whose pivot lies in the identity block.  Those rows,
restricted to that block, are the Howell form of M^perp
(``HowellArray.dual``, built on first use and checked: the sizes multiply
to p^{en} and H A^T = 0).

``HowellArray.contains`` takes a block of vectors, one per column with
entries in (-q, q), and answers it one of two ways:

- a block at least ``_DUAL_WIDTH`` times as wide as it is long (the
  lemma4 and lemma5 unit scans) by one product A x mod q with A the dual's
  rows, whose inner dimension is reduced every ``ring._rows_per_reduction(q)``
  columns, the bound of ``oracle``'s batched product (q + k(q-1)^2 <=
  2^63 - 1; k >= 2, and 2 at 7^11);
- a narrower one (lemma3's |G| columns, ``module_membership``'s one) by
  elimination, so the dual is never built for it: the block is reduced
  against the rows in turn.  Only the pivot entry is reduced before a row,
  so that f = v[col] // p^v stays below q, and the whole block every k
  rows and at the end; no reduction is needed before the first row or the
  first after a whole-block one.  k is ``ring._rows_per_reduction(q,
  signed=True)``, as the entries and f may be negative.

The powers of w form one chain per ring.  H(w) is the Howell form of the
rows g - 1 (g in G), and with a_1, ..., a_k the canonical generators of G

    H(w^{n+1}) = Howell{(a_j - 1) h : h a row of H(w^n), j = 1..k}.

These rows span w^{n+1}.  As an ideal, w is generated by the a_j - 1
(xy - 1 = x(y - 1) + (x - 1)); w^n is an ideal, so w^{n+1} = sum_j
(a_j - 1) w^n; and multiplication by a fixed element is module-linear, so
the products (a_j - 1) h span (a_j - 1) w^n.  Multiplying by a group
element permutes coefficients, so each translate h a_j is one column
gather.  Since the Howell form is canonical, each level equals the Howell
form of any other spanning set of w^n.  A chain is extended only up to the
power asked for and kept for the life of the process.

G's gather table, generators and G[p] are read from ``pgroup``.  Matrices
are int64 arrays of residues; ``ResidueMatrix`` is only the public edge type.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass

import numpy as np

from .pgroup import gather_table, mod_in_place, radix_encode
from .ring import RING_CHAR_CAP, RingSpec, _rows_per_reduction, p_valuation

# Blocks of vectors at least this many times wider than long (columns
# against coordinates) are tested against the dual (``HowellArray.contains``).
_DUAL_WIDTH = 64


@dataclass(frozen=True)
class ResidueMatrix:
    """A rectangular matrix over Z_{p^e}, rows as canonical residues."""

    p: int
    e: int
    ncols: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        q = self.modulus
        if q > RING_CHAR_CAP:
            raise ValueError(f"modulus {self.p}^{self.e} exceeds cap {RING_CHAR_CAP}")
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


@dataclass(frozen=True, eq=False)
class HowellArray:
    """A Howell form as arrays.

    ``rows`` is read-only with dtype ``np.min_scalar_type(q - 1)``, one row
    per pivot; ``pivots`` holds each row's pivot column, and the span has
    p^``size_exp`` elements.
    """

    p: int
    e: int
    rows: np.ndarray
    pivots: tuple[int, ...]
    size_exp: int

    @functools.cached_property
    def dual(self) -> HowellArray:
        """The Howell form of the annihilator {y : h . y = 0 for every row h};
        see "Membership by the dual" in the module docstring."""
        p, e, (r, n) = self.p, self.e, self.rows.shape
        H = self.rows.astype(np.int64)
        aug = _howell(np.hstack([H.T, np.eye(n, dtype=np.int64)]), p, e)
        start = bisect.bisect_left(aug.pivots, r)
        rows = aug.rows[start:, r:].copy()
        rows.flags.writeable = False
        pivots = tuple(c - r for c in aug.pivots[start:])
        size_exp = sum(e - p_valuation(int(rows[i, c]), p) for i, c in enumerate(pivots))
        if self.size_exp + size_exp != e * n:
            raise ArithmeticError(
                f"|M| |M^perp| = {p}^{self.size_exp + size_exp}, expected {p}^{e * n}"
            )
        if _product_mod(rows.astype(np.int64), H.T, p ** e).any():
            raise ArithmeticError("the annihilator's rows are not orthogonal to the span")
        return HowellArray(p, e, rows, pivots, size_exp)

    def contains(self, vecs: np.ndarray) -> np.ndarray:
        """Boolean mask: which columns of vecs lie in the span.

        vecs is int64, one vector per column, with entries in (-q, q).
        """
        q = self.p ** self.e
        n, width = vecs.shape
        if width >= _DUAL_WIDTH * n:
            return ~_product_mod(self.dual.rows.astype(np.int64), vecs, q).any(axis=0)
        k = _rows_per_reduction(q, signed=True)
        v = vecs.copy()
        for i, (row, col) in enumerate(zip(self.rows, self.pivots)):
            if i % k:  # rows since the last reduction changed v[col]
                mod_in_place(v[col], q)
            at = row.nonzero()[0]
            v[at] -= row[at, None] * (v[col] // row[col])
            if (i + 1) % k == 0:
                mod_in_place(v, q)
        return ~mod_in_place(v, q).any(axis=0)

    def matrix(self) -> ResidueMatrix:
        rows = tuple(map(tuple, self.rows.tolist()))
        return ResidueMatrix(self.p, self.e, self.rows.shape[1], rows)


def _product_mod(A: np.ndarray, X: np.ndarray, q: int) -> np.ndarray:
    """A X mod q for int64 A with entries in [0, q) and X in (-q, q).

    The running sum is reduced before each further chunk of k columns of A,
    k = ``ring._rows_per_reduction(q)``: it then lies in [0, q), and a chunk
    adds at most k(q-1)^2 in magnitude.
    """
    k = _rows_per_reduction(q)
    out = A[:, :k] @ X[:k]
    for lo in range(k, A.shape[1], k):
        mod_in_place(out, q)
        out += A[:, lo : lo + k] @ X[lo : lo + k]
    return mod_in_place(out, q)


def _howell(A: np.ndarray, p: int, e: int) -> HowellArray:
    """Howell form of the rows of the int64 matrix A (entries in [0, p^e))."""
    q = p ** e
    nrows, ncols = A.shape
    buf = np.empty((nrows + ncols, ncols), dtype=np.int64)
    buf[:nrows] = A
    top, end = 0, nrows
    pivots, size_exp = [], 0

    for col in range(ncols):
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
        size_exp += e - v
        # Annihilator row: p^{e-v} * row spans the part of the span whose
        # leading entries vanish at this column (Howell property).
        if v:
            ann = mod_in_place(row * p ** (e - v), q)
            if ann.any():
                buf[end] = ann
                end += 1

    rows = buf[:top].astype(np.min_scalar_type(q - 1))
    rows.flags.writeable = False
    return HowellArray(p, e, rows, tuple(pivots), size_exp)


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
    vec = np.array([int(c) % M.modulus for c in v], dtype=np.int64)
    return bool(howell_array(M).contains(vec.reshape(-1, 1))[0])


def module_size_exp(M: ResidueMatrix) -> int:
    """t with |span(M)| = p^t, from the Howell pivot valuations."""
    return howell_array(M).size_exp


class _IdealChain:
    """H(w), H(w^2), ... of one ring, extended on demand."""

    def __init__(self, rs: RingSpec) -> None:
        group, q = rs.group, rs.modulus
        self.rs = rs
        # Column j of the identity matrix is the coordinates of a_j.
        gens = radix_encode(np.eye(group.k, dtype=np.int64), group.radices)
        self.shifts = gather_table(group)[gens]
        first = np.eye(rs.size, dtype=np.int64)[1:]
        first[:, 0] = q - 1
        self.levels = [_howell(first, rs.p, rs.e)]  # the nonzero powers
        self.zero = _howell(first[:0], rs.p, rs.e)
        self.complete = False

    def level(self, n: int) -> HowellArray:
        rs = self.rs
        while len(self.levels) < n and not self.complete:
            h = self.levels[-1].rows.astype(np.int64)
            translates = [mod_in_place(h[:, s] - h, rs.modulus) for s in self.shifts]
            H = _howell(np.vstack(translates), rs.p, rs.e)
            if H.size_exp:
                self.levels.append(H)
            else:
                self.complete = True
        return self.levels[n - 1] if n <= len(self.levels) else self.zero


@functools.cache
def _chain(rs: RingSpec) -> _IdealChain:
    return _IdealChain(rs)


def ideal_power_form(rs: RingSpec, n: int) -> HowellArray:
    """The Howell form of w^n as arrays; it has no rows once n reaches the
    nilpotency index."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _chain(rs).level(n)


def ideal_power_generators(rs: RingSpec, n: int) -> ResidueMatrix:
    """A module spanning set for w^n, the n-th power of the augmentation ideal.

    The rows are the Howell form of w^n from the ring's ideal chain, so
    there are none for n at or past the nilpotency index.
    """
    return ideal_power_form(rs, n).matrix()


def nilpotency_index(rs: RingSpec) -> int:
    """Least n with w^n = 0.

    >>> from punits.pgroup import GroupSpec
    >>> nilpotency_index(RingSpec(GroupSpec(2, (1,)), 2))
    3
    """
    chain = _chain(rs)
    while not chain.complete:
        chain.level(len(chain.levels) + 1)
    return len(chain.levels) + 1


def socle_ideal_generators(rs: RingSpec) -> np.ndarray:
    """Spanning set of I(G[p]), the ideal generated by {h - 1 : h in G[p]}:
    the translates (h_j - 1) g, h-major, over the basis h_j = a_j^{p^(lambda_j - 1)}
    of G[p] and all g in G, as hh' - 1 = (h - 1)h' + (h' - 1)."""
    basis = np.diag([rs.p ** (l - 1) for l in rs.group.lambdas])
    diffs = np.eye(rs.size, dtype=np.int64)[radix_encode(basis, rs.group.radices)]
    diffs[:, 0] = rs.modulus - 1
    return diffs[:, gather_table(rs.group)].reshape(-1, rs.size)
