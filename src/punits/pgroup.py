"""Finite abelian p-groups presented by cyclic-factor exponents.

A group ``G = C_{p^l1} x ... x C_{p^lk}`` is described by its prime ``p``
and the exponent list ``lambdas = (l1, ..., lk)``, kept sorted descending.
Elements are plain tuples of componentwise-reduced exponents; the module
provides the arithmetic and the counting formulas for the power subgroups
``G^{p^i}`` (p^i-th powers) and the torsion layers ``G[p^i]`` (elements of
order dividing p^i).

Orders of groups and subgroups are carried as p-adic exponents.  Plain
magnitudes are materialized only below :data:`GROUP_ORDER_CAP`.

``radix_decode`` and ``radix_encode`` are the one index codec, for G's
elements (by their coordinates) and V's units (by their coefficients in
base p^e); G's dense tables, power maps and G[p] are read through it.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

GroupElement = tuple[int, ...]

# Largest |G| ever materialized as a plain integer (coefficient vectors,
# product tables, element enumeration).  Counting formulas stay in exponent
# form and have no such limit.
GROUP_ORDER_CAP = 1 << 20

# Dense index tables are |G| x |G|; keep them desk-scale.  Every
# verification check reads one, so none is planned past this cap.
DENSE_TABLE_CAP = 1 << 10


# Miller-Rabin with these bases decides primality exactly below 2^64, and
# is not known to above it.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test; refuses n >= 2^64."""
    if n >= 1 << 64:
        raise ValueError(f"primes are decided only below 2^64, got {n}")
    if n < 2 or any(n % a == 0 for a in _MR_BASES):
        return n in _MR_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # 2^s exactly divides n - 1
    d = (n - 1) >> s
    # a witnesses that n is composite unless a^d = 1 or a^(2^r d) = -1 mod n
    # for some r < s.
    for a in _MR_BASES:
        if pow(a, d, n) != 1 and all(pow(a, d << r, n) != n - 1 for r in range(s)):
            return False
    return True


def checked_int(value, name: str, minimum: Optional[int] = None) -> int:
    """value as an int; bools, floats and strings are refused, not coerced."""
    if type(value) is not int:
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        value = int(value)
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def p_valuation(m: int, p: int) -> int:
    """Exponent of the largest power of p dividing m (m != 0)."""
    if m == 0:
        raise ValueError("valuation of 0 is undefined")
    v = 0
    while m % p == 0:
        m //= p
        v += 1
    return v


@dataclass(frozen=True)
class GroupSpec:
    """A finite abelian p-group ``C_{p^l1} x ... x C_{p^lk}``.

    The exponent list is canonicalized (sorted descending) on construction,
    so two specs are equal iff they present the same group.

    >>> GroupSpec(2, (1, 2)) == GroupSpec(2, (2, 1))
    True
    >>> GroupSpec(2, (1, 2)).order()
    8
    """

    p: int
    lambdas: tuple[int, ...]

    def __post_init__(self) -> None:
        p = checked_int(self.p, "p")
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        if not isinstance(self.lambdas, (list, tuple)) or not self.lambdas:
            raise ValueError(f"lambda must be a nonempty list, got {self.lambdas!r}")
        lams = tuple(
            sorted((checked_int(l, "lambda", 1) for l in self.lambdas), reverse=True)
        )
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "lambdas", lams)

    @property
    def k(self) -> int:
        """Number of cyclic direct factors."""
        return len(self.lambdas)

    @property
    def exponent_exp(self) -> int:
        """n with exp(G) = p^n."""
        return self.lambdas[0]

    @property
    def size_exp(self) -> int:
        """m with |G| = p^m."""
        return sum(self.lambdas)

    @property
    def radices(self) -> tuple[int, ...]:
        return tuple(self.p ** l for l in self.lambdas)

    def order(self) -> int:
        """|G| as a plain integer; refuses to exceed GROUP_ORDER_CAP."""
        n = self.p ** self.size_exp
        if n > GROUP_ORDER_CAP:
            raise ValueError(
                f"|G| = {self.p}^{self.size_exp} exceeds the materialization "
                f"cap {GROUP_ORDER_CAP}"
            )
        return n

    def to_text(self) -> str:
        """Canonical text form, e.g. ``p=2;lambda=2,1``."""
        return f"p={self.p};lambda={','.join(map(str, self.lambdas))}"

    @classmethod
    def from_text(cls, text: str) -> "GroupSpec":
        """Parse ``p=<prime>;lambda=<comma-list>``."""
        try:
            fields = text_fields(text, ("p", "lambda"))
            p = int(fields["p"])
            lams = tuple(int(x) for x in fields["lambda"].split(","))
        except ValueError as exc:
            raise ValueError(f"malformed group spec text {text!r}: {exc}") from exc
        return cls(p, lams)


def text_fields(text: str, keys: tuple[str, ...]) -> dict[str, str]:
    """The fields of a ``key=value;...`` text, which has each of keys once
    and no other key."""
    if not isinstance(text, str):
        raise ValueError(f"expected a string, got {text!r}")
    parts = [part.split("=", 1) for part in text.strip().split(";") if part]
    fields = dict(parts)  # a part without "=" is a ValueError here
    if len(fields) != len(parts) or fields.keys() != set(keys):
        raise ValueError(f"expected the keys {', '.join(keys)}, each once")
    return fields


def agemo_order_exp(spec: GroupSpec, i: int) -> int:
    """m with |G^{p^i}| = p^m, namely sum_j max(lambda_j - i, 0)."""
    if i < 0:
        raise ValueError("i must be nonnegative")
    return sum(max(l - i, 0) for l in spec.lambdas)


def omega_order_exp(spec: GroupSpec, i: int) -> int:
    """m with |G[p^i]| = p^m, namely sum_j min(lambda_j, i)."""
    if i < 0:
        raise ValueError("i must be nonnegative")
    return sum(min(l, i) for l in spec.lambdas)


def cyclic_factor_count(spec: GroupSpec, i: int) -> int:
    """Number of cyclic direct factors of order exactly p^i."""
    if i < 1:
        raise ValueError("i must be >= 1")
    return spec.lambdas.count(i)


def identity(spec: GroupSpec) -> GroupElement:
    return (0,) * spec.k


def element(spec: GroupSpec, exponents) -> GroupElement:
    """Build a reduced element tuple, validating the length."""
    exps = tuple(int(x) for x in exponents)
    if len(exps) != spec.k:
        raise ValueError(f"expected {spec.k} exponents, got {len(exps)}")
    return tuple(x % r for x, r in zip(exps, spec.radices))


def element_mul(spec: GroupSpec, g: GroupElement, h: GroupElement) -> GroupElement:
    return tuple((a + b) % r for a, b, r in zip(g, h, spec.radices))


def element_pow(spec: GroupSpec, g: GroupElement, m: int) -> GroupElement:
    """g^m by componentwise multiplication of exponents."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    return tuple((m * a) % r for a, r in zip(g, spec.radices))


def element_order(spec: GroupSpec, g: GroupElement) -> int:
    """Least p^t with g^{p^t} = 1, via coordinate valuations."""
    p = spec.p
    t = 0
    for a, l in zip(g, spec.lambdas):
        if a:
            t = max(t, l - p_valuation(a, p))
    return p ** t


def enumerate_elements(spec: GroupSpec) -> Iterator[GroupElement]:
    """All elements in mixed-radix order, last coordinate fastest.

    This order is the fixed coefficient indexing of the ring module:
    index 0 is the identity.

    >>> list(enumerate_elements(GroupSpec(2, (1, 1))))
    [(0, 0), (0, 1), (1, 0), (1, 1)]
    """
    spec.order()  # enforce the materialization cap before streaming
    return itertools.product(*(range(r) for r in spec.radices))


def radix_decode(idx, radices: Sequence[int], out):
    """Write the mixed-radix digits of each index into a column of out and
    return out: row j holds the digit of radix ``radices[j]``, the most
    significant in row 0.  A plain int index takes a list for out."""
    for j in range(len(radices) - 1, -1, -1):
        idx, out[j] = divmod(idx, radices[j])
    return out


def radix_encode(digits: Iterable, radices: Sequence[int]):
    """The index of each column of the digit rows, the inverse of
    ``radix_decode``.  The rows may come from a generator; plain int
    digits give a plain int index.

    >>> radix_encode(np.array([[1, 2], [0, 1]]), (3, 2)).tolist()
    [2, 5]
    """
    idx = 0  # the first += makes it a new array, then updated in place
    for row, radix in zip(digits, radices):
        idx *= radix
        idx += row
    return idx


def element_index(spec: GroupSpec, g: GroupElement) -> int:
    """Position of g in enumerate_elements order."""
    return radix_encode(g, spec.radices)


def element_from_index(spec: GroupSpec, idx: int) -> GroupElement:
    return tuple(radix_decode(idx, spec.radices, [0] * spec.k))


def _coordinatewise(spec: GroupSpec, digits: Callable) -> np.ndarray:
    """The indices whose j-th digit rows are ``digits(c_j, p^lambda_j)``,
    with c_j the j-th coordinates of G's elements in index order."""
    order = spec.order()
    coords = radix_decode(np.arange(order), spec.radices, np.empty((spec.k, order), np.int64))
    return radix_encode(map(digits, coords, spec.radices), spec.radices)


def table_order(spec: GroupSpec) -> int:
    """|G| for a dense |G| x |G| index table; refuses |G| over the cap."""
    order = spec.order()
    if order > DENSE_TABLE_CAP:
        raise ValueError(f"|G| = {order} exceeds the dense table cap {DENSE_TABLE_CAP}")
    return order


@lru_cache(maxsize=None)
def product_index_table(spec: GroupSpec) -> tuple[tuple[int, ...], ...]:
    """Dense table T with T[i][j] = index of (element i) * (element j)."""
    table_order(spec)
    table = _coordinatewise(spec, lambda c, r: (c[:, None] + c) % r)
    # The rows share one int per index: |G|^2 distinct ints would take more
    # than three times the memory of the rows, for the life of the cache.
    ints = tuple(range(len(table)))
    return tuple(tuple(map(ints.__getitem__, row.tolist())) for row in table)


def gather_table(spec: GroupSpec) -> np.ndarray:
    """Row i maps m to the j with g_i g_j = g_m, so the coefficient vector
    of x * g_i is x[table[i]]: g_j = g_m g_i^{-1} coordinatewise."""
    table_order(spec)
    return _coordinatewise(spec, lambda c, r: (c - c[:, None]) % r)


def power_indices(spec: GroupSpec, m: int) -> np.ndarray:
    """Entry i is the index of g_i^m: each coordinate times m mod its radix.
    m is reduced mod each radix first, so a huge m cannot overflow."""
    return _coordinatewise(spec, lambda c, r: c * (m % r) % r)


def socle_indices(spec: GroupSpec) -> np.ndarray:
    """Indices of G[p], the elements with g^p = 1, ascending."""
    return np.flatnonzero(power_indices(spec, spec.p) == 0)


def socle_elements(spec: GroupSpec) -> list[GroupElement]:
    """G[p], the elements of order dividing p, in enumeration order.

    >>> socle_elements(GroupSpec(2, (2,)))
    [(0,), (2,)]
    """
    return [element_from_index(spec, i) for i in socle_indices(spec).tolist()]
