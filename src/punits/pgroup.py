"""Finite abelian p-groups presented by cyclic-factor exponents.

A group ``G = C_{p^l1} x ... x C_{p^lk}`` is described by its prime ``p``
and the exponent list ``lambdas = (l1, ..., lk)``, kept sorted descending.
Elements are plain tuples of componentwise-reduced exponents; the module
provides the arithmetic and the counting formulas for the power subgroups
``G^{p^i}`` (p^i-th powers) and the torsion layers ``G[p^i]`` (elements of
order dividing p^i).

Orders of groups and subgroups are carried as p-adic exponents.  Plain
magnitudes are materialized only below :data:`GROUP_ORDER_CAP`, and a size
past a cap is decided from its exponent (``power_exceeds``) and named as
``p^m`` in the refusal.

Each input rule is stated once, here or in ``ring``, and every public entry
reads that statement: ``checked_int`` takes an int (a numpy integer is read
as one; a bool, float or str is refused, never coerced) within bounds,
``checked_prime`` a prime p, ``residues`` a vector of ints mod q,
``count_pairs`` the (exponent, count) pairs of invariants and order
censuses (a repeated exponent's counts added up), and
``ring.checked_modulus_exp`` an e with 1 <= e and p^e <= ``RING_CHAR_CAP``.

``radix_decode`` and ``radix_encode`` are the one index codec, for G's
elements (by their coordinates) and V's units (by their coefficients in
base p^e); G's dense tables are read through it, from one read-only
coordinate table per group (``_coordinates``, which lemma3 lists its
elements from too), and G[p] is a sub-grid of G's digit grid (shape
``radices``), numbered in the codec's order.
``mod_in_place`` is the one reduction of int64 arrays mod q, and
``_blocks`` the one division of the working set of ``oracle``'s and
``zpelin``'s batched kernels (``_BLOCK_ENTRIES``) into column blocks.
"""

from __future__ import annotations

import itertools
import numbers
import operator
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

# The working set of every batched kernel of ``oracle`` and ``zpelin``, in
# entries (512 KiB of int64): a block of units, of lemma2's columns or of
# the columns g - 1 has |G| rows and _BLOCK_ENTRIES // |G| columns
# (``_blocks``, the one division of it), lemma9 stacks d's up to it
# (``oracle._lemma9_chunks``), and ``oracle._batch_mul`` forms one gathered
# einsum only when its gathered operand fits it.
_BLOCK_ENTRIES = 1 << 16


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


def checked_int(
    value, name: str, minimum: Optional[int] = None, maximum: Optional[int] = None
) -> int:
    """value as an int in [minimum, maximum] (either may be None); bools,
    floats and strings are refused, not coerced."""
    if type(value) is not int:
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        value = operator.index(value)
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ValueError(f"{name} must be <= {maximum}, got {value}")
    return value


def checked_prime(p) -> int:
    """p as an int, or ValueError unless it is a prime (decided below 2^64,
    ``is_prime``)."""
    p = checked_int(p, "p")
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    return p


def residues(values, q: int, name: str) -> tuple[int, ...]:
    """Each of values, an int (``checked_int``; an exact int takes no call),
    reduced into [0, q)."""
    return tuple((v if type(v) is int else checked_int(v, name)) % q for v in values)


def count_pairs(pairs, names: tuple[str, str]) -> tuple[tuple[int, int], ...]:
    """pairs (a, b) as two ints >= 0, named by names (``checked_int``; an
    exact int >= 0 takes no call), ascending in a, with the b of a repeated
    a added up and a zero b dropped.

    >>> count_pairs(((1, 2), (0, 1), (1, 1), (2, 0)), ("a", "b"))
    ((0, 1), (1, 3))
    """
    counts: dict[int, int] = {}
    for a, b in pairs:
        a = a if type(a) is int and a >= 0 else checked_int(a, names[0], 0)
        b = b if type(b) is int and b >= 0 else checked_int(b, names[1], 0)
        if b:
            counts[a] = counts.get(a, 0) + b
    return tuple(sorted(counts.items()))


def power_exceeds(base: int, exp: int, cap: int) -> bool:
    """Whether base**exp > cap, for base >= 2, exp >= 0 and cap >= 0.

    The bit lengths decide first: base**exp has more than exp(b - 1) and
    at most exp*b bits, b the bit length of base.  So base**exp is built
    only when that range holds cap's bit length, and then has fewer than
    twice its bits; a huge exp costs nothing.

    >>> power_exceeds(2, 20, 1 << 20), power_exceeds(3, 10 ** 30, 1 << 20)
    (False, True)
    """
    bits, cap_bits = base.bit_length(), cap.bit_length()
    if exp * (bits - 1) >= cap_bits:
        return True  # base**exp >= 2^(exp(b - 1)) > cap
    if exp * bits < cap_bits:
        return False  # base**exp < 2^(exp b) <= 2^(cap_bits - 1) <= cap
    return base**exp > cap


def int_list(text: str, name: str) -> tuple[int, ...]:
    """The integers of a comma-separated list; a malformed one is refused
    with a message that names it (name is the flag or field it came from)."""
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"{name}: expected comma-separated integers, got {text!r}") from None


def p_valuation(m: int, p: int) -> int:
    """Exponent of the largest power of p dividing m, for m != 0 and p >= 2
    (a p < 2 would never end the loop; the library's callers pass a prime
    that ``checked_prime`` read)."""
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")
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
        p = checked_prime(self.p)
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
        p, m = self.p, self.size_exp
        if power_exceeds(p, m, GROUP_ORDER_CAP):
            raise ValueError(f"|G| = {p}^{m} exceeds the materialization cap {GROUP_ORDER_CAP}")
        return p**m

    def to_text(self) -> str:
        """Canonical text form, e.g. ``p=2;lambda=2,1``."""
        return f"p={self.p};lambda={','.join(map(str, self.lambdas))}"

    @classmethod
    def from_text(cls, text: str) -> "GroupSpec":
        """Parse ``p=<prime>;lambda=<comma-list>``."""
        try:
            fields = text_fields(text, ("p", "lambda"))
            p = int(fields["p"])
            lams = int_list(fields["lambda"], "lambda")
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
    i = checked_int(i, "i", 0)
    return sum(max(l - i, 0) for l in spec.lambdas)


def omega_order_exp(spec: GroupSpec, i: int) -> int:
    """m with |G[p^i]| = p^m, namely sum_j min(lambda_j, i)."""
    i = checked_int(i, "i", 0)
    return sum(min(l, i) for l in spec.lambdas)


def cyclic_factor_count(spec: GroupSpec, i: int) -> int:
    """Number of cyclic direct factors of order exactly p^i."""
    return spec.lambdas.count(checked_int(i, "i", 1))


def identity(spec: GroupSpec) -> GroupElement:
    return (0,) * spec.k


def element(spec: GroupSpec, exponents) -> GroupElement:
    """Build a reduced element tuple, validating the length."""
    exps = tuple(checked_int(x, "exponent") for x in exponents)
    if len(exps) != spec.k:
        raise ValueError(f"expected {spec.k} exponents, got {len(exps)}")
    return tuple(x % r for x, r in zip(exps, spec.radices))


def element_mul(spec: GroupSpec, g: GroupElement, h: GroupElement) -> GroupElement:
    return tuple((a + b) % r for a, b, r in zip(g, h, spec.radices))


def element_pow(spec: GroupSpec, g: GroupElement, m: int) -> GroupElement:
    """g^m by componentwise multiplication of exponents."""
    m = checked_int(m, "m", 0)
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
        idx, rest = idx // radices[j], idx
        out[j] = rest - idx * radices[j]
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


def _blocks(total: int, rows: int):
    """The index ranges [lo, hi) covering [0, total), in order, each of
    max(1, _BLOCK_ENTRIES // rows) items or fewer: the columns of a block of
    ``rows`` rows that fits the working set."""
    step = max(1, _BLOCK_ENTRIES // rows)
    return ((lo, min(lo + step, total)) for lo in range(0, total, step))


def mod_in_place(x: np.ndarray, q: int) -> np.ndarray:
    """Reduce the int64 array x into [0, q) in place and return it."""
    # For q a power of 2 the residue is x's low bits, in two's complement
    # also for negative x: one pass, where the division below takes three.
    if not q & (q - 1):
        return np.bitwise_and(x, q - 1, out=x)
    # numpy divides int64 by a scalar faster than it takes % (2 times at
    # 2^16 nonnegative entries, 6 times with negative ones; numpy 2.4).
    x -= x // q * q
    return x


def element_index(spec: GroupSpec, g: GroupElement) -> int:
    """Position of g in enumerate_elements order."""
    return radix_encode(g, spec.radices)


def element_from_index(spec: GroupSpec, idx: int) -> GroupElement:
    idx = checked_int(idx, "index", 0, spec.order() - 1)
    return tuple(radix_decode(idx, spec.radices, [0] * spec.k))


@lru_cache(maxsize=None)
def _coordinates(spec: GroupSpec) -> np.ndarray:
    """G's coordinate table, read-only: row j holds the j-th coordinate of
    each element, in index order (k x |G|; ``radix_decode`` of 0 ... |G| - 1).
    Refuses a G past the dense table cap before its radices are built."""
    order = table_order(spec)
    coords = radix_decode(np.arange(order), spec.radices, np.empty((spec.k, order), np.int64))
    coords.flags.writeable = False
    return coords


def _coordinatewise(spec: GroupSpec, digits: Callable) -> np.ndarray:
    """The indices whose j-th digit rows are ``digits(c_j, p^lambda_j)``,
    with c_j the j-th coordinates of G's elements in index order."""
    return radix_encode(map(digits, _coordinates(spec), spec.radices), spec.radices)


def over_table_cap(spec: GroupSpec) -> bool:
    """Whether G is too large for a dense |G| x |G| index table: |G| = p^m >
    DENSE_TABLE_CAP, decided from (p, m) (``power_exceeds``), so a |G| of
    any size is answered and none is built."""
    return power_exceeds(spec.p, spec.size_exp, DENSE_TABLE_CAP)


def table_order(spec: GroupSpec) -> int:
    """|G| for a dense |G| x |G| index table; refuses |G| over the cap."""
    if over_table_cap(spec):
        raise ValueError(
            f"|G| = {spec.p}^{spec.size_exp} exceeds the dense table cap {DENSE_TABLE_CAP}"
        )
    return spec.p**spec.size_exp


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


def socle_indices(spec: GroupSpec) -> np.ndarray:
    """Indices of G[p], the elements with g^p = 1, ascending: on a factor
    C_{p^l}, p c = 0 mod p^l iff c is a multiple of p^{l-1}, so G[p] is the
    sub-grid of every p^{l-1}-th digit of G's digit grid."""
    steps = tuple(slice(None, None, spec.p ** (l - 1)) for l in spec.lambdas)
    return np.arange(spec.order()).reshape(spec.radices)[steps].ravel()


def socle_elements(spec: GroupSpec) -> list[GroupElement]:
    """G[p], the elements of order dividing p, in enumeration order.

    >>> socle_elements(GroupSpec(2, (2,)))
    [(0,), (2,)]
    """
    return [element_from_index(spec, i) for i in socle_indices(spec).tolist()]
