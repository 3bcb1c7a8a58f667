"""Exact arithmetic in the modular group ring Z_{p^e}G.

Elements are dense coefficient vectors over the group, indexed by
:func:`punits.pgroup.enumerate_elements` order, with coefficients kept as
canonical residues mod p^e.  Multiplication is the naive O(|G|^2)
convolution; it is the reference semantics that any faster path must
reproduce bit for bit.

The normalized units V = 1 + w, where w is the augmentation ideal
(coefficient sums equal to 0), form a finite abelian p-group, so unit
orders and inverses are computed by iterated p-th powering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .pgroup import (
    GroupElement,
    GroupSpec,
    checked_int,
    checked_prime,
    element_index,
    int_list,
    p_valuation,
    power_exceeds,
    product_index_table,
    residues,
    text_fields,
)

# p^e must stay below 2^31 so that a product of two residues fits in a
# 64-bit intermediate; keeps the batch enumeration paths big-integer free.
RING_CHAR_CAP = 1 << 31


def checked_modulus_exp(p: int, e) -> int:
    """e as an int >= 1 with p^e <= RING_CHAR_CAP, for a prime p; p^e is
    decided from e (``power_exceeds``), not built."""
    e = checked_int(e, "e", 1)
    if power_exceeds(p, e, RING_CHAR_CAP):
        raise ValueError(f"e = {e}: characteristic {p}^{e} exceeds cap {RING_CHAR_CAP}")
    return e


def _rows_per_reduction(q: int, signed: bool = False) -> int:
    # The largest k with q + k(q - 1)^2 <= 2^63 - 1: a residue mod q plus k
    # products of two residues fits in int64 (k >= 2 for q <= RING_CHAR_CAP),
    # so the batched kernels reduce a running sum only every k rows.
    # signed: an entry in (-q, q) less k products f * r of a residue r and
    # an |f| <= q - 1 (an entry in (-q, q) floor-divided by a pivot), where
    # the floor reduction x - (x // q) q of a negative x also dips q - 1
    # below x.  Taking |f| <= q covers the dip, as kq(q - 1) >= k(q - 1)^2 +
    # (q - 1): the largest k with q + kq(q - 1) <= 2^63 - 1 (again k >= 2).
    return (2 ** 63 - 1 - q) // ((q - 1) * (q if signed else q - 1))


def _float_terms(q: int) -> int:
    # The largest k with k(q - 1)^2 <= 2^53: a sum of k products of two
    # numbers in (-q, q) is then exact in float64 whatever the order of its
    # additions, as every partial sum is an integer of magnitude <= 2^53.
    # 0 once (q - 1)^2 > 2^53, i.e. q above about 9.5 * 10^7.
    return 2 ** 53 // (q - 1) ** 2


@dataclass(frozen=True)
class RingSpec:
    """The coefficient ring Z_{p^e} together with the group G."""

    group: GroupSpec
    e: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "e", checked_modulus_exp(self.group.p, self.e))

    @property
    def p(self) -> int:
        return self.group.p

    @property
    def modulus(self) -> int:
        return self.p ** self.e

    @property
    def size(self) -> int:
        """|G|, the coefficient vector length."""
        return self.group.order()

    def to_text(self) -> str:
        return f"{self.group.to_text()};e={self.e}"


def _convolve(spec: RingSpec, a, b) -> tuple[int, ...]:
    # Reference group-ring product: exact Python integers, reduced once.
    table = product_index_table(spec.group)
    q = spec.modulus
    out = [0] * len(a)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        row = table[i]
        for j, bj in enumerate(b):
            if bj:
                out[row[j]] += ai * bj
    return tuple(c % q for c in out)


@dataclass(frozen=True)
class RingElement:
    """A group-ring element; immutable, coefficients canonical mod p^e."""

    spec: RingSpec
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        coeffs = residues(self.coeffs, self.spec.modulus, "coefficient")
        if len(coeffs) != self.spec.size:
            raise ValueError(
                f"expected {self.spec.size} coefficients, got {len(coeffs)}"
            )
        object.__setattr__(self, "coeffs", coeffs)

    def _check_same_spec(self, other: "RingElement") -> None:
        if self.spec != other.spec:
            raise ValueError("ring spec mismatch")

    def __add__(self, other: "RingElement") -> "RingElement":
        self._check_same_spec(other)
        return RingElement(
            self.spec, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: "RingElement") -> "RingElement":
        self._check_same_spec(other)
        return RingElement(
            self.spec, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> "RingElement":
        return RingElement(self.spec, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return RingElement(self.spec, tuple(other * a for a in self.coeffs))
        self._check_same_spec(other)
        return RingElement(self.spec, _convolve(self.spec, self.coeffs, other.coeffs))

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, m: int) -> "RingElement":
        """self^m for an int m >= 0 (negative powers: ``unit_inverse``)."""
        m = checked_int(m, "m", 0)
        result = one(self.spec)
        base = self
        while m:
            if m & 1:
                result = result * base
            m >>= 1
            if m:
                base = base * base
        return result

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def to_text(self) -> str:
        """Canonical text form ``p=..;lambda=..;e=..;coeffs=c0,c1,...``."""
        return f"{self.spec.to_text()};coeffs={','.join(map(str, self.coeffs))}"

    @classmethod
    def from_text(cls, text: str) -> "RingElement":
        try:
            fields = text_fields(text, ("p", "lambda", "e", "coeffs"))
            group = GroupSpec.from_text(f"p={fields['p']};lambda={fields['lambda']}")
            spec = RingSpec(group, int(fields["e"]))
            coeffs = int_list(fields["coeffs"], "coeffs")
        except ValueError as exc:
            raise ValueError(f"malformed ring element text {text!r}: {exc}") from exc
        return cls(spec, coeffs)


def zero(spec: RingSpec) -> RingElement:
    return RingElement(spec, (0,) * spec.size)


def one(spec: RingSpec) -> RingElement:
    coeffs = [0] * spec.size
    coeffs[0] = 1
    return RingElement(spec, tuple(coeffs))


def from_group_element(spec: RingSpec, g: GroupElement) -> RingElement:
    coeffs = [0] * spec.size
    coeffs[element_index(spec.group, g)] = 1
    return RingElement(spec, tuple(coeffs))


def mul(x: RingElement, y: RingElement) -> RingElement:
    """Group-ring product (commutative convolution)."""
    return x * y


def augmentation(x: RingElement) -> int:
    """Coefficient sum mod p^e; x lies in the augmentation ideal iff 0."""
    return sum(x.coeffs) % x.spec.modulus


def is_normalized_unit(x: RingElement) -> bool:
    """True iff x in 1 + w, equivalently augmentation(x) = 1."""
    return augmentation(x) == 1


def _p_torsion_order_exp(u: RingElement, max_exp: int) -> Optional[int]:
    # Least m <= max_exp with u^{p^m} = 1, or None if not reached.  Only
    # meaningful for p-power torsion units (all of 1 + w, and more
    # generally 1 + p*Z_{p^e}G).
    p = u.spec.p
    ident = one(u.spec)
    cur = u
    for m in range(max_exp + 1):
        if cur == ident:
            return m
        cur = cur ** p
    return None


def _order_exp_bound(spec: RingSpec) -> int:
    # exp(V) divides p^{n+e-1}; two extra steps of slack so that a wrong
    # answer surfaces as an error instead of an infinite loop.
    return spec.group.exponent_exp + spec.e + 2


def unit_order(u: RingElement) -> int:
    """Least p^m with u^{p^m} = 1, for a normalized unit u."""
    if not is_normalized_unit(u):
        raise ValueError("unit_order requires a normalized unit (augmentation 1)")
    m = _p_torsion_order_exp(u, _order_exp_bound(u.spec))
    if m is None:
        raise ArithmeticError("p-power order bound exceeded; internal error")
    return u.spec.p ** m


def unit_inverse(u: RingElement) -> RingElement:
    """Inverse of a normalized unit, as u^{p^m - 1} with p^m = |u|."""
    if not is_normalized_unit(u):
        raise ValueError("unit_inverse requires a normalized unit (augmentation 1)")
    order = unit_order(u)
    if order == 1:
        return u
    return u ** (order - 1)


def reduce_mod(x: RingElement, e_target: int) -> RingElement:
    """Coefficientwise reduction Z_{p^e}G -> Z_{p^{e_target}}G.

    A surjective ring homomorphism for e_target <= e; maps normalized
    units to normalized units.
    """
    target = RingSpec(x.spec.group, checked_int(e_target, "e_target", 1, x.spec.e))
    return RingElement(target, x.coeffs)


def p_reduced_factorization(u: RingElement) -> tuple[RingElement, RingElement]:
    """Split a normalized unit as u = red * (1 + p^{e-1} z) with z in w.

    ``red`` is the unit 1 + sum_g (u_g mod p^{e-1})(g - 1): its non-identity
    coefficients are the low digits of u's, and its identity coefficient is
    fixed by augmentation 1.  ``z`` is the unique solution with coefficients
    in [0, p) except for an augmentation-zero adjustment on the identity
    coordinate.
    """
    spec = u.spec
    if spec.e < 2:
        raise ValueError("p-reduced factorization requires e >= 2")
    if not is_normalized_unit(u):
        raise ValueError("p_reduced_factorization requires a normalized unit")
    q = spec.modulus
    q1 = spec.p ** (spec.e - 1)

    low = [c % q1 for c in u.coeffs]
    low[0] = (1 - sum(low[1:])) % q
    red = RingElement(spec, tuple(low))

    w = unit_inverse(red) * u
    diff = list(w.coeffs)
    diff[0] = (diff[0] - 1) % q
    if any(c % q1 for c in diff):
        raise ArithmeticError("reduced part does not agree with u mod p^{e-1}")
    zt = [(c // q1) % spec.p for c in diff]
    zt[0] = (zt[0] - sum(zt)) % q
    z = RingElement(spec, tuple(zt))

    if augmentation(z) != 0:
        raise ArithmeticError("carry part escaped the augmentation ideal")
    if red * (one(spec) + q1 * z) != u:
        raise ArithmeticError("p-reduced factorization failed to recompose")
    return red, z


def binomial_p_power(p: int, n: int, j: int) -> int:
    """t such that p^t exactly divides binomial(p^n, j), for 1 <= j <= p^n.

    Equals n - v_p(j); computed from the valuation of j alone, with no
    large factorials.  j <= p^n is decided from n (``power_exceeds``), so
    p^n is not built for a huge n.
    """
    p, n, j = checked_prime(p), checked_int(n, "n", 0), checked_int(j, "j", 1)
    if not power_exceeds(p, n, j - 1):
        raise ValueError(f"j must be in [1, {p}^{n}], got {j}")
    return n - p_valuation(j, p)


def lemma9_predicted_order(d: int, y: RingElement) -> int:
    """Closed-form order of the unit 1 + p^d y.

    With s the minimal coefficient valuation of y (so y = p^s z and
    p^{e-1} z != 0), the order is p^max(e-d-s, 0) unless p = 2, d = 1,
    s = 0 and y^2 has an odd coefficient.  In that exceptional case
    (1 + 2y)^2 = 1 + 4(y + y^2) is a unit of d = 2, where the rule has no
    exception, and 1 + 2y != 1: the order is 2^(1 + max(e-2-s', 0)), with
    s' the minimal valuation of y + y^2, e when it is zero.
    """
    spec = y.spec
    p, e = spec.p, spec.e
    if y.is_zero():
        raise ValueError("y must be nonzero")
    d = checked_int(d, f"d (with e = {e})", 1, e - 1)
    s = min(p_valuation(c, p) for c in y.coeffs if c)
    if p == 2 and d == 1 and s == 0:
        ysq = y * y
        if any(c & 1 for c in ysq.coeffs):
            s = min((p_valuation(c, p) for c in (y + ysq).coeffs if c), default=e)
            return 2 ** (1 + max(e - 2 - s, 0))
    return p ** max(e - d - s, 0)
