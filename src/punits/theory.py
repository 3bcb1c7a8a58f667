"""Closed-form structure of V(Z_{p^e}G), computed without enumeration.

Everything here is a pure function of (p, lambda, e).  The decomposition
is ``V = G x L`` with

    L  =  l * C_{p^{e-1}}  x  (prod_i  s_i * C_{p^{i+e-1}}),

where t_i = |G^{p^{i-1}}| - 2|G^{p^i}| + |G^{p^{i+1}}| counts the cyclic
factors of order p^i in a direct decomposition of V(Z_p G), s_i is t_i
minus the number of cyclic direct factors of order p^i of G itself, and
l = |G| - 1 - sum(s_i).  The exhaustive oracle suite adjudicates these
formulas on every desk-scale instance.

The invariants come as (order_exp, multiplicity) pairs straight from these
counts in O(lambda_1 * k) work; |G| is an exact integer here, never capped.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from .pgroup import (
    GroupSpec,
    agemo_order_exp,
    cyclic_factor_count,
    omega_order_exp,
)

# describe() writes a cyclic order p^k in decimal up to this k and as
# ``p^k`` above it, so that a huge p^k is never built.
_DECIMAL_ORDER_EXP_MAX = 64


@dataclass(frozen=True)
class AbelianInvariants:
    """Multiset of cyclic factor orders of a finite abelian p-group.

    Stored as (order_exp, multiplicity) pairs, ascending in order_exp,
    with trivial factors (order_exp 0) and empty multiplicities dropped.

    >>> AbelianInvariants.from_factor_exps([2, 1, 0, 1]).entries
    ((1, 2), (2, 1))
    """

    entries: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        counts: Counter[int] = Counter()
        for exp, mult in self.entries:
            if exp < 0 or mult < 0:
                raise ValueError("negative entry in abelian invariants")
            if exp > 0 and mult > 0:
                counts[int(exp)] += int(mult)
        object.__setattr__(self, "entries", tuple(sorted(counts.items())))

    @classmethod
    def from_factor_exps(cls, exps: Iterable[int]) -> "AbelianInvariants":
        return cls(tuple((e, 1) for e in exps))

    @classmethod
    def trivial(cls) -> "AbelianInvariants":
        return cls(())

    def size_exp(self) -> int:
        """m with |group| = p^m."""
        return sum(exp * mult for exp, mult in self.entries)

    def p_rank(self) -> int:
        """Number of nontrivial cyclic factors."""
        return sum(mult for _, mult in self.entries)

    def exponent_exp(self) -> int:
        """n with exp(group) = p^n."""
        return self.entries[-1][0] if self.entries else 0

    def factor_exps(self) -> tuple[int, ...]:
        """Expanded ascending list of factor exponents."""
        return tuple(e for e, m in self.entries for _ in range(m))

    def describe(self, p: int) -> str:
        """Human form like ``C_2 × C_4^3``; ``1`` for the trivial group."""
        if not self.entries:
            return "1"
        parts = []
        for exp, mult in self.entries:
            if exp <= _DECIMAL_ORDER_EXP_MAX:
                base = f"C_{p ** exp}"
            else:
                base = f"C_{{{p}^{exp}}}"
            parts.append(base if mult == 1 else f"{base}^{mult}")
        return " × ".join(parts)

    def to_pairs(self) -> list[dict[str, int]]:
        return [
            {"order_exp": exp, "multiplicity": mult} for exp, mult in self.entries
        ]

    @classmethod
    def from_pairs(cls, pairs) -> "AbelianInvariants":
        return cls(tuple((d["order_exp"], d["multiplicity"]) for d in pairs))


def v_order_exp(spec: GroupSpec, e: int) -> int:
    """m with |V(Z_{p^e}G)| = p^m, namely e(|G| - 1)."""
    if e < 1:
        raise ValueError("e must be >= 1")
    return e * (spec.p ** spec.size_exp - 1)


def p_rank_vzp(spec: GroupSpec) -> int:
    """p-rank of V(Z_p G): |G| - |G^p| as a plain integer."""
    p = spec.p
    return p ** spec.size_exp - p ** agemo_order_exp(spec, 1)


def vzp_factor_counts(spec: GroupSpec) -> list[int]:
    """t_1..t_n: multiplicity of C_{p^i} in V(Z_p G) from agemo orders.

    t_i = |G^{p^{i-1}}| - 2 |G^{p^i}| + |G^{p^{i+1}}| for i = 1..n.
    """
    p, n = spec.p, spec.exponent_exp
    sizes = [p ** agemo_order_exp(spec, i) for i in range(n + 2)]
    counts = [sizes[i - 1] - 2 * sizes[i] + sizes[i + 1] for i in range(1, n + 1)]
    if any(t < 0 for t in counts):
        raise ArithmeticError(f"negative factor count for {spec}: {counts}")
    if sum(counts) != p_rank_vzp(spec):
        raise ArithmeticError("factor counts do not sum to the p-rank")
    return counts


def s_and_l(spec: GroupSpec) -> tuple[tuple[int, ...], int]:
    """Complement data (s_1..s_n, l) of the decomposition V = G x L."""
    counts = vzp_factor_counts(spec)
    s = tuple(
        t - cyclic_factor_count(spec, i) for i, t in enumerate(counts, start=1)
    )
    if any(si < 0 for si in s):
        raise ArithmeticError(f"negative complement multiplicity for {spec}: {s}")
    l = spec.p ** spec.size_exp - 1 - sum(s)
    if l < 0:
        raise ArithmeticError(f"negative l for {spec}")
    return s, l


def v_invariants(spec: GroupSpec, e: int) -> AbelianInvariants:
    """Invariant factors of V(Z_{p^e}G) = G x L.

    One factor C_{p^lambda_j} per group factor, l copies of C_{p^{e-1}}
    (trivial, hence dropped, when e = 1) and s_i copies of C_{p^{i+e-1}}.

    >>> v_invariants(GroupSpec(2, (1,)), 3).entries
    ((1, 1), (2, 1))
    """
    return _v_invariants(spec, e, *s_and_l(spec))


def _v_invariants(spec: GroupSpec, e: int, s: tuple[int, ...], l: int) -> AbelianInvariants:
    """v_invariants from the complement data (s, l) of ``s_and_l(spec)``."""
    if e < 1:
        raise ValueError("e must be >= 1")
    inv = AbelianInvariants(
        tuple((lam, 1) for lam in spec.lambdas)
        + ((e - 1, l),)
        + tuple((i + e - 1, si) for i, si in enumerate(s, start=1))
    )
    if inv.size_exp() != v_order_exp(spec, e):
        raise ArithmeticError(
            f"invariant size exponent {inv.size_exp()} != e(|G|-1) for {spec}, e={e}"
        )
    return inv


def v_p_torsion_exp(spec: GroupSpec, e: int) -> int:
    """m with |V(Z_{p^e}G)[p]| = p^m.

    For e >= 2 the p-torsion is G[p] x (1 + p^{e-1} w), of order
    |G[p]| * p^{|G|-1}; for e = 1 it is 1 + I(G[p]), of order
    p^{|G| - |G^p|}.
    """
    if e < 1:
        raise ValueError("e must be >= 1")
    if e == 1:
        return p_rank_vzp(spec)
    return omega_order_exp(spec, 1) + spec.p ** spec.size_exp - 1


def dimension_subgroup(spec: GroupSpec, e: int, n: int) -> int:
    """Agemo index a with G ∩ (1 + w^n) = G^{p^a}; a = 0 means all of G.

    n = 1 gives the whole group; for n >= 2 the index is e + i where i is
    the unique integer with p^i < n <= p^{i+1}.
    """
    if e < 1:
        raise ValueError("e must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return 0
    p = spec.p
    i = 0
    while p ** (i + 1) < n:
        i += 1
    return e + i


@dataclass(frozen=True)
class StructureReport:
    """Everything the closed forms say about one (G, e) instance."""

    group: GroupSpec
    e: int
    s: tuple[int, ...]
    l: int
    v_invariants: AbelianInvariants
    v_order_exp: int
    v_p_torsion_exp: int
    p_rank: int

    def describe(self) -> str:
        return f"V ≅ {self.v_invariants.describe(self.group.p)}"


def structure_report(spec: GroupSpec, e: int) -> StructureReport:
    s, l = s_and_l(spec)
    return StructureReport(
        group=spec,
        e=e,
        s=s,
        l=l,
        v_invariants=_v_invariants(spec, e, s, l),
        v_order_exp=v_order_exp(spec, e),
        v_p_torsion_exp=v_p_torsion_exp(spec, e),
        p_rank=p_rank_vzp(spec),
    )
