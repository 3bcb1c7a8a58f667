"""Closed-form structure of V(Z_{p^e}G), computed without enumeration.

Everything here is a pure function of (p, lambda, e).  The decomposition
is ``V = G x L`` with

    L  =  l * C_{p^{e-1}}  x  (prod_i  s_i * C_{p^{i+e-1}}),

where t_i = |G^{p^{i-1}}| - 2|G^{p^i}| + |G^{p^{i+1}}| counts the cyclic
factors of order p^i in a direct decomposition of V(Z_p G), s_i is t_i
minus the number of cyclic direct factors of order p^i of G itself, and
l = |G| - 1 - sum(s_i).  The exhaustive oracle suite adjudicates these
formulas on every desk-scale instance.

The agemo orders come from one pass down the conjugate partition of
lambda, and the invariants as (order_exp, multiplicity) pairs straight
from these counts, in O(lambda_1 + k) steps on exact integers; |G| is
never capped here.

``structure_report`` is the one derivation of an instance's closed forms:
the invariants of V (with their size check) are built there only, and
|V[p]| is read off them, p to the rank of V, as in any finite abelian
p-group.  ``v_invariants`` and ``v_p_torsion_exp`` return its fields, and
``p_rank_vzp``, the rank of V(Z_p G), is |V[p]|'s exponent at e = 1.
``v_order_exp`` is the one statement of |V|'s exponent e(|G| - 1), in
O(1) steps: it never walks lambda.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .pgroup import GroupSpec, checked_int, count_pairs

# describe() writes a cyclic order p^k in decimal up to this k and as
# ``p^k`` above it, so that a huge p^k is never built.
_DECIMAL_ORDER_EXP_MAX = 64


@dataclass(frozen=True)
class AbelianInvariants:
    """Multiset of cyclic factor orders of a finite abelian p-group.

    Stored as (order_exp, multiplicity) pairs of ints >= 0 (``count_pairs``;
    never coerced), ascending in order_exp, the multiplicities of a repeated
    order_exp added up, with trivial factors (order_exp 0) and empty
    multiplicities dropped.

    >>> AbelianInvariants.from_factor_exps([2, 1, 0, 1]).entries
    ((1, 2), (2, 1))
    """

    entries: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        pairs = count_pairs(self.entries, ("order_exp", "multiplicity"))
        object.__setattr__(self, "entries", tuple(em for em in pairs if em[0]))

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
    return checked_int(e, "e", 1) * (spec.p ** spec.size_exp - 1)


def vzp_factor_counts(spec: GroupSpec) -> list[int]:
    """t_1..t_n: multiplicity of C_{p^i} in V(Z_p G) from agemo orders.

    t_i = |G^{p^{i-1}}| - 2 |G^{p^i}| + |G^{p^{i+1}}| for i = 1..n, with
    sizes[i] = |G^{p^i}| read in one pass down the conjugate partition of
    lambda: |G^{p^{i-1}}| = |G^{p^i}| p^{#{j : lambda_j >= i}}.
    """
    p, lams, n = spec.p, spec.lambdas, spec.exponent_exp
    sizes = [1, 1]  # |G^{p^{n+1}}| and |G^{p^n}|
    at_least = 0  # #{j : lambda_j >= i}; lambda is descending
    for i in range(n, 0, -1):
        while at_least < len(lams) and lams[at_least] >= i:
            at_least += 1
        sizes.append(sizes[-1] * p ** at_least)
    sizes.reverse()
    counts = [sizes[i - 1] - 2 * sizes[i] + sizes[i + 1] for i in range(1, n + 1)]
    if min(counts) < 0:
        raise ArithmeticError(f"negative factor count for {spec}: {counts}")
    if sum(counts) != sizes[0] - sizes[1]:
        raise ArithmeticError("factor counts do not sum to the p-rank")
    return counts


def s_and_l(spec: GroupSpec) -> tuple[tuple[int, ...], int]:
    """Complement data (s_1..s_n, l) of the decomposition V = G x L."""
    s = vzp_factor_counts(spec)
    for lam in spec.lambdas:  # s_i = t_i - #{j : lambda_j = i}
        s[lam - 1] -= 1
    if min(s) < 0:
        raise ArithmeticError(f"negative complement multiplicity for {spec}: {tuple(s)}")
    l = spec.p ** spec.size_exp - 1 - sum(s)
    if l < 0:
        raise ArithmeticError(f"negative l for {spec}")
    return tuple(s), l


def v_invariants(spec: GroupSpec, e: int) -> AbelianInvariants:
    """Invariant factors of V(Z_{p^e}G) = G x L (``structure_report``).

    >>> v_invariants(GroupSpec(2, (1,)), 3).entries
    ((1, 1), (2, 1))
    """
    return structure_report(spec, e).v_invariants


def p_rank_vzp(spec: GroupSpec) -> int:
    """p-rank of V(Z_p G), |G| - |G^p|: m with |V(Z_p G)[p]| = p^m."""
    return structure_report(spec, 1).v_p_torsion_exp


def v_p_torsion_exp(spec: GroupSpec, e: int) -> int:
    """m with |V(Z_{p^e}G)[p]| = p^m (``structure_report``)."""
    return structure_report(spec, e).v_p_torsion_exp


def dimension_subgroup(spec: GroupSpec, e: int, n: int) -> int:
    """Agemo index a with G ∩ (1 + w^n) = G^{p^a}; a = 0 means all of G.

    n = 1 gives the whole group; for n >= 2 the index is e + i where i is
    the unique integer with p^i < n <= p^{i+1}.
    """
    e = checked_int(e, "e", 1)
    n = checked_int(n, "n", 1)
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

    def describe(self) -> str:
        return f"V ≅ {self.v_invariants.describe(self.group.p)}"


def structure_report(spec: GroupSpec, e: int) -> StructureReport:
    """The closed forms of (G, e), all read off one ``s_and_l(spec)``.

    V = G x L has one factor C_{p^lambda_j} per group factor, l copies of
    C_{p^{e-1}} (trivial, hence dropped, when e = 1) and s_i copies of
    C_{p^{i+e-1}}; their sizes must add up to ``v_order_exp``.  |V[p]| is
    p to the number of nontrivial ones, the rank of V.
    """
    e = checked_int(e, "e", 1)
    s, l = s_and_l(spec)
    order_exp = v_order_exp(spec, e)
    inv = AbelianInvariants(
        tuple((lam, 1) for lam in spec.lambdas)
        + ((e - 1, l),)
        + tuple((i + e - 1, si) for i, si in enumerate(s, start=1))
    )
    if inv.size_exp() != order_exp:
        raise ArithmeticError(
            f"invariant size exponent {inv.size_exp()} != e(|G|-1) for {spec}, e={e}"
        )
    return StructureReport(
        group=spec,
        e=e,
        s=s,
        l=l,
        v_invariants=inv,
        v_order_exp=order_exp,
        v_p_torsion_exp=inv.p_rank(),
    )
