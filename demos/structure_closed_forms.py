"""Walk through the closed-form structure of V(Z_{p^e}G).

The unit group splits as V = G x L, and the complement L is determined by
the power-subgroup chain of G alone.  This script prints the decomposition
for a family of groups and shows how the complement grows with e.

Run:  python demos/structure_closed_forms.py
"""

from punits import GroupSpec, structure_report, v_invariants

print("=" * 72)
print("The smallest interesting family: G = C_2 over Z_{2^e}")
print("=" * 72)
print()
print("For G = C_2 the whole unit group is G x <1 + 2(a-1)>, a cyclic")
print("complement of order 2^{e-1}:")
print()
group = GroupSpec(2, (1,))
for e in range(1, 7):
    rep = structure_report(group, e)
    print(f"  e = {e}:  |V| = 2^{rep.v_order_exp:<3}  {rep.describe()}")

print()
print("=" * 72)
print("How the complement data (s_i, l) drives the answer")
print("=" * 72)
print()
print("s_i counts the complement factors C_{p^{i+e-1}}; the remaining")
print("l = |G| - 1 - sum(s_i) factors are C_{p^{e-1}}.")
print()
for p, lams in [(2, (1, 1)), (2, (2,)), (2, (2, 1)), (3, (1,)), (3, (1, 1))]:
    group = GroupSpec(p, lams)
    rep = structure_report(group, 1)
    print(f"  G = {group.to_text():24} s = {list(rep.s)}, l = {rep.l}")
    for e in (1, 2, 3):
        inv = v_invariants(group, e)
        print(f"      e = {e}:  V ≅ {inv.describe(p)}")
    print()

print("=" * 72)
print("Exponent-only arithmetic keeps huge instances exact")
print("=" * 72)
print()
print("G = C_{2^64} x C_{2^64} has |G| = 2^128 elements, far past anything")
print("that could be enumerated; the closed forms only need its agemo chain.")
print()
group = GroupSpec(2, (64, 64))
rep = structure_report(group, 9)
print(f"  G = {group.to_text()}, e = 9")
print(f"  |V| = 2^{rep.v_order_exp}  (never materialized)")
print(f"  l = {rep.l} copies of C_{{2^8}}")
inv = rep.v_invariants
print(f"  V has {inv.p_rank()} cyclic factors of {len(inv.entries)} distinct orders,")
print(f"  from C_{{2^{inv.entries[0][0]}}} up to C_{{2^{inv.exponent_exp()}}}")
