"""Re-derive the closed forms by brute force and compare.

The oracle enumerates every normalized unit (the coefficient vectors with
sum 1), measures each element's order by repeated p-th powering, and
reconstructs the invariant factors from the order census alone.  On every
desk-scale instance this must agree exactly with the closed forms.

Run:  python demos/oracle_crosscheck.py
"""

import itertools
from collections import Counter

from punits import (
    GroupSpec,
    RingElement,
    RingSpec,
    enumerate_units,
    invariants_from_histogram,
    lemma9_predicted_order,
    order_histogram,
    v_invariants,
    verify_check,
)
from punits.ring import one

print("=" * 72)
print("Z_4 C_2: small enough to look at every unit")
print("=" * 72)
print()
rs = RingSpec(GroupSpec(2, (1,)), 2)
for u in enumerate_units(rs):
    print(f"  coefficients {u.coeffs}")
hist = order_histogram(rs)
print(f"\n  order census (exponent -> count): {hist.as_dict()}")
print(f"  recovered invariants: {invariants_from_histogram(hist, 2).describe(2)}")
print(f"  closed form:          {v_invariants(rs.group, rs.e).describe(2)}")

print()
print("=" * 72)
print("Z_9 C_3: 81 units, recovered from order statistics")
print("=" * 72)
print()
rs = RingSpec(GroupSpec(3, (1,)), 2)
hist = order_histogram(rs)
print(f"  order census: {hist.as_dict()}   (total {hist.total()})")
print(f"  recovered: {invariants_from_histogram(hist, 3).describe(3)}")
print(f"  predicted: {v_invariants(rs.group, rs.e).describe(3)}")

print()
print("=" * 72)
print("Named checks produce machine-readable reports")
print("=" * 72)
print()
rs = RingSpec(GroupSpec(2, (2, 1)), 2)
for check, params in [("theorem2", None), ("theorem1", None), ("lemma9", {"d": 1})]:
    report = verify_check(check, rs, params)
    print(f"  {report.check_id:12} on {rs.to_text()}: {report.verdict}")
    print(f"    predicted: {report.predicted}")
    print(f"    observed:  {report.observed}")

print()
print("=" * 72)
print("The exceptional units, ordered by one squaring")
print("=" * 72)
print()
print("For p = 2, d = 1, y with an odd coefficient and y^2 with one too,")
print("the rule p^{e-d-s} does not apply.  But (1 + 2y)^2 = 1 + 4(y + y^2) is a")
print("unit of d = 2, where it does, and 1 + 2y != 1: the order of 1 + 2y is")
print("2 * 2^max(e-2-s', 0), s' the least valuation of y + y^2 (Z_8 C_4):")
print()
rs = RingSpec(GroupSpec(2, (2,)), 3)
report = verify_check("lemma9", rs, {"d": 1})
seen = report.observed
print(f"  {report.check_id}: {seen['exceptional']} exceptional units of "
      f"{seen['cases']} cases, {seen['mismatches']} mismatches")
measured, predicted = Counter(), Counter()
for digits in itertools.product(range(rs.modulus), repeat=rs.size):
    y = RingElement(rs, digits)
    if any(c % 2 for c in digits) and any(c % 2 for c in (y * y).coeffs):
        u, order = one(rs) + 2 * y, 1
        while u ** order != one(rs):
            order *= 2
        measured[order] += 1
        predicted[lemma9_predicted_order(1, y)] += 1
for order in sorted(measured, reverse=True):
    print(f"  order {order}: {measured[order]} units measured, {predicted[order]} predicted")
