"""Brute-force ground truth for the closed forms.

Enumerates all of V(Z_{p^e}G) = 1 + w for desk-scale instances, recovers
the abelian invariants from the order census, and verifies each closed
form against the theory module.  Enumeration walks the free-coefficient
space (the last coefficient is forced by augmentation 1) in contiguous
index blocks; blocks are processed with vectorized numpy arithmetic that
is bit-identical to the scalar reference convolution, and can be fanned
out to worker threads.  Merging histograms is componentwise addition, so
parallel and sequential runs agree exactly.
"""

from __future__ import annotations

import itertools
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from . import theory
from .pgroup import (
    GroupSpec,
    element_index,
    element_pow,
    enumerate_elements,
    p_valuation,
    product_index_table,
    socle_elements,
)
from .ring import RingElement, RingSpec, _order_exp_bound, from_group_element, one
from .zpelin import (
    ResidueMatrix,
    howell_form,
    ideal_power_generators,
    module_size_exp,
    nilpotency_index,
    socle_ideal_generators,
)

DEFAULT_BUDGET = 1 << 22
_BLOCK = 1 << 16


class BudgetExceededError(RuntimeError):
    """Raised when |V| exceeds the enumeration budget (hard refusal)."""


def unit_count(rs: RingSpec) -> int:
    """|V| = p^{e(|G|-1)} as a plain integer (may be huge)."""
    return rs.modulus ** (rs.size - 1)


def _require_budget(rs: RingSpec, budget: int) -> None:
    if unit_count(rs) > budget:
        raise BudgetExceededError(
            f"|V| = {rs.p}^{rs.e * (rs.size - 1)} exceeds the enumeration "
            f"budget {budget}"
        )


def enumerate_units(rs: RingSpec, budget: int = DEFAULT_BUDGET):
    """Yield every normalized unit once, as RingElements (reference order).

    The first |G|-1 coefficients run through all residues in mixed-radix
    order (last free coefficient fastest); the final coefficient is forced
    by augmentation 1.
    """
    _require_budget(rs, budget)
    q = rs.modulus
    for digits in itertools.product(range(q), repeat=rs.size - 1):
        last = (1 - sum(digits)) % q
        yield RingElement(rs, digits + (last,))


# ---------------------------------------------------------------------------
# Vectorized block arithmetic.  All arrays are int64; p^e < 2^31 keeps every
# intermediate product below 2^62, and sums of reduced products below 2^51.


def _table(rs: RingSpec) -> np.ndarray:
    return np.asarray(product_index_table(rs.group), dtype=np.int64)


def _identity_row(rs: RingSpec) -> np.ndarray:
    row = np.zeros(rs.size, dtype=np.int64)
    row[0] = 1
    return row


def _mixed_radix(idx: np.ndarray, q: int, out: np.ndarray) -> np.ndarray:
    """Write the base-q digits of each index into a row of out, most
    significant first."""
    for j in range(out.shape[1] - 1, -1, -1):
        out[:, j] = idx % q
        idx = idx // q
    return out


def _unit_block(rs: RingSpec, lo: int, hi: int) -> np.ndarray:
    """Units with enumeration indices in [lo, hi), one per row."""
    q, n = rs.modulus, rs.size
    out = np.empty((hi - lo, n), dtype=np.int64)
    _mixed_radix(np.arange(lo, hi, dtype=np.int64), q, out[:, : n - 1])
    out[:, n - 1] = (1 - out[:, : n - 1].sum(axis=1)) % q
    return out


def _batch_mul(tbl: np.ndarray, q: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    for i in range(x.shape[1]):
        xi = x[:, i]
        if not xi.any():
            continue
        # tbl[i] is a permutation of the columns, so fancy += is collision-free
        out[:, tbl[i]] += (xi[:, None] * y) % q
    out %= q
    return out


def _batch_pow(tbl: np.ndarray, q: int, x: np.ndarray, m: int) -> np.ndarray:
    result = None
    base = x
    while m:
        if m & 1:
            result = base if result is None else _batch_mul(tbl, q, result, base)
        m >>= 1
        if m:
            base = _batch_mul(tbl, q, base, base)
    if result is None:
        raise ValueError("m must be >= 1")
    return result


def _rows_equal(x: np.ndarray, row: np.ndarray) -> np.ndarray:
    return (x == row).all(axis=1)


def _batch_order_exps(
    rs: RingSpec, units: np.ndarray, max_exp: int
) -> np.ndarray:
    """Per-row m with u^{p^m} = 1, or -1 if not reached by max_exp."""
    tbl, q, p = _table(rs), rs.modulus, rs.p
    ident = _identity_row(rs)
    orders = np.full(units.shape[0], -1, dtype=np.int64)
    done = _rows_equal(units, ident)
    orders[done] = 0
    alive = np.flatnonzero(~done)
    work = units[alive]
    m = 0
    while alive.size and m < max_exp:
        m += 1
        work = _batch_pow(tbl, q, work, p)
        done = _rows_equal(work, ident)
        orders[alive[done]] = m
        alive = alive[~done]
        work = work[~done]
    return orders


def _blocks(total: int, block_size: int):
    return [(lo, min(lo + block_size, total)) for lo in range(0, total, block_size)]


def _map_blocks(fn: Callable, blocks, workers: int) -> list:
    if workers <= 1:
        return [fn(b) for b in blocks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, blocks))


def _scan_units(
    rs: RingSpec, count: Callable, *, budget: int, workers: int, block_size: int = _BLOCK
) -> list[int]:
    """Sum of count(units) over all of V, one enumeration block at a time.

    count maps a block of units (one per row) to a fixed-length sequence of
    counts.  Blocks may run on worker threads; addition merges them exactly
    in any order, so the result does not depend on ``workers``.
    """
    _require_budget(rs, budget)
    blocks = _blocks(unit_count(rs), block_size)
    parts = _map_blocks(lambda b: count(_unit_block(rs, *b)), blocks, workers)
    return np.sum(parts, axis=0).tolist()


# ---------------------------------------------------------------------------
# Order census and invariant recovery.


@dataclass(frozen=True)
class OrderHistogram:
    """Counts of elements per exact order exponent: (k, #elements of order p^k)."""

    counts: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "counts",
            tuple(sorted((int(k), int(c)) for k, c in self.counts if c)),
        )

    def total(self) -> int:
        return sum(c for _, c in self.counts)

    def as_dict(self) -> dict[int, int]:
        return dict(self.counts)


def order_histogram(
    rs: RingSpec,
    *,
    budget: int = DEFAULT_BUDGET,
    workers: int = 1,
    block_size: int = _BLOCK,
) -> OrderHistogram:
    """Exact-order census of V, by exhaustive block enumeration."""
    cap = _order_exp_bound(rs)

    def census(units) -> np.ndarray:
        exps = _batch_order_exps(rs, units, cap)
        if (exps < 0).any():
            raise ArithmeticError("unit order exceeded the p-torsion bound")
        return np.bincount(exps, minlength=cap + 1)

    merged = _scan_units(rs, census, budget=budget, workers=workers, block_size=block_size)
    return OrderHistogram(tuple(enumerate(merged)))


def _exact_p_log(n: int, p: int) -> int:
    t = p_valuation(n, p)
    if n != p ** t:
        raise ValueError(f"{n} is not a power of {p}")
    return t


def invariants_from_histogram(h: OrderHistogram, p: int) -> theory.AbelianInvariants:
    """Recover invariant factors from an exact-order census.

    With ell_i = log_p #{elements of order dividing p^i}, the multiplicity
    of C_{p^i} is 2*ell_i - ell_{i-1} - ell_{i+1} (ell held constant past
    the top exponent).  Exact for finite abelian p-groups.
    """
    counts = h.as_dict()
    if counts.get(0) != 1:
        raise ValueError("histogram must contain exactly one element of order 1")
    top = max(counts)
    ell = []
    running = 0
    for i in range(top + 1):
        running += counts.get(i, 0)
        ell.append(_exact_p_log(running, p))
    pairs = []
    for i in range(1, top + 1):
        nxt = ell[i + 1] if i + 1 <= top else ell[top]
        mult = 2 * ell[i] - ell[i - 1] - nxt
        if mult < 0:
            raise ValueError(f"inconsistent histogram: negative multiplicity at {i}")
        pairs.append((i, mult))
    inv = theory.AbelianInvariants(tuple(pairs))
    if inv.size_exp() != ell[top]:
        raise ValueError("inconsistent histogram: sizes do not telescope")
    return inv


def synthetic_census(inv: theory.AbelianInvariants, p: int) -> OrderHistogram:
    """Order census of an abelian p-group given by its invariants."""
    top = inv.exponent_exp()
    cum = [
        p ** sum(min(e, i) * m for e, m in inv.entries) for i in range(top + 1)
    ]
    counts = [(0, 1)]
    counts += [(i, cum[i] - cum[i - 1]) for i in range(1, top + 1)]
    return OrderHistogram(tuple(counts))


# ---------------------------------------------------------------------------
# Verification checks.  Each check builds a (predicted, observed) pair of
# identically-shaped JSON values; the verdict is exact equality.


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one check on one (G, e) instance."""

    check_id: str
    group: GroupSpec
    e: int
    predicted: Any
    observed: Any
    verdict: str
    seed: int
    wall_time: float = field(compare=False, default=0.0)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def _howell_membership_rows(H: ResidueMatrix, vecs: np.ndarray) -> np.ndarray:
    """Boolean mask: which rows of vecs lie in the span of the Howell form H."""
    q = H.modulus
    v = vecs % q
    for row in H.rows:
        col = next(i for i, c in enumerate(row) if c)
        piv = row[col]
        f = v[:, col] // piv
        v = (v - f[:, None] * np.asarray(row, dtype=np.int64)) % q
    return (v == 0).all(axis=1)


def _check_theorem2(rs, params, *, budget, seed, workers):
    hist = order_histogram(rs, budget=budget, workers=workers)
    observed = invariants_from_histogram(hist, rs.p)
    predicted = theory.v_invariants(rs.group, rs.e)
    return (
        {"invariants": predicted.to_pairs()},
        {"invariants": observed.to_pairs()},
    )


def _check_theorem1(rs, params, *, budget, seed, workers):
    tbl, q, p = _table(rs), rs.modulus, rs.p
    q1 = p ** (rs.e - 1)
    socle = [element_index(rs.group, g) for g in socle_elements(rs.group)]
    socle_rows = np.eye(rs.size, dtype=np.int64)[socle]

    def scan(units):
        torsion = _rows_equal(_batch_pow(tbl, q, units, p), _identity_row(rs))
        sub = units[torsion] % q1
        ok = np.zeros(len(sub), dtype=bool)
        for row in socle_rows:
            ok |= _rows_equal(sub, row)
        return torsion.sum(), (~ok).sum()

    count, bad = _scan_units(rs, scan, budget=budget, workers=workers)

    predicted = {
        "order_dividing_p": rs.p ** theory.v_p_torsion_exp(rs.group, rs.e),
        "outside_socle_form": 0,
    }
    observed = {"order_dividing_p": count, "outside_socle_form": bad}
    return predicted, observed


def _check_lemma6(rs, params, *, budget, seed, workers):
    tbl, q, p = _table(rs), rs.modulus, rs.p
    q1 = p ** (rs.e - 1)
    ident = _identity_row(rs)

    def scan(units):
        in_kernel = _rows_equal(units % q1, ident)
        ker = units[in_kernel]
        not_torsion = ~_rows_equal(_batch_pow(tbl, q, ker, p), ident)
        return in_kernel.sum(), not_torsion.sum()

    kernel, violations = _scan_units(rs, scan, budget=budget, workers=workers)

    predicted = {"kernel_size": p ** (rs.size - 1), "order_p_violations": 0}
    observed = {"kernel_size": kernel, "order_p_violations": violations}
    return predicted, observed


def _check_lemma4(rs, params, *, budget, seed, workers):
    tbl, q, p = _table(rs), rs.modulus, rs.p
    ident = _identity_row(rs)
    H = howell_form(socle_ideal_generators(rs))

    def scan(units):
        torsion = _rows_equal(_batch_pow(tbl, q, units, p), ident)
        vecs = (units[torsion] - ident) % q
        inside = _howell_membership_rows(H, vecs)
        return torsion.sum(), (~inside).sum()

    count, outside = _scan_units(rs, scan, budget=budget, workers=workers)

    predicted = {"unit_count": p ** module_size_exp(H), "outside_ideal": 0}
    observed = {"unit_count": count, "outside_ideal": outside}
    return predicted, observed


def _check_lemma5(rs, params, *, budget, seed, workers):
    q, p = rs.modulus, rs.p
    ident = _identity_row(rs)

    forms = []
    size_exps = []
    n = 1
    while True:
        H = howell_form(ideal_power_generators(rs, n))
        forms.append(H)
        size_exps.append(module_size_exp(H))
        if size_exps[-1] == 0:
            break
        n += 1
    nu = len(forms)  # least n with w^n = 0

    def scan(units):
        vecs = (units - ident) % q
        return [_howell_membership_rows(H, vecs).sum() for H in forms]

    totals = _scan_units(rs, scan, budget=budget, workers=workers)

    def ratio_exp(a: int, b: int) -> int:
        if b == 0 or a % b:
            return -1
        try:
            return _exact_p_log(a // b, p)
        except ValueError:
            return -1

    # |w^m| / |w^{m+1}| from Howell sizes, m = 1..nu (sizes 0 past nu).
    predicted_ratios = [
        size_exps[m - 1] - (size_exps[m] if m < nu else 0) for m in range(1, nu + 1)
    ]
    # |1 + w^m| / |1 + w^{m+1}| from unit counting; w^{nu+1} = w^{nu} = 0.
    counted = totals + [totals[-1]]
    observed_ratios = [ratio_exp(counted[m - 1], counted[m]) for m in range(1, nu + 1)]
    return (
        {"layer_ratio_exps": predicted_ratios},
        {"layer_ratio_exps": observed_ratios},
    )


def _check_lemma3(rs, params, *, budget, seed, workers):
    n = int(params["n"])
    group = rs.group
    H = howell_form(ideal_power_generators(rs, n))
    elements = list(enumerate_elements(group))
    ident_row = _identity_row(rs)

    vecs = np.zeros((len(elements), rs.size), dtype=np.int64)
    for i, g in enumerate(elements):
        vecs[i, element_index(group, g)] = 1
    vecs = (vecs - ident_row) % rs.modulus
    member = _howell_membership_rows(H, vecs)
    observed = [list(g) for g, m in zip(elements, member) if m]

    a = theory.dimension_subgroup(group, rs.e, n)
    power = group.p ** a
    agemo = sorted({element_pow(group, g, power) for g in elements})
    predicted = [list(g) for g in agemo]
    return {"elements": predicted}, {"elements": observed}


def _check_lemma2(rs, params, *, budget, seed, workers):
    p, e = rs.p, rs.e
    unit_one = one(rs)
    cases = 0
    violations = 0
    for g in enumerate_elements(rs.group):
        base = unit_one - from_group_element(rs, g)
        for l in range(e, e + 4):
            lhs = base ** (p ** l)
            for s in range(0, l - e + 2):
                gs = element_pow(rs.group, g, p ** s)
                rhs = (unit_one - from_group_element(rs, gs)) ** (p ** (l - s))
                cases += 1
                if lhs != rhs:
                    violations += 1
    return (
        {"cases": cases, "violations": 0},
        {"cases": cases, "violations": violations},
    )


def _lemma9_candidates(rs: RingSpec, seed: int) -> np.ndarray:
    """All nonzero y for small instances, else 1000 seeded random ones."""
    q, n = rs.modulus, rs.size
    if rs.size <= 4 and rs.e <= 3:
        ys = np.empty((q ** n - 1, n), dtype=np.int64)
        return _mixed_radix(np.arange(1, q ** n, dtype=np.int64), q, ys)
    rng = np.random.default_rng(seed)
    ys = rng.integers(0, q, size=(1000, n), dtype=np.int64)
    while True:
        zero = ~ys.any(axis=1)
        if not zero.any():
            return ys
        ys[zero] = rng.integers(0, q, size=(int(zero.sum()), n), dtype=np.int64)


def _lemma9_units(rs: RingSpec, d: int, seed: int):
    """(ys, exceptional, measured) for the units 1 + p^d y.

    ``exceptional`` marks the rows where the closed form is silent (p = 2,
    d = 1, and both y and y^2 have an odd coefficient); ``measured`` holds
    each unit's order exponent, or -1 when it exceeds p^{e-d}.
    """
    p, q = rs.p, rs.modulus
    ys = _lemma9_candidates(rs, seed)
    exceptional = np.zeros(len(ys), dtype=bool)
    if p == 2 and d == 1:
        odd_square = (_batch_mul(_table(rs), q, ys, ys) % 2 == 1).any(axis=1)
        exceptional = odd_square & (ys % 2 == 1).any(axis=1)
    units = (p ** d) * ys % q
    units[:, 0] = (units[:, 0] + 1) % q
    return ys, exceptional, _batch_order_exps(rs, units, rs.e - d)


def _check_lemma9(rs, params, *, budget, seed, workers):
    d = int(params["d"])
    p, e = rs.p, rs.e
    ys, exceptional, measured = _lemma9_units(rs, d, seed)

    # Minimal coefficient valuation per row (valuation of 0 taken as e).
    val = np.zeros_like(ys)
    zero = ys == 0
    val[zero] = e
    rem = np.where(zero, 1, ys)
    while True:
        div = rem % p == 0
        if not div.any():
            break
        val[div] += 1
        rem[div] //= p
    s = val.min(axis=1)
    predicted_exp = np.maximum(e - d - s, 0)

    bound_violations = int((measured < 0).sum())
    mismatches = int(
        (~exceptional & (measured >= 0) & (measured != predicted_exp)).sum()
    )
    base = {"cases": len(ys), "exceptional": int(exceptional.sum())}
    predicted = {**base, "mismatches": 0, "order_bound_violations": 0}
    observed = {
        **base,
        "mismatches": mismatches,
        "order_bound_violations": bound_violations,
    }
    return predicted, observed


def lemma9_exceptional_census(
    rs: RingSpec, d: int, *, seed: int = 0
) -> OrderHistogram:
    """Measured orders of the exceptional units 1 + p^d y.

    The closed form stays silent when p = 2, d = 1 and y^2 has an odd
    coefficient; this census records what those orders actually are, using
    the same candidate generation as the lemma9 check (exhaustive for
    |G| <= 4, e <= 3, else seeded random).  Purely observational: no closed
    form is asserted, and the distribution is empty whenever the
    exceptional condition cannot occur.
    """
    CHECKS["lemma9"].require(rs, {"d": d})
    _, exceptional, measured = _lemma9_units(rs, d, seed)
    measured = measured[exceptional]
    if (measured < 0).any():
        raise ArithmeticError("exceptional unit order exceeded p^{e-d}")
    return OrderHistogram(tuple(zip(*np.unique(measured, return_counts=True))))


# ---------------------------------------------------------------------------
# The check registry: the one statement of what each check needs.


@dataclass(frozen=True)
class Check:
    """A verification check and the instances it applies to.

    ``requires`` is the mathematical precondition on (ring, params), which
    verify_check enforces; ``requirement`` states it.  The planner adds two
    limits: an enumerative check scans all of V, so |V| must fit the
    budget, and ``cap`` = (max |G|, max e) keeps the plan desk-scale.  A
    check with a ``param`` is planned once per value in ``param_range(rs)``.
    """

    id: str
    run: Callable
    enumerative: bool
    requires: Callable[[RingSpec, dict], bool] = lambda rs, params: True
    requirement: str = ""
    cap: Optional[tuple[int, int]] = None
    param: Optional[str] = None
    param_range: Callable[[RingSpec], range] = lambda rs: range(0)

    def require(self, rs: RingSpec, params: dict) -> None:
        if not self.requires(rs, params):
            got = ", ".join(f"{k}={v}" for k, v in {"e": rs.e, **params}.items())
            raise ValueError(f"{self.id} check requires {self.requirement}; got {got}")

    def plans(self, rs: RingSpec) -> list[Optional[dict]]:
        if self.cap and not (rs.size <= self.cap[0] and rs.e <= self.cap[1]):
            return []
        if self.param is None:
            return [None] if self.requires(rs, {}) else []
        return [{self.param: v} for v in self.param_range(rs)]


# In report order: plan_checks lists the checks in this order.
CHECKS: dict[str, Check] = {
    c.id: c
    for c in (
        Check("theorem1", _check_theorem1, enumerative=True,
              requires=lambda rs, _: rs.e >= 2, requirement="e >= 2"),
        Check("theorem2", _check_theorem2, enumerative=True),
        Check("lemma2", _check_lemma2, enumerative=False),
        Check("lemma3", _check_lemma3, enumerative=False, cap=(16, 3), param="n",
              param_range=lambda rs: range(1, nilpotency_index(rs) + 1)),
        Check("lemma4", _check_lemma4, enumerative=True,
              requires=lambda rs, _: rs.e == 1, requirement="e = 1"),
        Check("lemma5", _check_lemma5, enumerative=True, cap=(8, 2)),
        Check("lemma6", _check_lemma6, enumerative=True,
              requires=lambda rs, _: rs.e >= 2, requirement="e >= 2"),
        Check("lemma9", _check_lemma9, enumerative=False,
              requires=lambda rs, params: 1 <= params["d"] < rs.e,
              requirement="1 <= d < e", param="d", param_range=lambda rs: range(1, rs.e)),
    )
}

CHECK_IDS = tuple(sorted(CHECKS))


def _format_check_id(check: str, params: Optional[dict]) -> str:
    if not params:
        return check
    inner = ",".join(f"{k}={params[k]}" for k in sorted(params))
    return f"{check}:{inner}"


def _derive_seed(seed: int, check: str, rs: RingSpec, params: Optional[dict]) -> int:
    desc = f"{check}|{rs.to_text()}|{sorted((params or {}).items())}"
    return zlib.crc32(desc.encode()) ^ (seed & 0xFFFFFFFF)


def verify_check(
    check: str,
    rs: RingSpec,
    params: Optional[dict] = None,
    *,
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
    workers: int = 1,
) -> VerificationReport:
    """Run one named check; verdict is exact predicted == observed."""
    spec = CHECKS.get(check)
    if spec is None:
        raise ValueError(f"unknown check id {check!r}; known: {', '.join(CHECK_IDS)}")
    spec.require(rs, params or {})
    derived = _derive_seed(seed, check, rs, params)
    start = time.perf_counter()
    predicted, observed = spec.run(
        rs, params or {}, budget=budget, seed=derived, workers=workers
    )
    elapsed = time.perf_counter() - start
    return VerificationReport(
        check_id=_format_check_id(check, params),
        group=rs.group,
        e=rs.e,
        predicted=predicted,
        observed=observed,
        verdict="pass" if predicted == observed else "fail",
        seed=derived,
        wall_time=elapsed,
    )


def plan_checks(
    rs: RingSpec,
    enabled: Optional[set[str]] = None,
    budget: int = DEFAULT_BUDGET,
) -> list[tuple[str, Optional[dict]]]:
    """Applicable (check, params) pairs for an instance, in report order.

    Checks that enumerate V are planned only when |V| fits the budget;
    the formula-driven checks (lemma2, lemma3, lemma9) have no such limit.
    """
    within = unit_count(rs) <= budget
    return [
        (c.id, params)
        for c in CHECKS.values()
        if (enabled is None or c.id in enabled) and (within or not c.enumerative)
        for params in c.plans(rs)
    ]
