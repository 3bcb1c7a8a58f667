"""Brute-force ground truth for the closed forms.

Enumerates all of V(Z_{p^e}G) = 1 + w for desk-scale instances, recovers
the abelian invariants from the order census, and verifies each closed
form against the theory module.  A unit's enumeration index is the
base-p^e number formed by its first |G|-1 coefficients (the last one is
forced by augmentation 1), so V is a range of integers.  That numbering
and G's own are read through ``pgroup``'s index codec.

V is abelian, so the p-th power map phi(u) = u^p is an endomorphism, and
for e >= 2 it factors through reduction mod p^{e-1}: the kernel K of
V(Z_{p^e}G) -> V(Z_{p^{e-1}}G) has exponent p (Lemma 6), so
phi(uk) = phi(u) phi(k) = phi(u) for k in K.  The power map is therefore
kept over a base ring, V(Z_{p^{e-1}}G), with one representative per coset
of K: the base unit u-bar with its last coefficient lifted mod p^e.  For
each representative it stores whether its p-th power is 1 (``one``) and
the base index of that power reduced mod p^{e-1} (``chi``), which is the
base ring's own phi.  The order census reads kernels of phi^m off these
masks, each representative standing for |K| = p^{|G|-1} units, and the
torsion checks (theorem1, lemma4) decode only the representatives of V[p],
in one call (``Units.p_torsion``); besides the map, lemma5's ``Units.scan``
is the only pass over blocks of V.  The oracle does
not rely on the lemma it verifies: each e >= 2 instance first powers the
p^{|G|-1} elements of K, and if any k^p != 1 the base is the ring itself
(as at e = 1), where ``chi`` is phi and each unit stands for itself.  At
e = 1 (characteristic p) phi is (sum a_g g)^p = sum a_g g^p: a scatter-add.

The map is built one contiguous block of representatives at a time with
vectorized numpy arithmetic that is bit-identical to the scalar reference
convolution; blocks can be fanned out to worker threads and fill disjoint
slices, so parallel and sequential runs agree exactly.  The batched
product reduces its int64 sums mod q = p^e (``pgroup.mod_in_place``) only
every ``ring._rows_per_reduction(q)`` rows.  The checks of an instance
share the map through one ``Units`` object and it is freed with that
object, so a suite run keeps one power map alive at a time.

The formula checks (lemma2, lemma3, lemma9) enumerate no units: each
powers one block of columns (1 - g for every g in G, g - 1, or the
candidate units 1 + p^d y) with the same batched kernels, and reads the
group's own power map g -> g^m by index arithmetic
(``pgroup.power_indices``).
"""

from __future__ import annotations

import functools
import itertools
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from . import theory
from .pgroup import (
    DENSE_TABLE_CAP,
    GroupSpec,
    element_from_index,
    gather_table,
    mod_in_place,
    p_valuation,
    power_indices,
    radix_decode,
    radix_encode,
    socle_indices,
)
from .ring import RingElement, RingSpec, _order_exp_bound, _rows_per_reduction
from .zpelin import (
    _howell,
    howell_form,  # noqa: F401  re-exported; perfbench's tracer self-test wraps this binding
    ideal_power_form,
    nilpotency_index,
    socle_ideal_generators,
)

DEFAULT_BUDGET = 1 << 22
_BLOCK = 1 << 16

# Enumeration indices are stored as int32 (the power map keeps one per
# representative, and on the fallback path every unit is one), so no budget
# admits |V| >= 2^31.
_INDEX_CAP = 1 << 31


class BudgetExceededError(RuntimeError):
    """Raised when |V| exceeds the enumeration budget (hard refusal)."""


def unit_count(rs: RingSpec) -> int:
    """|V| = p^{e(|G|-1)} as a plain integer (may be huge)."""
    return rs.modulus ** (rs.size - 1)


def _over_budget(rs: RingSpec, budget: int) -> Optional[str]:
    """Why V cannot be enumerated under the budget, or None if it can."""
    n, head = unit_count(rs), f"|V| = {rs.p}^{rs.e * (rs.size - 1)} exceeds"
    if n > budget:
        return f"{head} the enumeration budget {budget}"
    return f"{head} the int32 enumeration index" if n >= _INDEX_CAP else None


def _require_budget(rs: RingSpec, budget: int) -> None:
    if reason := _over_budget(rs, budget):
        raise BudgetExceededError(reason)


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
# Vectorized block arithmetic.  Blocks are int64 arrays of shape (|G|, B):
# row i holds the coefficient of the i-th group element of B ring elements.
# p^e <= 2^31 keeps every product of two residues below 2^62.


def _identity(rs: RingSpec) -> np.ndarray:
    col = np.zeros(rs.size, dtype=np.int64)
    col[0] = 1
    return col


def _units_at(rs: RingSpec, idx: np.ndarray, lift: Optional[int] = None) -> np.ndarray:
    """The units with the given enumeration indices, one per column; with
    ``lift`` = p^{e'} for e' >= e, the last coefficient is forced mod p^{e'},
    which lifts each unit to augmentation 1 in Z_{p^{e'}}G."""
    n, q = rs.size, rs.modulus
    out = np.empty((n, len(idx)), dtype=np.int64)
    radix_decode(idx, (q,) * (n - 1), out[: n - 1])
    out[n - 1] = mod_in_place(1 - out[: n - 1].sum(axis=0), lift or q)
    return out


def _batch_mul(tbl: np.ndarray, q: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # (xy)_m = sum_i x_i y_{tbl[i][m]} over residues x, y in [0, q).  Each
    # product is below (q-1)^2, so the sum is reduced only after every k
    # added rows and at the end, k = _rows_per_reduction(q) keeping it in int64.
    k = _rows_per_reduction(q)
    out = np.zeros_like(x)
    for added, i in enumerate(np.flatnonzero(x.any(axis=1)), start=1):
        term = y[tbl[i]]
        term *= x[i]
        out += term
        if added % k == 0:
            mod_in_place(out, q)
    return mod_in_place(out, q)


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


def _matches(x: np.ndarray, col: np.ndarray) -> np.ndarray:
    """Which columns of x equal col."""
    return (x == col[:, None]).all(axis=0)


def _batch_order_exps(units: Units, block: np.ndarray, max_exp: int) -> np.ndarray:
    """Per-column m with u^{p^m} = 1, or -1 if not reached by max_exp.

    The whole block is powered at each step: a column at 1 stays at 1, and
    compacting the rest would cost more numpy calls than it saves."""
    tbl, q, p = units.table, units.rs.modulus, units.rs.p
    ident = _identity(units.rs)
    orders = np.where(_matches(block, ident), 0, -1)
    m = 0
    while m < max_exp and (orders < 0).any():
        m += 1
        block = _batch_pow(tbl, q, block, p)
        orders[(orders < 0) & _matches(block, ident)] = m
    return orders


def _map_blocks(fn: Callable, total: int, workers: int) -> list:
    """[fn(lo, hi)] over the blocks of _BLOCK items covering [0, total)."""
    blocks = [(lo, min(lo + _BLOCK, total)) for lo in range(0, total, _BLOCK)]
    if workers <= 1:
        return [fn(*b) for b in blocks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda b: fn(*b), blocks))


@dataclass(frozen=True, eq=False)
class PowerMap:
    """u -> u^p over the units of ``base``, the representatives: rep i is
    base unit i lifted to augmentation 1 mod p^e, and stands for ``mult``
    units of V.  ``one[i]`` says rep_i^p = 1, and ``chi[i]`` (int32) is the
    base index of rep_i^p reduced to ``base``.  Both arrays are read-only."""

    base: RingSpec
    mult: int
    one: np.ndarray
    chi: np.ndarray


@dataclass(eq=False)
class Units:
    """V(Z_{p^e}G) of one instance: the gather table, the reduction-kernel
    check and the power map are built on first use and live as long as the
    object."""

    rs: RingSpec
    budget: int = DEFAULT_BUDGET
    workers: int = 1

    @functools.cached_property
    def table(self) -> np.ndarray:
        """The gather table of G (see ``pgroup.gather_table``)."""
        return gather_table(self.rs.group)

    @functools.cached_property
    def kernel(self) -> tuple[int, int]:
        """(|K|, #{k in K : k^p != 1}) for the kernel K = 1 + p^{e-1} w of
        reduction mod p^{e-1}, e >= 2: one power of each k = 1 + p^{e-1}(u - 1),
        u running over the units of Z_p G."""
        _require_budget(self.rs, self.budget)
        rs = self.rs
        p, q, ident = rs.p, rs.modulus, _identity(rs)
        u = _units_at(RingSpec(rs.group, 1), np.arange(p ** (rs.size - 1), dtype=np.int64))
        k = mod_in_place(p ** (rs.e - 1) * (u - ident[:, None]) + ident[:, None], q)
        kp = _batch_pow(self.table, q, k, p)
        return k.shape[1], int(np.count_nonzero(~_matches(kp, ident)))

    @functools.cached_property
    def power_map(self) -> PowerMap:
        """The power map over V(Z_{p^{e-1}}G) when e >= 2 and K^p = 1, else
        over V itself; |V| over the budget or at least 2^31 is refused
        before anything is allocated."""
        _require_budget(self.rs, self.budget)
        rs, tbl = self.rs, self.table
        q, ident = rs.modulus, _identity(rs)
        if rs.e >= 2 and self.kernel[1] == 0:
            base, mult = RingSpec(rs.group, rs.e - 1), self.kernel[0]
        else:
            base, mult = rs, 1
        one = np.empty(unit_count(base), dtype=bool)
        chi = np.empty(len(one), dtype=np.int32)
        radices = (base.modulus,) * (rs.size - 1)

        def fill(lo: int, hi: int) -> None:
            reps = _units_at(base, np.arange(lo, hi, dtype=np.int64), q)
            if rs.e == 1:  # characteristic p: (sum a_g g)^p = sum a_g g^p
                powers = np.zeros_like(reps)
                np.add.at(powers, power_indices(rs.group, rs.p), reps)
                mod_in_place(powers, q)
            else:
                powers = _batch_pow(tbl, q, reps, rs.p)
            one[lo:hi] = _matches(powers, ident)
            chi[lo:hi] = radix_encode(mod_in_place(powers[:-1], base.modulus), radices)

        _map_blocks(fill, len(one), self.workers)
        one.flags.writeable = chi.flags.writeable = False
        return PowerMap(base, mult, one, chi)

    def p_torsion(self) -> np.ndarray:
        """V[p]'s representatives in the power map, one per column, lifted
        mod p^e: decoded in one call and kept by no one.  Bounded: lemma4
        runs only at e = 1, where no budget admits |V| >= 2^31, so |V| <= 7^6;
        on theorem1's quotient path there are |G[p]| of them when Theorem 1
        holds, and never more than the power map's length."""
        pm = self.power_map
        return _units_at(pm.base, np.flatnonzero(pm.one), self.rs.modulus)

    def scan(self, count: Callable) -> list[int]:
        """Sum of count(block) over blocks of the units of V, one per column.
        count returns a fixed-length sequence of counts, which add up the
        same for any number of workers."""
        rs = self.rs
        _require_budget(rs, self.budget)

        def part(lo: int, hi: int):
            return count(_units_at(rs, np.arange(lo, hi, dtype=np.int64)))

        return np.sum(_map_blocks(part, unit_count(rs), self.workers), axis=0).tolist()

    def census(self) -> OrderHistogram:
        """Exact-order census of V from the sizes of the kernels of phi^m.

        u^{p^{m+1}} = 1 iff phi(u)^{p^m} = 1, and for m >= 1 that depends on
        phi(u) only through its reduction to the base, so the kernel of
        phi^{m+1} is the kernel of phi^m gathered along chi.
        """
        pm, total = self.power_map, unit_count(self.rs)
        ker = pm.one
        sizes = [1, pm.mult * int(np.count_nonzero(ker))]
        while sizes[-1] < total and len(sizes) <= _order_exp_bound(self.rs):
            ker = ker[pm.chi]
            sizes.append(pm.mult * int(np.count_nonzero(ker)))
        if sizes[-1] < total:
            raise ArithmeticError("unit order exceeded the p-torsion bound")
        return OrderHistogram(tuple(enumerate(np.diff(sizes, prepend=0))))


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
    rs: RingSpec, *, budget: int = DEFAULT_BUDGET, workers: int = 1
) -> OrderHistogram:
    """Exact-order census of V (see ``Units.census``)."""
    return Units(rs, budget, workers).census()


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


def _check_theorem2(units: Units, params, seed):
    rs = units.rs
    observed = invariants_from_histogram(units.census(), rs.p)
    predicted = theory.v_invariants(rs.group, rs.e)
    return (
        {"invariants": predicted.to_pairs()},
        {"invariants": observed.to_pairs()},
    )


def _check_theorem1(units: Units, params, seed):
    # Each representative of V[p] stands for mult units, all with its
    # residue mod p^{e-1}, which is all the socle test reads: a residue has
    # the socle form iff it is the group element h at its largest entry and
    # h lies in G[p].
    rs, pm = units.rs, units.power_map
    residues = mod_in_place(units.p_torsion(), rs.p ** (rs.e - 1))
    h = residues.argmax(axis=0)
    socle = np.isin(h, socle_indices(rs.group))
    socle &= (residues == np.eye(rs.size, dtype=np.int64)[:, h]).all(axis=0)

    predicted = {
        "order_dividing_p": rs.p ** theory.v_p_torsion_exp(rs.group, rs.e),
        "outside_socle_form": 0,
    }
    observed = {
        "order_dividing_p": pm.mult * residues.shape[1],
        "outside_socle_form": pm.mult * int(np.count_nonzero(~socle)),
    }
    return predicted, observed


def _check_lemma6(units: Units, params, seed):
    rs, (size, violations) = units.rs, units.kernel
    predicted = {"kernel_size": rs.p ** (rs.size - 1), "order_p_violations": 0}
    observed = {"kernel_size": size, "order_p_violations": violations}
    return predicted, observed


def _check_lemma4(units: Units, params, seed):
    # At e = 1 the power map's representatives are the units themselves.
    rs = units.rs
    torsion = units.p_torsion()
    H = _howell(socle_ideal_generators(rs), rs.p, rs.e)
    outside = int(np.count_nonzero(~H.contains(torsion - _identity(rs)[:, None])))

    predicted = {"unit_count": rs.p ** H.size_exp, "outside_ideal": 0}
    observed = {"unit_count": torsion.shape[1], "outside_ideal": outside}
    return predicted, observed


def _check_lemma5(units: Units, params, seed):
    rs = units.rs
    q, p = rs.modulus, rs.p
    ident = _identity(rs)

    nu = nilpotency_index(rs)
    forms = [ideal_power_form(rs, m) for m in range(1, nu + 1)]  # w^nu = 0
    size_exps = [H.size_exp for H in forms]

    def scan(block):
        # 1 + w^{m+1} lies in 1 + w^m, so only the members of one layer
        # are tested against the next.
        vecs = block - ident[:, None]  # contains reduces it mod q
        counts = []
        for H in forms:
            vecs = vecs[:, H.contains(vecs)]
            counts.append(vecs.shape[1])
        return counts

    totals = units.scan(scan)

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


def _check_lemma3(units: Units, params, seed):
    rs = units.rs
    n = int(params["n"])
    group = rs.group
    H = ideal_power_form(rs, n)
    # Column i is g_i - 1; index order is the lexicographic order of elements.
    vecs = np.eye(rs.size, dtype=np.int64) - _identity(rs)[:, None]
    observed = np.flatnonzero(H.contains(vecs))

    a = theory.dimension_subgroup(group, rs.e, n)
    agemo = np.zeros(rs.size, dtype=bool)
    agemo[power_indices(group, group.p ** a)] = True
    predicted = np.flatnonzero(agemo)

    def listed(indices):
        return [list(element_from_index(group, i)) for i in indices.tolist()]

    return {"elements": listed(predicted)}, {"elements": listed(observed)}


def _lemma2_powers(units: Units) -> dict[int, np.ndarray]:
    """P[k] for k = e-1 ... e+3, the exponents l - s that lemma2 reads:
    column j is (1 - g_j)^{p^k}, so column 0 (g = 1) is 0."""
    rs, tbl = units.rs, units.table
    p, e, q = rs.p, rs.e, rs.modulus
    cols = mod_in_place(_identity(rs)[:, None] - np.eye(rs.size, dtype=np.int64), q)
    P = {e - 1: _batch_pow(tbl, q, cols, p ** (e - 1))}
    for k in range(e, e + 4):
        P[k] = _batch_pow(tbl, q, P[k - 1], p)
    return P


def _check_lemma2(units: Units, params, seed):
    # (1 - g)^{p^l} against (1 - g^{p^s})^{p^{l-s}}: column j of P[l]
    # against the column of g_j^{p^s} in P[l - s].
    rs = units.rs
    p, e = rs.p, rs.e
    P = _lemma2_powers(units)
    maps = [power_indices(rs.group, p ** s) for s in range(5)]  # s <= l - e + 1 <= 4
    cases = 0
    violations = 0
    for l in range(e, e + 4):
        for s in range(0, l - e + 2):
            rhs = P[l - s][:, maps[s]]
            cases += rs.size
            violations += int(np.count_nonzero(~(P[l] == rhs).all(axis=0)))
    return (
        {"cases": cases, "violations": 0},
        {"cases": cases, "violations": violations},
    )


def _lemma9_candidates(rs: RingSpec, seed: int) -> np.ndarray:
    """All nonzero y for small instances, else 1000 seeded random ones; one
    per column."""
    q, n = rs.modulus, rs.size
    if rs.size <= 4 and rs.e <= 3:
        ys = np.empty((n, q ** n - 1), dtype=np.int64)
        return radix_decode(np.arange(1, q ** n, dtype=np.int64), (q,) * n, ys)
    rng = np.random.default_rng(seed)
    ys = rng.integers(0, q, size=(1000, n), dtype=np.int64)
    while True:
        zero = ~ys.any(axis=1)
        if not zero.any():
            return np.ascontiguousarray(ys.T)
        ys[zero] = rng.integers(0, q, size=(int(zero.sum()), n), dtype=np.int64)


def _lemma9_units(units: Units, d: int, seed: int):
    """(ys, exceptional, measured) for the units 1 + p^d y.

    ``exceptional`` marks the rows where the closed form is silent (p = 2,
    d = 1, and both y and y^2 have an odd coefficient); ``measured`` holds
    each unit's order exponent, or -1 when it exceeds p^{e-d}.
    """
    rs = units.rs
    p, q = rs.p, rs.modulus
    ys = _lemma9_candidates(rs, seed)
    exceptional = np.zeros(ys.shape[1], dtype=bool)
    if p == 2 and d == 1:
        odd_square = (_batch_mul(units.table, q, ys, ys) % 2 == 1).any(axis=0)
        exceptional = odd_square & (ys % 2 == 1).any(axis=0)
    block = mod_in_place(p ** d * ys + _identity(rs)[:, None], q)
    return ys, exceptional, _batch_order_exps(units, block, rs.e - d)


def _min_valuations(ys: np.ndarray, p: int, e: int) -> np.ndarray:
    """Per column, the least p-adic valuation of its coefficients in
    [0, p^e), a zero coefficient counting as e: gcd(column, p^e) is exactly
    p^that, located among p^0, ..., p^e."""
    q = p ** e
    powers = np.array([p ** i for i in range(e + 1)], dtype=np.int64)
    return np.searchsorted(powers, np.gcd(np.gcd.reduce(ys, axis=0), q))


def _check_lemma9(units: Units, params, seed):
    d = int(params["d"])
    p, e = units.rs.p, units.rs.e
    ys, exceptional, measured = _lemma9_units(units, d, seed)

    s = _min_valuations(ys, p, e)
    predicted_exp = np.maximum(e - d - s, 0)

    bound_violations = int((measured < 0).sum())
    mismatches = int(
        (~exceptional & (measured >= 0) & (measured != predicted_exp)).sum()
    )
    base = {"cases": ys.shape[1], "exceptional": int(exceptional.sum())}
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
    _, exceptional, measured = _lemma9_units(Units(rs), d, seed)
    measured = measured[exceptional]
    if (measured < 0).any():
        raise ArithmeticError("exceptional unit order exceeded p^{e-d}")
    return OrderHistogram(tuple(enumerate(np.bincount(measured).tolist())))


# ---------------------------------------------------------------------------
# The check registry: the one statement of what each check needs.


@dataclass(frozen=True)
class Check:
    """A verification check and the instances it applies to.

    ``run(units, params, seed)`` returns the (predicted, observed) pair.
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
    rs_or_units: RingSpec | Units,
    params: Optional[dict] = None,
    *,
    seed: int = 0,
) -> VerificationReport:
    """Run one named check; verdict is exact predicted == observed.  A bare
    RingSpec is checked through a one-shot Units."""
    units = rs_or_units if isinstance(rs_or_units, Units) else Units(rs_or_units)
    rs = units.rs
    spec = CHECKS.get(check)
    if spec is None:
        raise ValueError(f"unknown check id {check!r}; known: {', '.join(CHECK_IDS)}")
    spec.require(rs, params or {})
    derived = _derive_seed(seed, check, rs, params)
    start = time.perf_counter()
    predicted, observed = spec.run(units, params or {}, derived)
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


def unplanned_reason(check: str, rs: RingSpec, budget: int) -> Optional[str]:
    """Why plan_checks plans no case of check on rs, or None if it does."""
    c = CHECKS[check]
    if rs.size > DENSE_TABLE_CAP:
        return f"|G| = {rs.size} > {DENSE_TABLE_CAP}, the dense table cap"
    if c.cap and not (rs.size <= c.cap[0] and rs.e <= c.cap[1]):
        return f"capped at |G| <= {c.cap[0]}, e <= {c.cap[1]}"
    if c.enumerative and (over := _over_budget(rs, budget)):
        return over
    return None if c.plans(rs) else f"requires {c.requirement}"


def plan_checks(
    rs: RingSpec,
    enabled: Optional[set[str]] = None,
    budget: int = DEFAULT_BUDGET,
) -> list[tuple[str, Optional[dict]]]:
    """Applicable (check, params) pairs for an instance, in report order.

    Every check reads the |G| x |G| gather table, so none is planned past
    the dense table cap.  Checks that enumerate V are planned only when |V|
    fits the budget and stays below 2^31; the formula-driven checks
    (lemma2, lemma3, lemma9) have no such limit.
    """
    return [
        (c.id, params)
        for c in CHECKS.values()
        if (enabled is None or c.id in enabled) and not unplanned_reason(c.id, rs, budget)
        for params in c.plans(rs)
    ]
