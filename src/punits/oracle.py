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
base ring's own phi.  The order census reads the size of the kernel of
phi^{m+1} as the number of base indices that chi^m sends to a
representative ``one`` marks, each standing for |K| = p^{|G|-1} units.
Those counts are pushed forward along chi, restricted at each step to
chi^m's image, which only shrinks (``_image_counts``): pure counting, no
fact about V.  The torsion checks (theorem1, lemma4) decode only the
representatives of V[p], in one call (``Units.p_torsion``); besides the
map, lemma5's ``Units.scan`` is the only pass over blocks of V.  The
oracle does not rely on the lemma it verifies: each e >= 2 instance first powers the
p^{|G|-1} elements of K, and if any k^p != 1 the base is the ring itself
(as at e = 1), where ``chi`` is phi and each unit stands for itself.  At
e = 1 (characteristic p) phi is (sum a_g g)^p = sum a_g g^p: a scatter-add.

The map is built one contiguous block of representatives at a time, in
order, with vectorized numpy arithmetic that is bit-identical to the
scalar reference convolution.  The batched product is one gathered
einsum, reduced mod q = p^e once (``pgroup.mod_in_place``), when its |G|
products per entry fit one int64 sum and the gathered operand fits
``_BLOCK_ENTRIES``; otherwise it adds one row at a time and reduces only
every ``ring._rows_per_reduction(q)`` rows.  The checks of an instance
share the map through one ``Units`` object and it is freed with that
object.  The oracle computes one instance at a time; ``cli.run_suite``
may run instances side by side, in separate processes, each of which
keeps one power map alive at a time.

The formula checks (lemma2, lemma3, lemma9) enumerate no units: each
powers one block of columns (1 - g for every g in G, or g - 1) with the
same batched kernels, and reads the group's own power map g -> g^m by
index arithmetic (``pgroup.power_indices``).  lemma9 is planned once per
d = 1 ... e-1 but computed once per instance and base seed
(``Units.lemma9``): each d draws its candidates y with its own derived
seed, and the units 1 + p^d y of every d are stacked in ascending d into
blocks of at most ``_BLOCK_ENTRIES`` entries (one block on small rings)
and powered together, a column stopping at its bound p^{e-d}.  The least valuation s of each y is
read off by divisibility tests.  The first d's report therefore carries
the pass's wall time.
"""

from __future__ import annotations

import functools
import itertools
import time
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from . import theory
from .pgroup import (
    DENSE_TABLE_CAP,
    GroupSpec,
    checked_int,
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

# lemma9 draws this many random candidates y per d on rings too large to
# try every y.
_LEMMA9_SAMPLES = 1000

# The most entries a batched kernel builds in one array: one d's lemma9
# block at the dense-table cap, |G| rows of _LEMMA9_SAMPLES columns.  It
# bounds the gathered operand of ``_batch_mul``'s one-product path and the
# lemma9 block of stacked d's (``_lemma9_chunks``).
_BLOCK_ENTRIES = DENSE_TABLE_CAP * _LEMMA9_SAMPLES

# Seeds are mixed into a 32-bit CRC (``_derive_seed``); a wider range
# would alias.
SEED_MAX = (1 << 32) - 1

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
    # product is below (q-1)^2.  When all |G| of them fit one int64 sum and
    # the gathered operand y[tbl] holds at most _BLOCK_ENTRIES entries, one
    # einsum forms every sum; otherwise the rows are added one at a time and
    # the sum reduced after every k rows and at the end, k =
    # _rows_per_reduction(q) keeping it in int64.
    n, k = len(tbl), _rows_per_reduction(q)
    if n <= k and n * y.size <= _BLOCK_ENTRIES:
        return mod_in_place(np.einsum("ic,imc->mc", x, y[tbl]), q)
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


def _batch_order_exps(units: Units, block: np.ndarray, bounds) -> np.ndarray:
    """Per column j, the least m <= bounds[j] with u^{p^m} = 1, or -1.

    ``bounds`` is one int for every column or one per column, and must not
    increase along the block: the columns still to power after m steps,
    those with a bound above m, are then a prefix, which is powered as a
    view with no copy.  A column at 1 inside that prefix stays at 1 and is
    powered with the rest, as compacting it out would cost more numpy
    calls than it saves."""
    tbl, q, p = units.table, units.rs.modulus, units.rs.p
    bounds = np.broadcast_to(bounds, block.shape[1:])
    ident = _identity(units.rs)
    orders = np.where(_matches(block, ident), 0, -1)
    m = 0
    while (live := int(np.count_nonzero(bounds > m))) and (orders[:live] < 0).any():
        m += 1
        block = _batch_pow(tbl, q, block[:, :live], p)
        prefix = orders[:live]
        prefix[(prefix < 0) & _matches(block, ident)] = m
    return orders


def _blocks(total: int):
    """The index ranges [lo, hi) of _BLOCK items covering [0, total), in order."""
    return ((lo, min(lo + _BLOCK, total)) for lo in range(0, total, _BLOCK))


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
    check, the power map and one seed's lemma9 pass are built on first use
    and live as long as the object.  A ``one_shot`` Units serves a single
    check (``verify_check`` on a bare RingSpec), so its lemma9 pass covers
    only the d asked for."""

    rs: RingSpec
    budget: int = DEFAULT_BUDGET
    one_shot: bool = False
    _lemma9: dict = field(default_factory=dict, init=False, repr=False)

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
        for lo, hi in _blocks(len(one)):
            reps = _units_at(base, np.arange(lo, hi, dtype=np.int64), q)
            if rs.e == 1:  # characteristic p: (sum a_g g)^p = sum a_g g^p
                powers = np.zeros_like(reps)
                np.add.at(powers, power_indices(rs.group, rs.p), reps)
                mod_in_place(powers, q)
            else:
                powers = _batch_pow(tbl, q, reps, rs.p)
            one[lo:hi] = _matches(powers, ident)
            chi[lo:hi] = radix_encode(mod_in_place(powers[:-1], base.modulus), radices)
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
        count returns a fixed-length sequence of counts."""
        rs = self.rs
        _require_budget(rs, self.budget)
        parts = [
            count(_units_at(rs, np.arange(lo, hi, dtype=np.int64)))
            for lo, hi in _blocks(unit_count(rs))
        ]
        return np.sum(parts, axis=0).tolist()

    def census(self) -> OrderHistogram:
        """Exact-order census of V from the sizes of the kernels of phi^m.

        u^{p^{m+1}} = 1 iff phi(u)^{p^m} = 1, and for m >= 1 that depends on
        phi(u) only through its reduction to the base, so the kernel of
        phi^{m+1} has, per representative, as many units as ``one`` marks
        among the base indices that chi^m sends there (``_image_counts``).
        """
        pm, total = self.power_map, unit_count(self.rs)
        sizes = [1, pm.mult * int(np.count_nonzero(pm.one))]
        counts = _image_counts(pm.chi)
        while sizes[-1] < total and len(sizes) <= _order_exp_bound(self.rs):
            sup, w = next(counts)
            sizes.append(pm.mult * int(w[pm.one[sup]].sum()))
        if sizes[-1] < total:
            raise ArithmeticError("unit order exceeded the p-torsion bound")
        return OrderHistogram(tuple(enumerate(np.diff(sizes, prepend=0))))

    def lemma9(self, seed: int, d: int) -> Lemma9Units:
        """lemma9's units for d, drawn with the seed the check derives from
        the base ``seed``.  The first call for a seed runs one pass over the
        candidates of every d = 1 ... e-1 (only d's on a one-shot Units),
        and the object keeps that one pass."""
        if (seed, d) not in self._lemma9:
            ds = [d] if self.one_shot else range(1, self.rs.e)
            seeds = {k: _derive_seed(seed, "lemma9", self.rs, {"d": k}) for k in ds}
            self._lemma9 = {(seed, k): v for k, v in _lemma9_pass(self, seeds).items()}
        return self._lemma9[(seed, d)]


def _image_counts(chi: np.ndarray):
    """Yield (sup, w) for m = 1, 2, ...: sup is the image of chi^m and w[k]
    the number of indices that chi^m sends to sup[k], in float64, exact as
    every count is below 2^31.

    Counts are pushed forward along chi restricted to the support, which
    only shrinks: chi(chi^m(X)) is inside chi^m(X) for any map chi of X to
    itself.  The full bincount is reused as the index array that renumbers
    the support."""
    pos = np.bincount(chi, minlength=len(chi))
    sup = np.flatnonzero(pos)
    w = pos[sup]
    while True:
        yield sup, w
        pos[sup] = np.arange(len(sup))
        w = np.bincount(pos[chi[sup]], weights=w, minlength=len(sup))
        keep = np.flatnonzero(w)
        sup, w = sup[keep], w[keep]


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


def order_histogram(rs: RingSpec, *, budget: int = DEFAULT_BUDGET) -> OrderHistogram:
    """Exact-order census of V (see ``Units.census``)."""
    return Units(rs, budget).census()


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
    torsion[0] -= 1  # u - 1, in place: the block is this check's own
    outside = int(np.count_nonzero(~H.contains(torsion)))

    predicted = {"unit_count": rs.p ** H.size_exp, "outside_ideal": 0}
    observed = {"unit_count": torsion.shape[1], "outside_ideal": outside}
    return predicted, observed


def _check_lemma5(units: Units, params, seed):
    rs = units.rs
    p = rs.p

    nu = nilpotency_index(rs)
    forms = [ideal_power_form(rs, m) for m in range(1, nu + 1)]  # w^nu = 0
    size_exps = [H.size_exp for H in forms]

    def scan(block):
        # 1 + w^{m+1} lies in 1 + w^m, so only the members of one layer
        # are tested against the next.  A layer that keeps every column
        # (1 + w keeps all of V) is not copied.
        block[0] -= 1  # u - 1, in place: contains reduces it mod q
        vecs, counts = block, []
        for H in forms:
            member = H.contains(vecs)
            if not member.all():
                vecs = vecs[:, member]
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
        out = np.empty((group.k, len(indices)), dtype=np.int64)
        return radix_decode(indices, group.radices, out).T.tolist()

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


def _lemma9_exhaustive(rs: RingSpec) -> bool:
    """Whether lemma9 tries every nonzero y, not _LEMMA9_SAMPLES random ones."""
    return rs.size <= 4 and rs.e <= 3


def _lemma9_candidates(rs: RingSpec, seed: int) -> np.ndarray:
    """All nonzero y for small instances, else _LEMMA9_SAMPLES seeded random
    ones; one per column."""
    q, n = rs.modulus, rs.size
    if _lemma9_exhaustive(rs):
        ys = np.empty((n, q ** n - 1), dtype=np.int64)
        return radix_decode(np.arange(1, q ** n, dtype=np.int64), (q,) * n, ys)
    rng = np.random.default_rng(seed)
    ys = rng.integers(0, q, size=(_LEMMA9_SAMPLES, n), dtype=np.int64)
    while True:
        zero = ~ys.any(axis=1)
        if not zero.any():
            # Row-major, as the stacked block inherits this layout and its
            # reductions over rows (_matches) are many times slower on a
            # column-major one.
            return np.ascontiguousarray(ys.T)
        ys[zero] = rng.integers(0, q, size=(int(zero.sum()), n), dtype=np.int64)


def _lemma9_chunks(rs: RingSpec, ds) -> list[list[int]]:
    """The d's of ds, ascending, in runs whose stacked lemma9 block (|G|
    rows, one column per candidate) holds at most _BLOCK_ENTRIES entries.
    One d alone always fits: |G| <= DENSE_TABLE_CAP rows of _LEMMA9_SAMPLES
    columns, or at most 4 rows when every y is tried."""
    cols = rs.modulus ** rs.size - 1 if _lemma9_exhaustive(rs) else _LEMMA9_SAMPLES
    per_chunk = max(1, _BLOCK_ENTRIES // (rs.size * cols))
    ds = sorted(ds)
    return [ds[i : i + per_chunk] for i in range(0, len(ds), per_chunk)]


@dataclass(frozen=True, eq=False)
class Lemma9Units:
    """lemma9's units 1 + p^d y for one d, one entry per candidate y.

    ``s`` is the least valuation of y's coefficients; ``exceptional`` marks
    where the closed form is silent (p = 2, d = 1, s = 0 and y^2 has an odd
    coefficient); ``measured`` is each unit's order exponent, or -1 when it
    exceeds p^{e-d}.
    """

    s: np.ndarray
    exceptional: np.ndarray
    measured: np.ndarray


def _lemma9_pass(units: Units, seeds: dict[int, int]) -> dict[int, Lemma9Units]:
    """lemma9's units for every d in ``seeds`` (d -> that d's derived seed).

    The candidates of a run of d's (``_lemma9_chunks``) are stacked in
    ascending d and powered as one block, each column up to its own bound
    e - d, so the columns still live after m steps are a prefix."""
    rs, out = units.rs, {}
    p, e, q = rs.p, rs.e, rs.modulus
    for ds in _lemma9_chunks(rs, seeds):
        ys = np.concatenate([_lemma9_candidates(rs, seeds[d]) for d in ds], axis=1)
        w = ys.shape[1] // len(ds)  # every d draws as many candidates
        col_d = np.repeat(np.array(ds, dtype=np.int64), w)
        block = ys * p ** col_d
        block[0] += 1
        measured = _batch_order_exps(units, mod_in_place(block, q), e - col_d)
        del block
        s = _min_valuations(ys, p, e)
        exceptional = np.zeros(len(s), dtype=bool)
        if p == 2 and ds[0] == 1:
            y1 = ys[:, :w]
            odd_square = (_batch_mul(units.table, q, y1, y1) % 2 == 1).any(axis=0)
            exceptional[:w] = odd_square & (s[:w] == 0)
        for i, d in enumerate(ds):
            cut = slice(i * w, (i + 1) * w)
            out[d] = Lemma9Units(s[cut], exceptional[cut], measured[cut])
    return out


def _min_valuations(ys: np.ndarray, p: int, e: int) -> np.ndarray:
    """Per column, the least p-adic valuation of its coefficients in
    [0, p^e), a zero coefficient counting as e: the number of t = 1 ... e
    with p^t dividing every coefficient.  Only the columns p^{t-1} divides
    are tested against p^t."""
    s = np.zeros(ys.shape[1], dtype=np.int64)
    cols = np.arange(ys.shape[1])
    for t in range(1, e + 1):
        divides = (ys % p ** t == 0).all(axis=0)
        cols, ys = cols.compress(divides), ys.compress(divides, axis=1)
        if not len(cols):
            break
        s[cols] += 1
    return s


def _check_lemma9(units: Units, params, seed):
    d = int(params["d"])
    lem = units.lemma9(seed, d)
    measured, exceptional = lem.measured, lem.exceptional
    predicted_exp = np.maximum(units.rs.e - d - lem.s, 0)

    bound_violations = int((measured < 0).sum())
    mismatches = int(
        (~exceptional & (measured >= 0) & (measured != predicted_exp)).sum()
    )
    base = {"cases": len(measured), "exceptional": int(exceptional.sum())}
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
    coefficient; this census records what those orders actually are, on
    the candidates the lemma9 check draws for d with the same seed
    (exhaustive for |G| <= 4, e <= 3, else seeded random).  Purely
    observational: no closed form is asserted, and the distribution is
    empty whenever the exceptional condition cannot occur.
    """
    CHECKS["lemma9"].require(rs, {"d": d})
    lem = Units(rs, one_shot=True).lemma9(seed, d)
    measured = lem.measured[lem.exceptional]
    if (measured < 0).any():
        raise ArithmeticError("exceptional unit order exceeded p^{e-d}")
    return OrderHistogram(tuple(enumerate(np.bincount(measured).tolist())))


# ---------------------------------------------------------------------------
# The check registry: the one statement of what each check needs.


@dataclass(frozen=True)
class Check:
    """A verification check and the instances it applies to.

    ``run(units, params, seed)`` returns the (predicted, observed) pair;
    ``seed`` is the base seed, from which a check that draws at random
    derives its own (``_derive_seed``).
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
    """The check's own seed: a 32-bit CRC of its case xor the base seed,
    which is refused outside [0, SEED_MAX] rather than wrapped.  Parameters
    are read as ints, so a numpy integer d derives what lemma9's pass draws
    with."""
    case = sorted((k, int(v)) for k, v in (params or {}).items())
    desc = f"{check}|{rs.to_text()}|{case}"
    return zlib.crc32(desc.encode()) ^ checked_int(seed, "seed", 0, SEED_MAX)


def verify_check(
    check: str,
    rs_or_units: RingSpec | Units,
    params: Optional[dict] = None,
    *,
    seed: int = 0,
) -> VerificationReport:
    """Run one named check; verdict is exact predicted == observed.  A bare
    RingSpec is checked through a one-shot Units.  ``seed`` must lie in
    [0, SEED_MAX]; the report carries the seed derived from it."""
    if isinstance(rs_or_units, Units):
        units = rs_or_units
    else:
        units = Units(rs_or_units, one_shot=True)
    rs = units.rs
    spec = CHECKS.get(check)
    if spec is None:
        raise ValueError(f"unknown check id {check!r}; known: {', '.join(CHECK_IDS)}")
    spec.require(rs, params or {})
    derived = _derive_seed(seed, check, rs, params)
    start = time.perf_counter()
    predicted, observed = spec.run(units, params or {}, seed)
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
