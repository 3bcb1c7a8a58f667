"""Brute-force ground truth for the closed forms.

Enumerates all of V(Z_{p^e}G) = 1 + w for desk-scale instances, recovers
the abelian invariants from the order census, and verifies each closed
form against the theory module.  A unit's enumeration index is the
base-p^e number formed by its first |G|-1 coefficients (the last one is
forced by augmentation 1), so V is a range of integers.  That numbering
and G's own are read through ``pgroup``'s index codec.

V is abelian, so the p-th power map phi(u) = u^p is an endomorphism, and
it factors through reduction mod p^{e-1} whenever the kernel K of that
reduction has exponent p: phi(uk) = phi(u) phi(k) = phi(u) for k in K.
Lemma 6 says it does for e >= 2, but the oracle does not rely on the lemma
it verifies.  One rule (``Units._quotient``) reduces a ring mod p^{e-1}
only after powering the p^{|G|-1} elements of K and finding every k^p = 1,
and else keeps the ring (as at e = 1), and it is applied twice.  Applied
to V it gives the base ring, V(Z_{p^{e-1}}G) or V itself, whose units
index the representatives: rep i is base unit i with its last coefficient
lifted mod p^e, standing for ``mult`` = |V| / |base| units.  Applied to
the base it gives the map's domain, whose units index ``chi``: chi is
constant on the fibres of the reduction of the base to the domain, so it
is found by powering each domain unit, lifted mod p^e, once, and read at
base index i as chi[fold(i)], fold reducing each digit of i to the
domain's modulus; chi(i) is the base index of rep_i^p reduced to the base,
the base ring's own phi.  ``one[i]`` says rep_i^p = 1, and rep^p = 1
forces chi(rep) = 1, so ``one`` is found by powering only the base indices
over ker chi: the fibres of the fold over the domain units that chi sends
to 1, one index each when the domain is the base.  At e = 1
(characteristic p) phi is (sum a_g g)^p = sum a_g g^p (``_induced``).  The
order census reads the size of the kernel of phi^{m+1} as the number of
base indices that chi^m sends to a representative ``one`` marks, each
standing for ``mult`` units.  chi is the p-th power map of an abelian
group, so chi^m is an endomorphism and each of its fibres holds
N / |im chi^m| of the N base indices: the count is that fibre size times
the number of elements of im chi^m that ``one`` marks.  The images come
from one N-byte mask, im chi^{m+1} = chi(im chi^m) being cleared and set
inside im chi^m, which only shrinks, and only the current image is folded
(``_image_sets``).  The census checks |ker chi| |im chi| = N once and
raises ArithmeticError if that fails.  The torsion checks (theorem1,
lemma4) decode only the representatives of V[p], in one call
(``Units.p_torsion``), and the map is the only pass over V: lemma5 counts
its layers by meeting in the middle, from about sqrt|V| units on each of
two sides (``_layer_sizes``).

The map is built one contiguous block of representatives at a time, in
order, with vectorized numpy arithmetic that is bit-identical to the
scalar reference convolution.  Every batched kernel works within one
budget of ``pgroup._BLOCK_ENTRIES`` entries: a block has |G| rows and as
many columns as fit it (``pgroup._blocks``), for the map, the kernel K,
lemma5's two halves and lemma2's and lemma9's powers alike, and ``_blocks``
is the one division of that budget, which zpelin's pass over the columns
g - 1 shares.  The batched product is one gathered einsum, reduced mod
q = p^e once (``pgroup.mod_in_place``), when its |G| products
per entry fit one int64 sum and the gathered operand, |G| times the
block, fits the budget; otherwise it adds one row at a time and reduces
only every ``ring._rows_per_reduction(q)`` rows.  The checks of an instance
share the map through one ``Units`` object and it is freed with that
object.  The oracle computes one instance at a time; ``cli.run_suite``
may run instances side by side, in separate processes, each of which
keeps one power map alive at a time.

lemma4 runs at e = 1, where F_pG is the truncated polynomial ring in
x_j = a_j - 1 (Jennings): ``zpelin._jennings`` writes each u - 1 of V[p] in
its monomial basis, on G's digit grid refined to base-p digits, and u - 1
lies in I(G[p]) iff it vanishes on the box where every exponent i_j is
below p^{lambda_j - 1} (``_outside_socle_ideal``).  lemma4 predicts |V[p]|
as p to ``theory.p_rank_vzp``, |G| - |G^p|.

The formula checks (lemma2, lemma3, lemma9) enumerate no units.  lemma3
reads its observed set G ∩ (1 + w^n) from ``zpelin.ideal_power_members``:
at e = 1 off the least degree of each g - 1 in the same monomial basis,
with no Howell form; at e >= 2 off the ideal chain of each cyclic factor,
which tests the columns g - 1 level by level, only those that passed the
level before, and none once g = 1 alone is left, and for k >= 2 factors as
the product of the factors' sets.  Both of lemma3's sets are listed from
G's one coordinate table (``pgroup._coordinates``), its predicted set
G^{p^a} kept as an index array per (G, a) (``_agemo_indices``).  lemma2
reads the columns 1 - g for every g in G with the same batched kernels,
and the group's own power map
g -> g^{p^s} off its digit grid (shape ``group.radices``): on a factor
C_{p^l} it sends the digit t p^{l-k} + c, k = min(s, l), to p^k c, so
G^{p^s} is the sub-grid of every p^k-th digit (``_agemo``; lemma3's
predicted set).  G is abelian, so
g -> g^{p^s} induces a ring endomorphism of Z_qG (``_induced``, also the
power map at e = 1), which sums each column over the digits t and writes
the sums into that sub-grid, with no index array.  lemma2 compares each
column of (1 - g)^{p^l} with the image of its own column of
(1 - g)^{p^{l-s}} under g -> g^{p^s}, and so powers its columns one block
at a time.  lemma9 is planned once per d = 1 ... e-1 but computed once per
chunk of d's and base seed (``Units.lemma9``): a chunk is a run of as
many d's, ascending, as fit the budget (a d whose units alone exceed it
stands alone), and the first call for a d runs the pass over the chunk
that holds it.  Each d draws
its candidates y with its own derived seed, and the candidates of the
chunk are stacked in ascending d.  Each column block of the stack is then
done in one step: the least valuation s of each y, read off by
divisibility tests, its predicted order, and its unit 1 + p^d y, powered
up to its bound p^{e-d}.  Only the draw, |G| x 1000 candidates, lies
outside the working set.  The first d of each chunk carries that chunk's
wall time.  Every unit is compared with its predicted order: at p = 2,
d = 1 the exceptional units (s = 0, y^2 with an odd coefficient) are
predicted from the valuation of y + y^2, as (1 + 2y)^2 = 1 + 4(y + y^2),
and y^2 is formed for the block's d = 1 columns alone.
"""

from __future__ import annotations

import functools
import itertools
import time
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from . import pgroup, theory
from .pgroup import (
    DENSE_TABLE_CAP,
    GroupSpec,
    _blocks,
    _coordinates,
    checked_int,
    checked_prime,
    count_pairs,
    gather_table,
    mod_in_place,
    over_table_cap,
    p_valuation,
    radix_decode,
    radix_encode,
    socle_indices,
    table_order,
)
from .ring import RingElement, RingSpec, _order_exp_bound, _rows_per_reduction
from .zpelin import (
    _jennings,
    howell_form,  # noqa: F401  re-exported; perfbench's tracer self-test wraps this binding
    ideal_power_form,
    ideal_power_members,
    nilpotency_index,
)

DEFAULT_BUDGET = 1 << 22

# lemma9 draws this many random candidates y per d on rings too large to
# try every y.
_LEMMA9_SAMPLES = 1000

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
    return rs.p ** theory.v_order_exp(rs.group, rs.e)


def _over_budget(rs: RingSpec, budget: int) -> Optional[str]:
    """Why V cannot be enumerated under the budget, an int >= 1, or None if
    it can."""
    budget = checked_int(budget, "budget", 1)
    exp = theory.v_order_exp(rs.group, rs.e)
    n, head = rs.p ** exp, f"|V| = {rs.p}^{exp} exceeds"
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
    if n <= k and n * y.size <= pgroup._BLOCK_ENTRIES:
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


def _agemo(group: GroupSpec, s: int) -> tuple[slice, ...]:
    """G^{p^s} as a sub-grid of G's digit grid (shape ``group.radices``):
    on a factor C_{p^l}, g -> g^{p^s} sends the digit a = t p^{l-k} + c,
    k = min(s, l), to p^k c, so its image is every p^k-th digit."""
    return tuple(slice(None, None, group.p ** min(s, l)) for l in group.lambdas)


def _induced(x: np.ndarray, group: GroupSpec, s: int, q: int) -> np.ndarray:
    """The images of x's columns under the ring endomorphism of Z_qG that
    g -> g^{p^s} induces (G abelian), reduced mod q: each axis of G's digit
    grid is split into (p^k, p^{l-k}) as in ``_agemo``, and the sums over
    its p^k axes are written into that sub-grid of a zero block."""
    split = [n for l in group.lambdas for n in (group.p ** min(s, l), group.p ** max(l - s, 0))]
    out = np.zeros((*group.radices, x.shape[1]), dtype=x.dtype)
    image = out[_agemo(group, s)]
    x.reshape(*split, x.shape[1]).sum(axis=tuple(range(0, len(split), 2)), out=image)
    mod_in_place(image, q)
    return out.reshape(x.shape)


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


def _redigit(idx: np.ndarray, n: int, a: int, b: int) -> np.ndarray:
    """Each index's n base-``a`` digits, each reduced mod min(a, b), read as
    a base-``b`` index (a and b powers of one prime).  It holds at most two
    int64 arrays of len(idx) at once: no digit rows are formed."""
    low = min(a, b)
    out = mod_in_place(idx.astype(np.int64), low)
    for k in range(1, n):
        digit = mod_in_place(idx // a**k, low)
        digit *= b**k
        out += digit
    return out


@dataclass(frozen=True, eq=False)
class PowerMap:
    """u -> u^p over the units of ``base``, the representatives: rep i is
    base unit i lifted to augmentation 1 mod p^e, and stands for ``mult``
    units of V.  ``one[i]`` says rep_i^p = 1.  chi (int32) is indexed by
    the units of ``domain``, the base's quotient by the one rule
    (``Units._quotient``), ``base`` itself when that keeps it:
    ``chi[fold(i)]`` is the base index of rep_i^p reduced to ``base``.
    Both arrays are read-only."""

    base: RingSpec
    mult: int
    one: np.ndarray
    chi: np.ndarray
    domain: RingSpec

    def fold(self, idx: np.ndarray) -> np.ndarray:
        """The index in ``domain`` of the reduction of each base index."""
        return _redigit(idx, self.base.size - 1, self.base.modulus, self.domain.modulus)


def _kernel_check(table: np.ndarray, rs: RingSpec) -> tuple[int, int]:
    """(|K|, #{k in K : k^p != 1}) for the kernel K = 1 + p^{e-1} w of
    reduction mod p^{e-1} of ``rs``, e >= 2: one power of each
    k = 1 + p^{e-1}(u - 1), u running over the units of Z_p G, block by
    block."""
    p, q, ident = rs.p, rs.modulus, _identity(rs)
    size, violations = p ** (rs.size - 1), 0
    for lo, hi in _blocks(size, rs.size):
        u = _units_at(RingSpec(rs.group, 1), np.arange(lo, hi, dtype=np.int64))
        k = mod_in_place(p ** (rs.e - 1) * (u - ident[:, None]) + ident[:, None], q)
        kp = _batch_pow(table, q, k, p)
        violations += int(np.count_nonzero(~_matches(kp, ident)))
    return size, violations


@dataclass(eq=False)
class Units:
    """V(Z_{p^e}G) of one instance: the gather table, the check of V's
    reduction kernel, the power map and lemma9's passes, one per chunk of
    d's asked for under one seed, are built on first use and live as long
    as the object (a new lemma9 seed drops the passes of the last one)."""

    rs: RingSpec
    budget: int = DEFAULT_BUDGET
    _lemma9: dict = field(default_factory=dict, init=False, repr=False)

    @functools.cached_property
    def table(self) -> np.ndarray:
        """The gather table of G (see ``pgroup.gather_table``)."""
        return gather_table(self.rs.group)

    @functools.cached_property
    def kernel(self) -> tuple[int, int]:
        """(|K|, #{k in K : k^p != 1}) for the kernel K of V -> V(Z_{p^{e-1}}G),
        e >= 2 (``_kernel_check``)."""
        _require_budget(self.rs, self.budget)
        return _kernel_check(self.table, self.rs)

    def _quotient(self, ring: RingSpec) -> RingSpec:
        """``ring`` reduced mod p^{e-1} when e >= 2 and the kernel of that
        reduction has exponent p, else ``ring`` itself: the kernel is V's
        own, ``kernel``, or checked afresh for any other ring."""
        if ring.e == 1:
            return ring
        kernel = self.kernel if ring == self.rs else _kernel_check(self.table, ring)
        return RingSpec(ring.group, ring.e - 1) if kernel[1] == 0 else ring

    @functools.cached_property
    def power_map(self) -> PowerMap:
        """The power map over ``base`` = ``_quotient(rs)`` with chi over
        ``domain`` = ``_quotient(base)``.  |V| over the budget or at least
        2^31 is refused before anything is allocated.

        Each unit of the domain is powered once, lifted mod p^e, which
        gives chi on its fibre of base indices: they differ from it by a k
        in the base's kernel, and k^p = 1.  A rep with rep^p = 1 has
        chi(rep) = 1, so ``one`` is found by powering only the fibres over
        the domain units chi sends to 1."""
        _require_budget(self.rs, self.budget)
        rs, tbl = self.rs, self.table
        q, ident = rs.modulus, _identity(rs)
        base = self._quotient(rs)
        domain = self._quotient(base)

        def powers(ring: RingSpec, idx: np.ndarray) -> np.ndarray:
            reps = _units_at(ring, idx, q)
            if rs.e == 1:  # characteristic p: (sum a_g g)^p = sum a_g g^p
                return _induced(reps, rs.group, 1, q)
            return _batch_pow(tbl, q, reps, rs.p)

        chi = np.empty(unit_count(domain), dtype=np.int32)
        n, radices = rs.size - 1, (base.modulus,) * (rs.size - 1)
        for lo, hi in _blocks(len(chi), rs.size):
            pw = powers(domain, np.arange(lo, hi, dtype=np.int64))
            chi[lo:hi] = radix_encode(mod_in_place(pw[:-1], base.modulus), radices)
        # Entry t of the fibres over ker chi is s = t % fibre of the fibre
        # over domain index j = kernel[t // fibre]: j's digits plus low
        # times s's base-p digits, read in the base's radix (fibre = 1 and
        # s = 0 when the domain is the base).
        one = np.zeros(unit_count(base), dtype=bool)
        kernel = np.flatnonzero(chi == radix_encode(ident[:-1].tolist(), radices))
        fibre, low = len(one) // len(chi), domain.modulus
        for lo, hi in _blocks(len(kernel) * fibre, rs.size):
            t = np.arange(lo, hi, dtype=np.int64)
            idx = _redigit(kernel[t // fibre], n, low, base.modulus)
            idx += low * _redigit(t % fibre, n, rs.p, base.modulus)
            one[idx] = _matches(powers(base, idx), ident)
        one.flags.writeable = chi.flags.writeable = False
        return PowerMap(base, unit_count(rs) // len(one), one, chi, domain)

    def p_torsion(self) -> np.ndarray:
        """V[p]'s representatives in the power map, one per column, lifted
        mod p^e: decoded in one call and kept by no one.  Bounded: lemma4
        runs only at e = 1, where no budget admits |V| >= 2^31, so |V| <= 7^6;
        on theorem1's quotient path there are |G[p]| of them when Theorem 1
        holds, and never more than the power map's length."""
        pm = self.power_map
        return _units_at(pm.base, np.flatnonzero(pm.one), self.rs.modulus)

    def census(self) -> OrderHistogram:
        """Exact-order census of V from the sizes of the kernels of phi^m.

        u^{p^{m+1}} = 1 iff phi(u)^{p^m} = 1, and for m >= 1 that depends on
        phi(u) only through its reduction to the base, so the kernel of
        phi^{m+1} has ``mult`` units per base index that chi^m sends to a
        representative ``one`` marks.  chi^m is an endomorphism of the
        base's units, so each of its fibres has N / |im chi^m| indices, N
        the number of base indices (``len(one)``).  Folding chi onto the
        domain changes how it is stored, not the map: chi(i) is read as
        chi[fold(i)], on the current image only (``_image_sets``), so the
        fibres keep their sizes.  That rests on chi being an endomorphism,
        which is checked once: |ker chi| |im chi| must be N, else
        ArithmeticError; each domain index chi sends to 1 stands for
        N / len(chi) base indices of ker chi.
        """
        pm, total = self.power_map, unit_count(self.rs)
        n, radices = len(pm.one), (pm.base.modulus,) * (self.rs.size - 1)
        ident = radix_encode(_identity(pm.base)[:-1].tolist(), radices)
        kernel = n // len(pm.chi) * int(np.count_nonzero(pm.chi == ident))
        sizes = [1, pm.mult * int(np.count_nonzero(pm.one))]
        images = _image_sets(pm.chi, n, pm.fold)
        image = next(images)
        if kernel * len(image) != n:
            raise ArithmeticError(
                f"the power map is no endomorphism: |ker| {kernel} x |im| {len(image)} != {n}"
            )
        while sizes[-1] < total and len(sizes) <= _order_exp_bound(self.rs):
            fibre = pm.mult * (n // len(image))
            sizes.append(fibre * int(np.count_nonzero(pm.one[image])))
            image = next(images)
        if sizes[-1] < total:
            raise ArithmeticError("unit order exceeded the p-torsion bound")
        return OrderHistogram(tuple(enumerate(np.diff(sizes, prepend=0))))

    def lemma9(self, seed: int, d: int) -> Lemma9Units:
        """lemma9's units for d, 1 <= d < e (any other d is refused by the
        check's gate, ``Check.require``), drawn with the seed the check
        derives from the base ``seed``, which is read as an int in
        [0, SEED_MAX] on every call, cached or not.  The first call for d
        runs one pass over the chunk of d = 1 ... e-1 that holds it
        (``_lemma9_chunks``), so a suite's calls for every d run each chunk
        once; the object keeps every chunk it has run for this seed."""
        d = CHECKS["lemma9"].require(self.rs, {"d": d})["d"]
        seed = checked_int(seed, "seed", 0, SEED_MAX)
        if (seed, d) not in self._lemma9:
            (ds,) = [c for c in _lemma9_chunks(self.rs, range(1, self.rs.e)) if d in c]
            seeds = {k: _derive_seed(seed, "lemma9", self.rs, {"d": k}) for k in ds}
            kept = {key: v for key, v in self._lemma9.items() if key[0] == seed}
            self._lemma9 = kept | {(seed, k): v for k, v in _lemma9_pass(self, seeds).items()}
        return self._lemma9[(seed, d)]


def _image_sets(chi: np.ndarray, size: int, fold):
    """Yield im chi^m for m = 1, 2, ..., ascending indices, for any map
    i -> chi[fold(i)] of range(size) to itself; fold must be onto
    range(len(chi)).

    im chi^{m+1} = chi(im chi^m) lies inside im chi^m, so one mask of
    ``size`` bytes holds the image: it is cleared and set only on the
    current image, which only shrinks, and read back there.  The image is
    folded and read at chi in blocks (``_blocks``) of _BLOCK_ENTRIES // 8
    indices: the fold's two int64 arrays and chi's int32 read of a block
    stay below half the working set, and next to the image itself."""
    mask = np.zeros(size, dtype=bool)
    mask[chi] = True
    image = np.flatnonzero(mask)
    while True:
        yield image
        mask[image] = False
        for lo, hi in _blocks(len(image), 8):
            block = image[lo:hi]
            mask[chi[fold(block)]] = True
        image = image[mask[image]]


# ---------------------------------------------------------------------------
# Order census and invariant recovery.


@dataclass(frozen=True)
class OrderHistogram:
    """Counts of elements per exact order exponent: (k, #elements of order p^k),
    ints >= 0 (``pgroup.count_pairs``; never coerced), ascending in k, the
    counts of a repeated k added up and the zero counts dropped."""

    counts: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", count_pairs(self.counts, ("order exponent", "count")))

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
    p = checked_prime(p)
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
    p = checked_prime(p)
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


def _outside_socle_ideal(x: np.ndarray, group: GroupSpec) -> np.ndarray:
    """Which columns of x, elements of F_pG, lie outside I(G[p]), the ideal
    that h - 1, h in G[p], generate; x's entries may be overwritten.  G[p]
    has the basis h_j = a_j^{p^{lambda_j - 1}}, and in characteristic p
    h_j - 1 = x_j^{p^{lambda_j - 1}}, so I(G[p]) is spanned by the monomials
    with some i_j >= p^{lambda_j - 1}: a column lies in it iff its transform
    (``_jennings``) vanishes on the box where every i_j's leading digit is
    0."""
    split = [n for l in group.lambdas for n in (group.p, group.p ** (l - 1))]
    box = _jennings(x, group).reshape(*split, x.shape[1])[(0, slice(None)) * group.k]
    return box.reshape(-1, x.shape[1]).any(axis=0)


def _check_lemma4(units: Units, params, seed):
    # At e = 1 the power map's representatives are the units themselves, and
    # dim I(G[p]) = |G| - |G^p|, the p-rank of V(Z_p G).
    rs, torsion = units.rs, units.p_torsion()
    torsion[0] -= 1  # u - 1, in place: the block is this check's own
    outside = int(np.count_nonzero(_outside_socle_ideal(torsion, rs.group)))

    predicted = {"unit_count": rs.p ** theory.p_rank_vzp(rs.group), "outside_ideal": 0}
    observed = {"unit_count": torsion.shape[1], "outside_ideal": outside}
    return predicted, observed


def _layer_sizes(rs: RingSpec, forms) -> list[int]:
    """|1 + w^m| for the Howell forms of w^m in ``forms``, counted by
    meeting in the middle.

    With A = p^{floor(e(|G|-1)/2)}, every unit index is i = lo + A hi with
    lo < A.  A is a power of p, so lo and A hi share no base-p digit and no
    carry passes between them: the first |G| - 1 coefficients of u_i are
    those of u_lo plus those of u_{A hi}, and with the last ones, forced by
    augmentation 1, u_i - 1 = (u_lo - g_last) + (u_{A hi} - 1).  So u_i - 1
    lies in w^m iff u_lo - g_last and 1 - u_{A hi} lie in one coset of w^m,
    iff their canonical residues, read as keys, are equal
    (``HowellArray.coset_keys``; |V| < 2^31 and q <= 2^31 keep q^{|G|} below
    2^62).  |1 + w^m| is the number of pairs (lo, hi) with equal keys: the A
    keys of the lo side are sorted, and each key of the hi side counts its
    run among them.  Both sides are decoded block by block (``_blocks``),
    A + |V| / A <= (p + 1) sqrt(|V| / p) units in all, and only the lo
    side's keys are kept.
    """
    split = rs.p ** (theory.v_order_exp(rs.group, rs.e) // 2)
    lows = [np.empty(split, dtype=np.int64) for _ in forms]
    for lo, hi in _blocks(split, rs.size):
        vecs = _units_at(rs, np.arange(lo, hi, dtype=np.int64))
        vecs[-1] -= 1  # u_lo - g_last
        for keys, H in zip(lows, forms):
            keys[lo:hi] = H.coset_keys(vecs)
    for keys in lows:
        keys.sort()
    totals = [0] * len(forms)
    for lo, hi in _blocks(unit_count(rs) // split, rs.size):
        vecs = _units_at(rs, split * np.arange(lo, hi, dtype=np.int64))
        vecs *= -1
        vecs[0] += 1  # 1 - u_{A hi}
        for m, (keys, H) in enumerate(zip(lows, forms)):
            key = H.coset_keys(vecs)
            runs = np.searchsorted(keys, key, "right") - np.searchsorted(keys, key, "left")
            totals[m] += int(runs.sum())
    return totals


def _check_lemma5(units: Units, params, seed):
    rs = units.rs
    p = rs.p
    _require_budget(rs, units.budget)

    nu = nilpotency_index(rs)
    forms = [ideal_power_form(rs, m) for m in range(1, nu + 1)]  # w^nu = 0
    size_exps = [H.size_exp for H in forms]
    totals = _layer_sizes(rs, forms)

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


@functools.cache
def _agemo_indices(group: GroupSpec, s: int) -> np.ndarray:
    """The indices of G^{p^s} (``_agemo``), ascending and read-only."""
    out = np.arange(group.order()).reshape(group.radices)[_agemo(group, s)].ravel()
    out.flags.writeable = False
    return out


def _check_lemma3(units: Units, params, seed):
    rs, n = units.rs, params["n"]
    group = rs.group
    a = theory.dimension_subgroup(group, rs.e, n)
    predicted = _agemo_indices(group, min(a, group.exponent_exp))  # G^{p^a} = {1} past it
    observed = ideal_power_members(rs, n)
    coords = _coordinates(group)  # one gather and tolist per side
    return tuple({"elements": coords[:, side].T.tolist()} for side in (predicted, observed))


def _lemma2_powers(units: Units, lo: int, hi: int) -> dict[int, np.ndarray]:
    """P[k] for k = e-1 ... e+3, the exponents l - s that lemma2 reads, on
    the columns lo ... hi-1: column j is (1 - g_{lo+j})^{p^k}, so the column
    of g = 1 is 0."""
    rs, tbl = units.rs, units.table
    p, e, q = rs.p, rs.e, rs.modulus
    cols = mod_in_place(_identity(rs)[:, None] - np.eye(rs.size, hi - lo, -lo, dtype=np.int64), q)
    P = {e - 1: _batch_pow(tbl, q, cols, p ** (e - 1))}
    for k in range(e, e + 4):
        P[k] = _batch_pow(tbl, q, P[k - 1], p)
    return P


def _check_lemma2(units: Units, params, seed):
    # (1 - g)^{p^l} against (1 - g^{p^s})^{p^{l-s}}, which is the image of
    # (1 - g)^{p^{l-s}} under the ring endomorphism g -> g^{p^s} induces (G
    # is abelian): column j of P[l] against column j of P[l - s] mapped so,
    # one block of columns at a time.
    rs = units.rs
    e, q = rs.e, rs.modulus
    cases = 0
    violations = 0
    for lo, hi in _blocks(rs.size, rs.size):
        P = _lemma2_powers(units, lo, hi)
        for l in range(e, e + 4):
            for s in range(0, l - e + 2):
                rhs = _induced(P[l - s], rs.group, s, q)
                cases += hi - lo
                violations += int(np.count_nonzero(~(P[l] == rhs).all(axis=0)))
        del P, rhs  # before the next block's powers are built
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
            return ys.T
        ys[zero] = rng.integers(0, q, size=(int(zero.sum()), n), dtype=np.int64)


def _lemma9_chunks(rs: RingSpec, ds) -> list[list[int]]:
    """The d's of ds, ascending, in runs whose stacked lemma9 block (|G|
    rows, one column per candidate) holds at most _BLOCK_ENTRIES entries; a
    d whose block alone is larger runs by itself."""
    cols = rs.modulus ** rs.size - 1 if _lemma9_exhaustive(rs) else _LEMMA9_SAMPLES
    ds = sorted(ds)
    return [ds[lo:hi] for lo, hi in _blocks(len(ds), rs.size * cols)]


@dataclass(frozen=True, eq=False)
class Lemma9Units:
    """lemma9's units 1 + p^d y for one d, one entry per candidate y.

    ``predicted`` is each unit's order exponent by the closed form,
    max(e - d - s, 0) with s the least valuation of y's coefficients;
    ``exceptional`` marks the units where that rule does not apply (p = 2,
    d = 1, s = 0 and y^2 has an odd coefficient), predicted instead by one
    squaring (``ring.lemma9_predicted_order``); ``measured`` is each unit's
    order exponent, or -1 when it exceeds p^{e-d}.
    """

    predicted: np.ndarray
    exceptional: np.ndarray
    measured: np.ndarray


def _lemma9_pass(units: Units, seeds: dict[int, int]) -> dict[int, Lemma9Units]:
    """lemma9's units for every d in ``seeds`` (d -> that d's derived seed),
    one chunk of d's (``_lemma9_chunks``).

    The chunk's candidates are stacked in ascending d, and each column
    block of the stack (``_blocks``) is done in one step: its valuations,
    its predictions and its units 1 + p^d y, powered each up to its own
    bound e - d, so the columns still live after m steps are a prefix."""
    rs, ds = units.rs, sorted(seeds)
    p, e, q = rs.p, rs.e, rs.modulus
    draws = [_lemma9_candidates(rs, seeds[d]) for d in ds]
    ys = draws[0] if len(ds) == 1 else np.concatenate(draws, axis=1)
    w = draws[0].shape[1]  # every d draws as many candidates
    col_d = np.repeat(np.array(ds, dtype=np.int64), w)
    predicted, measured = np.empty_like(col_d), np.empty_like(col_d)
    exceptional = np.zeros(len(col_d), dtype=bool)
    for lo, hi in _blocks(len(col_d), rs.size):
        y, d = np.ascontiguousarray(ys[:, lo:hi]), col_d[lo:hi]
        s = _min_valuations(y, p, e)
        predicted[lo:hi] = np.maximum(e - d - s, 0)
        # The block's k columns of d = 1 lead it (a slice: a fancy index
        # would give _batch_mul a column-major operand, several times
        # slower).  (1 + 2y)^2 = 1 + 4(y + y^2), a unit of d = 2, where
        # the rule has no exception, and 1 + 2y != 1 as s = 0.
        if p == 2 and (k := int(np.count_nonzero(d == 1))):
            sq = _batch_mul(units.table, q, y[:, :k], y[:, :k])
            exceptional[lo : lo + k] = exc = (sq % 2 == 1).any(axis=0) & (s[:k] == 0)
            yy = mod_in_place(y[:, :k][:, exc] + sq[:, exc], q)
            predicted[lo : lo + k][exc] = 1 + np.maximum(e - 2 - _min_valuations(yy, p, e), 0)
        y *= p**d
        y[0] += 1
        measured[lo:hi] = _batch_order_exps(units, mod_in_place(y, q), e - d)
    return {
        d: Lemma9Units(*(a[lo : lo + w] for a in (predicted, exceptional, measured)))
        for d, lo in zip(ds, range(0, len(col_d), w))
    }


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
    lem = units.lemma9(seed, params["d"])
    measured = lem.measured
    base = {"cases": len(measured), "exceptional": int(lem.exceptional.sum())}
    predicted = {**base, "mismatches": 0, "order_bound_violations": 0}
    observed = {
        **base,
        "mismatches": int(((measured >= 0) & (measured != lem.predicted)).sum()),
        "order_bound_violations": int((measured < 0).sum()),
    }
    return predicted, observed


# ---------------------------------------------------------------------------
# The check registry: the one statement of what each check needs.


@dataclass(frozen=True)
class Check:
    """A verification check and the instances it applies to.

    ``run(units, params, seed)`` returns the (predicted, observed) pair for
    params that ``require`` has validated; ``seed`` is the base seed, from
    which a check that draws at random derives its own (``_derive_seed``).
    A check takes at most one parameter, ``param``, a positive int.
    ``requires`` is the mathematical precondition on (ring, params), read
    only after that; ``requirement`` states it.  Every check reads the
    |G| x |G| gather table, so none runs past the dense table cap
    (``pgroup.over_table_cap``).  The planner adds two limits: an
    enumerative check scans all of V, so |V| must fit the budget, and
    ``cap`` = (max |G|, max e) keeps the plan desk-scale.  A check with a
    ``param`` is planned once per value in ``param_range(rs)``.
    """

    id: str
    run: Callable
    enumerative: bool
    requires: Callable[[RingSpec, dict], bool] = lambda rs, params: True
    requirement: str = ""
    cap: Optional[tuple[int, int]] = None
    param: Optional[str] = None
    param_range: Callable[[RingSpec], range] = lambda rs: range(0)

    def require(self, rs: RingSpec, params: Optional[dict]) -> dict:
        """The params the check runs with on rs, or ValueError: the one gate
        of a check's call.  G must lie within the dense table cap
        (``pgroup.table_order``, which decides a huge |G| from its exponent,
        before any table or power of p is built).  The keys must be exactly
        ``param`` (none without one), its value an int >= 1 (a numpy integer
        is read as an int; a bool, float or str is refused), and
        ``requires`` must hold; these refusals name the check."""
        table_order(rs.group)
        params, names = params or {}, () if self.param is None else (self.param,)
        if tuple(params) != names:
            want = f"one parameter, {self.param}" if self.param else "no parameter"
            got = ", ".join(f"{k}={v!r}" for k, v in params.items()) or "none"
            raise ValueError(f"{self.id} check takes {want}; got {got}")
        if self.param:
            name = f"{self.id} parameter {self.param}"
            params = {self.param: checked_int(params[self.param], name, 1)}
        if not self.requires(rs, params):
            got = ", ".join(f"{k}={v}" for k, v in {"e": rs.e, **params}.items())
            raise ValueError(f"{self.id} check requires {self.requirement}; got {got}")
        return params

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


def _lookup(check: str) -> Check:
    """The registry's entry for a check id, or ValueError naming it: the one
    refusal of an unknown id (of any type; no hash is taken before it)."""
    if check not in CHECK_IDS:
        raise ValueError(f"unknown check id {check!r}; known: {', '.join(CHECK_IDS)}")
    return CHECKS[check]


def _format_check_id(check: str, params: Optional[dict]) -> str:
    if not params:
        return check
    inner = ",".join(f"{k}={params[k]}" for k in sorted(params))
    return f"{check}:{inner}"


def _derive_seed(seed: int, check: str, rs: RingSpec, params: dict) -> int:
    """The check's own seed: a 32-bit CRC of its case, the params
    ``Check.require`` returned, xor the base seed, which is refused outside
    [0, SEED_MAX] rather than wrapped."""
    case = sorted(params.items())
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
    RingSpec is checked through a Units of its own.  An unknown id is refused
    by ``_lookup``; the ring and ``params`` pass ``Check.require``, which
    refuses, with a ValueError, a G past the dense table cap before any
    work, and, naming the check, a missing or stray key, a value that is
    no int >= 1 and a precondition that fails; the check, its id and its
    seed read what it returns.  ``seed`` must lie in [0, SEED_MAX]; the
    report carries the seed derived from it."""
    units = rs_or_units if isinstance(rs_or_units, Units) else Units(rs_or_units)
    rs = units.rs
    spec = _lookup(check)
    params = spec.require(rs, params)
    derived = _derive_seed(seed, check, rs, params)
    start = time.perf_counter()
    predicted, observed = spec.run(units, params, seed)
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
    checked_int(budget, "budget", 1)
    c = _lookup(check)
    if over_table_cap(rs.group):
        return f"|G| = {rs.p}^{rs.group.size_exp} > {DENSE_TABLE_CAP}, the dense table cap"
    if c.cap and not (table_order(rs.group) <= c.cap[0] and rs.e <= c.cap[1]):
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

    ``enabled`` None means every check; an unknown id in it is refused as
    by verify_check.  Every check reads the |G| x |G| gather table, so none
    is planned past the dense table cap.  Checks that enumerate V are
    planned only when |V| fits the budget and stays below 2^31; the
    formula-driven checks (lemma2, lemma3, lemma9) have no such limit.
    The budget must be an int >= 1 whichever checks are enabled.
    """
    checked_int(budget, "budget", 1)
    chosen = CHECKS if enabled is None else {_lookup(c).id for c in enabled}
    return [
        (c.id, params)
        for c in CHECKS.values()
        if c.id in chosen and not unplanned_reason(c.id, rs, budget)
        for params in c.plans(rs)
    ]
