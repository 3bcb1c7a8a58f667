import itertools
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from punits import zpelin
from punits.oracle import verify_check
from punits.pgroup import GroupSpec, enumerate_elements, is_prime
from punits.ring import RingSpec, _rows_per_reduction, from_group_element, one
from punits.theory import v_order_exp
from punits.zpelin import (
    ResidueMatrix,
    _howell,
    howell_array,
    howell_form,
    ideal_power_form,
    ideal_power_generators,
    module_membership,
    module_size_exp,
    nilpotency_index,
    socle_ideal_generators,
)

from .helpers import (
    direct_ideal_power_rows,
    reference_contains,
    reference_howell_form,
    reference_socle_ideal_generators,
    small_specs,
    span_elements,
)

# The rings of the chain's differential test: p in {2, 3, 5}, |G| <= 16,
# e <= 3.
CHAIN_RINGS = [
    RingSpec(spec, e)
    for spec in small_specs(4, (2,)) + small_specs(2, (3,)) + small_specs(1, (5,))
    for e in (1, 2, 3)
]


def M(p, e, rows):
    ncols = len(rows[0]) if rows else 0
    return ResidueMatrix(p, e, ncols, tuple(tuple(r) for r in rows))


def random_matrix(rng, p, e, nrows, ncols):
    q = p ** e
    return M(p, e, [[rng.randrange(q) for _ in range(ncols)] for _ in range(nrows)])


def scrambled(rng, A: ResidueMatrix) -> ResidueMatrix:
    """A span-preserving random rework of A's rows."""
    q = A.modulus
    rows = [list(r) for r in A.rows]
    for _ in range(8):
        i = rng.randrange(len(rows))
        move = rng.randrange(3)
        if move == 0:
            j = rng.randrange(len(rows))
            if i != j:
                c = rng.randrange(q)
                rows[i] = [(a + c * b) % q for a, b in zip(rows[i], rows[j])]
        elif move == 1:
            u = rng.choice([x for x in range(1, q) if x % A.p])
            rows[i] = [(u * a) % q for a in rows[i]]
        else:
            c = rng.randrange(q)
            rows.append([(c * a) % q for a in rows[i]])
    rng.shuffle(rows)
    return M(A.p, A.e, rows)


class TestHowellForm:
    def test_spec_examples_over_z4(self):
        assert howell_form(M(2, 2, [[2, 0], [0, 2]])).rows == ((2, 0), (0, 2))
        assert howell_form(M(2, 2, [[1, 1], [1, 3]])).rows == ((1, 1), (0, 2))
        assert howell_form(M(2, 2, [[3, 0]])).rows == ((1, 0),)

    def test_annihilator_rows_are_materialized(self):
        # span{(2,1)} over Z_4 contains (0,2), which needs a trailing row
        H = howell_form(M(2, 2, [[2, 1]]))
        assert H.rows == ((2, 1), (0, 2))

    def test_idempotent(self):
        rng = random.Random(10)
        for p, e in ((2, 2), (2, 3), (3, 2)):
            for _ in range(10):
                A = random_matrix(rng, p, e, 4, 4)
                H = howell_form(A)
                assert howell_form(H) == H

    def test_span_preserved_exhaustively(self):
        rng = random.Random(11)
        for p, e, ncols in ((2, 2, 3), (2, 3, 2), (3, 2, 2)):
            for _ in range(8):
                A = random_matrix(rng, p, e, 3, ncols)
                assert span_elements(A) == span_elements(howell_form(A))

    @given(st.data())
    def test_span_property(self, data):
        # Random 0-4 row matrices over Z_{p^e} with q <= 27, zero rows included.
        p, e = data.draw(st.sampled_from(((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1))))
        ncols = data.draw(st.integers(1, 3))
        row = st.lists(st.integers(0, p ** e - 1), min_size=ncols, max_size=ncols)
        rows = data.draw(st.lists(row, max_size=4))
        A = ResidueMatrix(p, e, ncols, tuple(tuple(r) for r in rows))
        assert span_elements(howell_form(A)) == span_elements(A)

    def test_canonical_for_equal_spans(self):
        rng = random.Random(12)
        for p, e in ((2, 2), (3, 2), (2, 3)):
            for _ in range(10):
                A = random_matrix(rng, p, e, 3, 3)
                assert howell_form(scrambled(rng, A)) == howell_form(A)

    def test_empty_and_zero_matrices(self):
        assert howell_form(M(2, 2, [[0, 0, 0]])).rows == ()
        assert module_size_exp(M(2, 2, [[0, 0]])) == 0


class TestHowellCore:
    """The numpy core against the pure-Python elimination it replaced."""

    @given(st.data())
    def test_matches_reference_elimination(self, data):
        # Odd q near 2^31 (7^11, 3^19) as well as small ones: an int64 wrap
        # is then not also right mod q, so a missed reduction shows.
        p, e = data.draw(
            st.sampled_from(((2, 1), (2, 3), (3, 2), (5, 2), (2, 31), (7, 11), (3, 19)))
        )
        q = p ** e
        ncols = data.draw(st.integers(1, 5))
        entry = st.one_of(
            st.sampled_from((0, 1, q - 1, p, q - p, p ** (e // 2))),
            st.integers(0, q - 1),
        )
        row = st.lists(entry, min_size=ncols, max_size=ncols)
        # Zero rows and rows of multiples of p (pivots of positive valuation,
        # hence annihilator rows), then repeats of drawn rows.
        times_p = row.map(lambda r: [p * x % q for x in r])
        kinds = st.one_of(row, st.just([0] * ncols), times_p)
        rows = data.draw(st.lists(kinds, max_size=max(7, 2 * ncols)))
        if rows:
            rows += data.draw(st.lists(st.sampled_from(rows), max_size=ncols))
        A = ResidueMatrix(p, e, ncols, tuple(tuple(r) for r in rows))
        assert howell_form(A) == reference_howell_form(A)

    def test_modulus_over_the_cap_is_refused(self):
        with pytest.raises(ValueError):
            M(2, 32, [[1, 0]])


class TestMembership:
    def test_examples(self):
        assert module_membership((2, 0), M(2, 2, [[2, 0]]))
        assert not module_membership((1, 0), M(2, 2, [[2, 0]]))
        assert module_membership((2, 2), M(2, 2, [[1, 1]]))

    def test_zero_divisor_span(self):
        A = M(2, 2, [[2, 1]])
        assert module_membership((0, 2), A)
        assert not module_membership((1, 0), A)

    def test_against_exhaustive_span(self):
        import itertools

        rng = random.Random(13)
        for p, e, ncols in ((2, 2, 2), (3, 2, 2), (2, 3, 2)):
            A = random_matrix(rng, p, e, 2, ncols)
            span = span_elements(A)
            q = p ** e
            for v in itertools.product(range(q), repeat=ncols):
                assert module_membership(v, A) == (v in span)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            module_membership((1, 0, 0), M(2, 2, [[2, 0]]))

    @given(st.data())
    def test_contains_matches_exhaustive_span(self, data):
        # Every vector of Z_q^ncols at once, against the enumerated span.
        p, e = data.draw(st.sampled_from(((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1))))
        q = p ** e
        ncols = data.draw(st.integers(1, 3 if q <= 5 else 2))
        row = st.lists(st.integers(0, q - 1), min_size=ncols, max_size=ncols)
        A = M(p, e, data.draw(st.lists(row, min_size=1, max_size=4)))
        span = span_elements(A)
        vecs = list(itertools.product(range(q), repeat=ncols))
        member = howell_array(A).contains(np.array(vecs, dtype=np.int64).T)
        assert member.tolist() == [v in span for v in vecs]

    @given(st.sampled_from(((7, 11), (3, 19), (2, 31))), st.integers(0, 2 ** 32))
    def test_contains_matches_row_by_row_reduction(self, pe, seed):
        # Moduli near 2^31, where contains runs only k rows between two
        # reductions.  The first n > k columns each hold a pivot, so the
        # periodic reduction runs; the trailing columns are mostly free.
        p, e = pe
        q = p ** e
        k = _rows_per_reduction(q)
        rng = random.Random(seed)
        n = rng.randint(k + 1, k + 3)
        ncols = n + rng.randint(1, 2)

        def entry():
            return rng.choice(
                (0, 1, p, q - p, q - 1, rng.randrange(q - q // 16, q), rng.randrange(q))
            )

        def vec():
            return [entry() for _ in range(ncols)]

        rows = []
        for i in range(n):
            v = rng.choice((0, rng.randrange(e)))
            unit = rng.randrange(q // p) * p + rng.randrange(1, p)
            rows.append([0] * i + [p ** v * unit % q] + vec()[i + 1 :])
        rows += [vec() for _ in range(rng.randrange(3))]
        H = howell_array(M(p, e, rows))
        assert H.pivots[:n] == tuple(range(n))

        form = H.rows.tolist()
        members = []
        for _ in range(3):
            cs = [entry() for _ in form]
            members.append([sum(c * r[j] for c, r in zip(cs, form)) % q for j in range(ncols)])
        vecs = np.array(members + [vec() for _ in range(3)]).T
        expected = reference_contains(H.rows, H.pivots, q, vecs)
        assert expected[:3] == [True] * 3
        assert H.contains(vecs).tolist() == expected

    @pytest.mark.parametrize("p, e", [(7, 11), (3, 19), (2, 31)])
    def test_contains_at_the_worst_case_between_reductions(self, p, e):
        # Rows e_i + (q-1) e_n: with every coefficient sign * (q - 1), each
        # row moves the last coordinate by -sign * (q-1)^2, the most one row
        # can, and that coordinate starts on the other side of 0.  2k + 1
        # rows need both periodic reductions and the final one.
        q = p ** e
        k = _rows_per_reduction(q, signed=True)
        n = 2 * k + 1
        H = howell_array(M(p, e, [[int(i == j) for j in range(n)] + [q - 1] for i in range(n)]))
        assert H.pivots == tuple(range(n))
        for sign in (1, -1):
            last = sign * (n - q)  # = sign * n * (q-1)^2 mod q
            member = [sign * (q - 1)] * n + [last]
            outsider = member[:-1] + [last + sign]
            vecs = np.array([member, outsider]).T
            assert reference_contains(H.rows, H.pivots, q, vecs) == [True, False]
            assert H.contains(vecs).tolist() == [True, False]


class TestDual:
    """Membership by the dual module against elimination and the reference."""

    @given(st.data())
    def test_both_paths_match_the_reference(self, data):
        p = data.draw(st.sampled_from((2, 3, 5, 7)))
        e = data.draw(st.integers(1, 4))
        q = p ** e
        ncols = data.draw(st.integers(1, 8))
        entry = st.one_of(
            st.sampled_from((0, 1, p, q - 1, q - p, p ** (e - 1))), st.integers(0, q - 1)
        )
        row = st.lists(entry, min_size=ncols, max_size=ncols)
        times_p = row.map(lambda r: [p * x % q for x in r])
        rows = data.draw(st.lists(st.one_of(row, times_p), max_size=8))
        H = howell_array(ResidueMatrix(p, e, ncols, tuple(map(tuple, rows))))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        # Half members, half random vectors, entries in (-q, q).
        width = zpelin._DUAL_WIDTH * ncols
        half = width // 2
        members = rng.integers(0, q, (half, len(H.rows))) @ H.rows.astype(np.int64) % q
        vecs = np.vstack([members, rng.integers(0, q, (width - half, ncols))]).T.copy()
        vecs[(vecs > 0) & (rng.random(vecs.shape) < 0.5)] -= q

        expected = reference_contains(H.rows, H.pivots, q, vecs)
        assert expected[:half] == [True] * half
        # Each half is narrower than the switch, so it is eliminated.
        eliminated = np.concatenate([H.contains(vecs[:, :half]), H.contains(vecs[:, half:])])
        assert "dual" not in H.__dict__
        assert eliminated.tolist() == expected
        assert H.contains(vecs).tolist() == expected
        assert "dual" in H.__dict__

    @given(st.data())
    def test_dual_is_the_annihilator(self, data):
        p = data.draw(st.sampled_from((2, 3, 5, 7)))
        e = data.draw(st.integers(1, 4))
        q = p ** e
        ncols = data.draw(st.integers(1, 8))
        row = st.lists(st.integers(0, q - 1), min_size=ncols, max_size=ncols)
        times_p = row.map(lambda r: [p * x % q for x in r])
        rows = data.draw(st.lists(st.one_of(row, times_p), max_size=8))
        H = howell_array(ResidueMatrix(p, e, ncols, tuple(map(tuple, rows))))
        D = H.dual
        assert H.size_exp + D.size_exp == e * ncols
        assert all(
            sum(a * b for a, b in zip(h, y)) % q == 0
            for h in H.rows.tolist()
            for y in D.rows.tolist()
        )
        # The Howell form is canonical, so the double annihilator is H itself.
        assert D.dual.rows.tolist() == H.rows.tolist()
        assert (D.dual.pivots, D.dual.size_exp) == (H.pivots, H.size_exp)

    @pytest.mark.parametrize("p, e", [(7, 11), (3, 19), (2, 31)])
    def test_dual_product_at_the_worst_case_between_reductions(self, p, e):
        # M = {x : x_0 = x_1 + ... + x_7} has the dual row (1, q-1, ..., q-1).
        # A member with x_1 = ... = x_7 = +-(q-1) sums seven products
        # +-(q-1)^2, past int64 unless the sum is reduced every k columns.
        q, n = p ** e, 8
        H = howell_array(M(p, e, [[1] + [int(i == j) for j in range(1, n)] for i in range(1, n)]))
        assert H.dual.rows.tolist() == [[1] + [q - 1] * (n - 1)]
        member = [q - n + 1] + [q - 1] * (n - 1)
        negative = [n - 1] + [1 - q] * (n - 1)
        block = [member, [q - n + 2] + member[1:], negative, [n - 2] + negative[1:]]
        vecs = np.array(block * (zpelin._DUAL_WIDTH * n // len(block))).T
        expected = [True, False, True, False] * (vecs.shape[1] // len(block))
        assert reference_contains(H.rows, H.pivots, q, vecs) == expected
        assert H.contains(vecs).tolist() == expected

    @given(st.sampled_from(((7, 11), (2, 31))), st.integers(3, 8), st.integers(0, 2 ** 32))
    def test_dual_path_near_the_cap(self, pe, ncols, seed):
        # Moduli where k = 2, so the product is reduced between chunks.
        p, e = pe
        q = p ** e
        assert _rows_per_reduction(q) == 2
        rng = random.Random(seed)

        def entry():
            return rng.choice(
                (0, 1, p, q - p, q - 1, rng.randrange(q - q // 16, q), rng.randrange(q))
            )

        rows = [[entry() for _ in range(ncols)] for _ in range(rng.randint(1, ncols))]
        H = howell_array(M(p, e, rows))
        form = H.rows.tolist()
        width = zpelin._DUAL_WIDTH * ncols
        vecs = []
        for i in range(width):
            if i % 2:
                vec = [entry() for _ in range(ncols)]
            else:
                cs = [entry() for _ in form]
                vec = [sum(c * r[j] for c, r in zip(cs, form)) % q for j in range(ncols)]
            vecs.append([x - q if x and rng.random() < 0.5 else x for x in vec])
        vecs = np.array(vecs).T
        expected = reference_contains(H.rows, H.pivots, q, vecs)
        assert expected[::2] == [True] * (width // 2)
        assert H.contains(vecs).tolist() == expected
        assert "dual" in H.__dict__


class TestDualTraffic:
    """The dual is built only where a batch is wide enough to repay it."""

    def test_lemma3_builds_no_dual(self):
        rs = RingSpec(GroupSpec(2, (2, 1)), 2)
        zpelin._chain.cache_clear()
        for n in range(1, nilpotency_index(rs) + 1):
            assert verify_check("lemma3", rs, {"n": n}).passed
        chain = zpelin._chain(rs)
        assert not any("dual" in H.__dict__ for H in chain.levels + [chain.zero])

    def test_lemma5_builds_at_most_one_dual_per_level(self, monkeypatch):
        rs = RingSpec(GroupSpec(5, (1,)), 2)
        zpelin._chain.cache_clear()
        nilpotency_index(rs)  # the whole chain, before _howell is counted
        built = []
        howell = zpelin._howell

        def counted(A, p, e):
            built.append(A.shape)
            return howell(A, p, e)

        monkeypatch.setattr(zpelin, "_howell", counted)
        assert verify_check("lemma5", rs).passed
        levels = zpelin._chain(rs).levels
        with_dual = [H for H in levels if "dual" in H.__dict__]
        assert "dual" in levels[0].__dict__  # whole blocks of V reach w
        assert len(built) == len(with_dual) <= len(levels)


class TestModuleSize:
    def test_examples(self):
        assert module_size_exp(M(2, 2, [[2, 0]])) == 1
        assert module_size_exp(M(2, 2, [[1, 0], [0, 1]])) == 4
        assert module_size_exp(M(2, 2, [[1, 1], [0, 2]])) == 3

    def test_against_exhaustive_span(self):
        rng = random.Random(14)
        for p, e in ((2, 2), (3, 2)):
            for _ in range(6):
                A = random_matrix(rng, p, e, 3, 3)
                assert (p ** module_size_exp(A)) == len(span_elements(A))


class TestIdealPowers:
    def test_augmentation_ideal_of_z4c2(self):
        rs = RingSpec(GroupSpec(2, (1,)), 2)
        assert module_size_exp(ideal_power_generators(rs, 1)) == 2  # |w| = 4

    def test_square_of_augmentation_ideal_z4c2(self):
        rs = RingSpec(GroupSpec(2, (1,)), 2)
        M2 = ideal_power_generators(rs, 2)
        assert module_size_exp(M2) == 1  # spanned by (a-1)^2 = 2 - 2a
        assert module_membership((2, 2), M2)

    def test_vanishes_past_nilpotency(self):
        rs = RingSpec(GroupSpec(2, (1,)), 2)
        nu = nilpotency_index(rs)
        assert module_size_exp(ideal_power_generators(rs, nu)) == 0
        assert module_size_exp(ideal_power_generators(rs, nu + 1)) == 0

    def test_first_power_has_full_cardinality(self):
        # |w| = p^{e(|G|-1)}
        for spec in small_specs(3):
            for e in (1, 2):
                rs = RingSpec(spec, e)
                assert module_size_exp(
                    ideal_power_generators(rs, 1)
                ) == v_order_exp(rs.group, rs.e)

    def test_chain_is_nonincreasing_and_stabilizes_at_zero(self):
        for spec in small_specs(3):
            rs = RingSpec(spec, 2)
            sizes = []
            n = 1
            while True:
                sizes.append(module_size_exp(ideal_power_generators(rs, n)))
                if sizes[-1] == 0:
                    break
                n += 1
            assert all(a >= b for a, b in zip(sizes, sizes[1:]))
            assert sizes[-1] == 0

    def test_generator_set_spans_the_definitional_ideal_power(self):
        # products of generator differences match products over all of G;
        # the definitional set has |G|^n rows, so keep |G| small
        for spec in small_specs(3):
            if spec.order() > 9:
                continue
            group_elements = list(enumerate_elements(spec))
            rs = RingSpec(spec, 2)
            for n in (1, 2, 3):
                compact = howell_form(ideal_power_generators(rs, n))
                rows = []
                unit_one = one(rs)

                def products(depth, acc):
                    if depth == 0:
                        for g in group_elements:
                            rows.append((acc * from_group_element(rs, g)).coeffs)
                        return
                    for g in group_elements:
                        products(depth - 1, acc * (from_group_element(rs, g) - unit_one))

                products(n, unit_one)
                definitional = howell_form(
                    ResidueMatrix(rs.p, rs.e, rs.size, tuple(rows))
                )
                assert compact == definitional

    def test_rejects_nonpositive_power(self):
        rs = RingSpec(GroupSpec(2, (1,)), 2)
        with pytest.raises(ValueError):
            ideal_power_generators(rs, 0)


class TestIdealChain:
    """The chain's forms against the direct product construction."""

    @given(st.sampled_from(CHAIN_RINGS))
    def test_chain_matches_direct_construction(self, rs):
        zpelin._chain.cache_clear()
        n = 1
        while module_size_exp(direct_ideal_power_rows(rs, n)):
            n += 1
        nu = n  # least n with w^n = 0, from the direct rows
        for n in range(1, nu + 2):
            expected = howell_form(direct_ideal_power_rows(rs, n))
            assert ideal_power_generators(rs, n) == expected
            form = ideal_power_form(rs, n)
            assert form.size_exp == module_size_exp(expected)
            assert not form.rows.flags.writeable
        assert nilpotency_index(rs) == nu

    def test_alternating_rings_keep_their_own_forms(self):
        for pair in (
            (RingSpec(GroupSpec(2, (2,)), 2), RingSpec(GroupSpec(2, (1, 1)), 2)),
            (RingSpec(GroupSpec(2, (3,)), 1), RingSpec(GroupSpec(2, (2, 1)), 1)),
        ):
            top = max(nilpotency_index(rs) for rs in pair) + 1
            zpelin._chain.cache_clear()
            for n in range(1, top + 1):
                for rs in pair:
                    expected = howell_form(direct_ideal_power_rows(rs, n))
                    assert ideal_power_generators(rs, n) == expected

    def test_levels_are_built_only_up_to_the_power_asked_for(self):
        rs = RingSpec(GroupSpec(2, (8,)), 1)
        zpelin._chain.cache_clear()
        form = ideal_power_form(rs, 3)
        # Over F_2 C_256, w^n has dimension 256 - n.
        assert form.size_exp == 256 - 3
        assert form.rows.dtype == np.uint8
        assert len(zpelin._chain(rs).levels) == 3


class TestSocleIdeal:
    def test_z2_klein_socle_ideal_is_whole_augmentation_ideal(self):
        # G[2] = G for C_2 x C_2, so I(G[2]) = w
        rs = RingSpec(GroupSpec(2, (1, 1)), 1)
        H = _howell(socle_ideal_generators(rs), rs.p, rs.e)
        assert H.size_exp == v_order_exp(rs.group, rs.e)

    def test_z2c4_socle_ideal_size(self):
        # I(G[p]) has p^{|G| - |G^p|} elements
        rs = RingSpec(GroupSpec(2, (2,)), 1)
        assert _howell(socle_ideal_generators(rs), rs.p, rs.e).size_exp == 4 - 2

    @pytest.mark.parametrize(
        "rs",
        [
            RingSpec(g, e)
            for g in small_specs(6, primes=[p for p in range(2, 64) if is_prime(p)])
            if g.p ** g.size_exp <= 64
            for e in (1, 2)
        ],
        ids=RingSpec.to_text,
    )
    def test_basis_translates_span_the_all_translates_ideal(self, rs):
        # Every group with |G| <= 64: the k|G| translates of the basis of
        # G[p] and the (|G[p]| - 1)|G| translates of all of G[p] have one
        # Howell form.
        rows = socle_ideal_generators(rs)
        assert rows.dtype == np.int64 and rows.shape == (rs.group.k * rs.size, rs.size)
        assert rows.min() >= 0 and rows.max() < rs.modulus
        got = _howell(rows, rs.p, rs.e)
        want = howell_array(reference_socle_ideal_generators(rs))
        assert np.array_equal(got.rows, want.rows)
        assert (got.pivots, got.size_exp) == (want.pivots, want.size_exp)
