import itertools
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from punits import zpelin
from punits.oracle import verify_check
from punits.pgroup import GroupSpec, enumerate_elements, is_prime
from punits.ring import (
    RingSpec,
    _float_terms,
    _rows_per_reduction,
    from_group_element,
    one,
)
from punits.theory import v_order_exp
from punits.zpelin import (
    ResidueMatrix,
    _howell,
    _product_mod,
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
    alarm,
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


# Moduli of the narrow-membership test: small ones, each p's largest on
# the float64 product (2^26, 3^16, 7^9) and two on the int64 one (7^11, 2^31).
NARROW_MODULI = ((2, 1), (3, 2), (2, 26), (3, 16), (7, 9), (7, 11), (2, 31))


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


def bidiagonal_rows(data, p, e, depth_exp):
    """2^depth_exp + 1 rows with unit leads on the diagonal and a nonzero
    superdiagonal, so that each row depends on the next one and the first
    one on every later one; then random columns that no row leads."""
    q = p ** e
    m = 2 ** depth_exp + 1
    extra = data.draw(st.integers(0, 3))
    unit = st.integers(1, q - 1).filter(lambda x: x % p)
    rows = []
    for i in range(m):
        row = [0] * (m + extra)
        row[i] = data.draw(unit)
        if i + 1 < m + extra:
            row[i + 1] = data.draw(st.integers(1, q - 1))
        for j in range(m, m + extra):
            row[j] = data.draw(st.integers(0, q - 1))
        rows.append(row)
    return rows


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
        kind = data.draw(st.sampled_from(("random", "unit leads", "bidiagonal", "two deps")))
        if kind == "random":
            ncols = data.draw(st.integers(1, 5))
            entry = st.one_of(
                st.sampled_from((0, 1, q - 1, p, q - p, p ** (e // 2))),
                st.integers(0, q - 1),
            )
            row = st.lists(entry, min_size=ncols, max_size=ncols)
            # Zero rows and rows of multiples of p (pivots of positive
            # valuation, hence annihilator rows), then repeats of drawn rows.
            times_p = row.map(lambda r: [p * x % q for x in r])
            kinds = st.one_of(row, st.just([0] * ncols), times_p)
            rows = data.draw(st.lists(kinds, max_size=max(7, 2 * ncols)))
        elif kind == "unit leads":
            # Every row leads with a unit, in distinct columns, and is
            # sparse, so that most draws form one echelon block.
            ncols = data.draw(st.integers(1, 7))
            leads = sorted(data.draw(st.sets(st.integers(0, ncols - 1), min_size=1)))
            entry = st.one_of(st.just(0), st.just(0), st.integers(0, q - 1))
            rows = []
            for c in leads:
                row = [0] * c + [data.draw(st.integers(1, q - 1).filter(lambda x: x % p))]
                rows.append(row + [data.draw(entry) for _ in range(ncols - c - 1)])
        else:
            # Every pointer-jumping round runs on 2^k + 1 rows; "two deps"
            # makes the first row depend on two later rows as well.
            rows = bidiagonal_rows(data, p, e, data.draw(st.integers(0, 3)))
            if kind == "two deps" and len(rows) > 2:
                rows[0][2] = data.draw(st.integers(1, q - 1))
        if rows:
            # Rows left over: combinations of drawn rows, and random rows and
            # their multiples by p, which reach the sequential core and
            # interleave its pivots with the block's.
            ncols = len(rows[0])
            for _ in range(data.draw(st.integers(0, 3))):
                a, b = data.draw(st.sampled_from(rows)), data.draw(st.sampled_from(rows))
                f, g = data.draw(st.integers(0, q - 1)), data.draw(st.integers(0, q - 1))
                rows.append([(f * x + g * y) % q for x, y in zip(a, b)])
            rows += data.draw(st.lists(st.sampled_from(rows), max_size=ncols))
            row = st.lists(st.integers(0, q - 1), min_size=ncols, max_size=ncols)
            for r in data.draw(st.lists(row, max_size=2)):
                rows.append([p * x % q for x in r] if data.draw(st.booleans()) else r)
            rows = data.draw(st.permutations(rows))
        else:
            ncols = 1
        A = ResidueMatrix(p, e, ncols, tuple(tuple(r) for r in rows))
        assert howell_form(A) == reference_howell_form(A)

    @pytest.mark.parametrize("p, e", [(2, 1), (2, 31), (7, 11), (3, 19)])
    def test_bidiagonal_block_skips_the_core(self, p, e, monkeypatch):
        # 2^4 + 1 rows: row 0 depends on all 16 others, through four rounds
        # of pointer jumping, with entries and factors up to q - 1.
        rng = random.Random(17)
        q, m = p ** e, 17
        rows = []
        for i in range(m):
            row = [0] * i + [rng.choice([1, q - 1, p + 1])]
            row += [q - 1 if rng.randrange(2) else rng.randrange(1, q) for _ in range(m + 2 - i)]
            row[i + 2 : m] = [0] * max(0, m - i - 2)
            rows.append(row)
        A = M(p, e, rows)
        monkeypatch.setattr(zpelin, "_howell_core", None)
        H = howell_array(A)
        assert H.matrix() == reference_howell_form(A)
        assert H.pivots == tuple(range(m)) and H.unit.all()

    @pytest.mark.parametrize("p, e", [(2, 2), (3, 3), (2, 31), (7, 11)])
    def test_block_rows_reduced_by_non_unit_core_rows(self, p, e):
        # Unit-lead rows, then multiples of p of random rows: the core's
        # pivots p^v fall between the block's leads, and reducing a block
        # row by them takes entries below 0 before the final reduction.
        rng = random.Random(p + e)
        q = p ** e
        assert howell_form(M(2, 2, [[1, 3, 0, 0], [0, 2, 0, 2]])).rows == ((1, 1, 0, 2), (0, 2, 0, 2))
        for _ in range(20):
            ncols = rng.randrange(3, 8)
            leads = sorted(rng.sample(range(ncols), rng.randrange(1, ncols)))
            rows = []
            for c in leads:  # reduced: 0 at the other leads
                row = [0] * ncols
                row[c] = 1
                for j in range(c + 1, ncols):
                    row[j] = 0 if j in leads else rng.randrange(q)
                rows.append(row)
            rows += [[p * rng.randrange(q) % q for _ in range(ncols)] for _ in range(3)]
            A = M(p, e, rows)
            assert howell_form(A) == reference_howell_form(A)

    def test_a_row_with_two_dependencies_takes_the_core(self, monkeypatch):
        A = M(3, 2, [[1, 4, 5, 0, 2], [0, 1, 0, 7, 0], [0, 0, 1, 3, 8], [0, 0, 0, 1, 1]])
        core, seen = zpelin._howell_core, []

        def counted(B, p, e):
            seen.append(B.shape)
            return core(B, p, e)

        monkeypatch.setattr(zpelin, "_howell_core", counted)
        assert howell_form(A) == reference_howell_form(A)
        assert seen == [(4, 5)]

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


    @given(st.data())
    def test_narrow_contains_matches_the_reference(self, data):
        # Echelon rows with unit pivots, with pivots p^v of any v < e, or
        # all multiples of p: their Howell forms have all, some or none of
        # their pivots units.  The unit rows are one product and only the
        # others are eliminated in turn.
        p, e = data.draw(st.sampled_from(NARROW_MODULI))
        q = p ** e
        kind = data.draw(st.sampled_from(("unit", "mixed", "none")))
        ncols = data.draw(st.integers(1, 8))
        rng = random.Random(data.draw(st.integers(0, 2 ** 32)))

        def entry():
            near_q = rng.randrange(q - 1 - q // 16, q)
            return rng.choice((0, 1, p, q - p, q - 1, near_q, rng.randrange(q)))

        rows = []
        for col in sorted(rng.sample(range(ncols), rng.randint(1, ncols))):
            v = 0 if kind == "unit" else rng.randrange(e)
            unit = rng.randrange(q // p) * p + rng.randrange(1, p)
            row = [0] * col + [p ** v * unit % q] + [entry() for _ in range(col + 1, ncols)]
            rows.append([p * x % q for x in row] if kind == "none" else row)
        H = howell_array(M(p, e, rows))
        if kind == "unit" or e == 1:
            assert H.unit.all()
        elif kind == "none":
            assert not H.unit.any()

        form = H.rows.tolist()
        width = data.draw(st.integers(1, 24))
        vecs = []
        for i in range(width):
            if i % 2 or not form:
                vec = [entry() for _ in range(ncols)]
            else:
                cs = [entry() for _ in form]
                vec = [sum(c * r[j] for c, r in zip(cs, form)) % q for j in range(ncols)]
            vecs.append([x - q if x and rng.random() < 0.5 else x for x in vec])
        vecs = np.array(vecs, dtype=np.int64).T
        expected = reference_contains(H.rows, H.pivots, q, vecs)
        assert all(expected[::2]) or not form
        assert H.contains(vecs).tolist() == expected

    @pytest.mark.parametrize("p, e", [(7, 11), (3, 19), (2, 31)])
    def test_non_unit_rows_across_reductions(self, p, e):
        # Rows p e_i + (q - p) e_n have pivot p, so each is eliminated in
        # turn, and with coefficients +-(q - 1) // p each moves the last
        # entry by about q^2 / p.  That is 1/p of the most a row can, so the
        # 2pk + 1 rows here pass int64 unless the loop reduces every k rows.
        q = p ** e
        k = _rows_per_reduction(q, signed=True)
        n = 2 * p * k + 1
        rows = [[p * int(i == j) for j in range(n)] + [q - p] for i in range(n)]
        H = howell_array(M(p, e, rows))
        assert H.pivots == tuple(range(n)) and not H.unit.any()
        c = (q - 1) // p
        for sign in (1, -1):
            last = sign * (n * c * (q - p) % q)
            member = [sign * p * c] * n + [last]
            outsider = member[:-1] + [last + sign]
            vecs = np.array([member, outsider]).T
            assert reference_contains(H.rows, H.pivots, q, vecs) == [True, False]
            assert H.contains(vecs).tolist() == [True, False]


class TestProductMod:
    @pytest.mark.parametrize("p, e", [(2, 26), (3, 16), (5, 11), (7, 9)])
    def test_float_product_at_the_worst_case(self, p, e):
        # Each p's largest modulus on the float64 path.  Entries +-(q - 1) of
        # one sign make every chunk of k columns sum to k (q - 1)^2, as near
        # 2^53 as the bound allows; 3k + 1 columns make four chunks.
        q = p ** e
        k = _float_terms(q)
        assert k >= 1 and _float_terms(p * q) == 0
        inner = 3 * k + 1
        rng = random.Random(q)
        A = [[q - 1] * inner, [rng.choice((q - 1, q - 2, 0)) for _ in range(inner)]]
        signs = [(1, -1, (-1) ** j, rng.choice((1, -1))) for j in range(inner)]
        X = [[s * (q - 1) for s in row] + [rng.randrange(1 - q, q)] for row in signs]
        expected = [
            [sum(a[j] * X[j][c] for j in range(inner)) % q for c in range(len(X[0]))] for a in A
        ]
        out = _product_mod(np.array(A, dtype=np.int64), np.array(X, dtype=np.int64), q)
        assert out.dtype == np.int64
        assert out.tolist() == expected

    @pytest.mark.parametrize("p, e", [(7, 11), (3, 19), (2, 31)])
    def test_contains_product_at_the_worst_case_between_reductions(self, p, e):
        # M = {x : x_0 = x_1 + ... + x_{n-1}} has the Howell rows e_0 + e_{n-1}
        # and e_j - e_{n-1}, 0 < j < n - 1, all with unit pivots, so contains
        # takes them off in one _product_mod.  At the last coordinate of a
        # vector with x_1 = ... = x_{n-1} = +-(q-1) that sums n - 2 = 2k + 1
        # products +-(q-1)^2, past int64 unless it is reduced every k columns.
        q = p ** e
        n = 2 * _rows_per_reduction(q) + 3
        H = howell_array(M(p, e, [[1] + [int(i == j) for j in range(1, n)] for i in range(1, n)]))
        assert H.pivots == tuple(range(n - 1)) and H.unit.all()
        for sign in (1, -1):
            first = sign * (q - n + 1)  # = sign * (n - 1)(q - 1) mod q
            member = [first] + [sign * (q - 1)] * (n - 1)
            outsider = [first - sign] + member[1:]
            vecs = np.array([member, outsider]).T
            assert reference_contains(H.rows, H.pivots, q, vecs) == [True, False]
            assert H.contains(vecs).tolist() == [True, False]


class TestCosetKeys:
    """The residue by a Howell form, read as a key, names the coset."""

    @given(st.data())
    def test_keys_are_equal_exactly_on_a_coset(self, data):
        p = data.draw(st.sampled_from((2, 3, 5, 7)))
        e = data.draw(st.integers(1, 4))
        q = p ** e
        ncols = data.draw(st.integers(1, min(8, 62 // q.bit_length())))
        entry = st.one_of(
            st.sampled_from((0, 1, p, q - 1, q - p, p ** (e - 1))), st.integers(0, q - 1)
        )
        row = st.lists(entry, min_size=ncols, max_size=ncols)
        times_p = row.map(lambda r: [p * x % q for x in r])
        rows = data.draw(st.lists(st.one_of(row, times_p), max_size=8))
        H = howell_array(ResidueMatrix(p, e, ncols, tuple(map(tuple, rows))))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        width = 32

        def signed(x):  # entries in (-q, q): each nonzero one minus q, or not
            x = x % q
            x[(x > 0) & (rng.random(x.shape) < 0.5)] -= q
            return x

        x = rng.integers(0, q, (ncols, width))
        h = (rng.integers(0, q, (width, len(H.rows))) @ H.rows.astype(np.int64)).T
        y = rng.integers(0, q, (ncols, width))
        off = ~np.array(reference_contains(H.rows, H.pivots, q, y % q))
        keys = H.coset_keys(signed(x))
        assert (H.coset_keys(signed(x + h)) == keys).all()
        assert ((H.coset_keys(signed(x + y)) != keys) == off).all()
        assert ((keys == 0) == H.contains(signed(x))).all()

    def test_keys_past_int64_are_refused(self):
        # At q = 2^31 two coordinates make q^2 = 2^62: the largest key,
        # 2^62 - 1, is exact, and a third coordinate is refused.  The zero
        # span leaves every vector as its own residue.
        top = 2 ** 31 - 1
        H = howell_array(M(2, 31, [[0, 0]]))
        assert H.coset_keys(np.array([[top], [top]])).tolist() == [2 ** 62 - 1]
        with pytest.raises(OverflowError, match="int64"):
            howell_array(M(2, 31, [[0, 0, 0]])).coset_keys(np.zeros((3, 1), dtype=np.int64))


class TestMembershipTraffic:
    """Membership and coset keys build no form besides the ideal chain's,
    and at e = 1 take one product per block."""

    def test_lemma3_at_e1_is_one_product(self, monkeypatch):
        # At e = 1 every pivot is a unit, so each membership block is one
        # product: its one reduction and the final one, and no row step.
        rs = RingSpec(GroupSpec(3, (1, 1)), 1)
        nu = nilpotency_index(rs)
        assert all(zpelin._chain(rs).level(n).unit.all() for n in range(1, nu))
        calls = []
        product, reduce = zpelin._product_mod, zpelin.mod_in_place

        def counted_product(*args):
            calls.append("product")
            return product(*args)

        def counted_reduce(*args):
            calls.append("reduce")
            return reduce(*args)

        monkeypatch.setattr(zpelin, "_product_mod", counted_product)
        monkeypatch.setattr(zpelin, "mod_in_place", counted_reduce)
        for n in range(1, nu + 1):
            calls.clear()
            assert verify_check("lemma3", rs, {"n": n}).passed
            assert calls == ["product", "reduce", "reduce"]

    def test_lemma5_builds_no_form_past_the_chain(self, monkeypatch):
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
        assert built == []


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

    @pytest.mark.parametrize("n", [1.5, True, "1"])
    def test_rejects_a_power_that_is_no_int(self, n):
        # True was read as n = 1, and 1.5 raised TypeError from a list index.
        with pytest.raises(ValueError, match="n must be an integer"):
            ideal_power_form(RingSpec(GroupSpec(2, (2,)), 1), n)

    @pytest.mark.parametrize(
        "call",
        [nilpotency_index, lambda rs: ideal_power_form(rs, 1)],
        ids=["nilpotency_index", "ideal_power_form"],
    )
    def test_huge_group_is_refused_at_once(self, call):
        # |G| = 3^(2^32): the table cap is tested before G's radices are built.
        with alarm(5), pytest.raises(ValueError, match="dense table cap"):
            call(RingSpec(GroupSpec(3, (2 ** 32,)), 2))


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

    @pytest.mark.parametrize("rs", [rs for rs in CHAIN_RINGS if rs.e == 1], ids=RingSpec.to_text)
    def test_levels_at_e1_take_no_pivot_from_the_core(self, rs, monkeypatch):
        # The a_j^-1 translates of a level lead with distinct units, so at
        # e = 1 each level is one echelon block and the rows left over
        # reduce to 0 against it.
        core, pivots = zpelin._howell_core, []

        def counted(A, p, e):
            out = core(A, p, e)
            pivots.extend(out[1])
            return out

        monkeypatch.setattr(zpelin, "_howell_core", counted)
        zpelin._chain.cache_clear()
        nilpotency_index(rs)
        assert pivots == []

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
