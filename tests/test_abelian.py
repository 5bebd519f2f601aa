import copy
import pickle
import random

import pytest

from cycloclass.abelian import (
    AbHom,
    FinAbGroup,
    IntMatrix,
    cokernel,
    image,
    kernel,
    kernel_basis,
    snf,
    subgroup_generated,
)

import oracles
from oracles import (
    det,
    direct_sum,
    factor_through,
    is_zero_hom,
    is_zero_matrix,
    iso_eq,
    primary_part,
    solve,
    zero_hom,
    zero_matrix,
)


def diag_of(s):
    return [s[i, i] for i in range(min(s.rows, s.cols))]


def random_matrix(rng, rows, cols, bound=50, density=1.0):
    return IntMatrix([[rng.randint(-bound, bound) if rng.random() < density
                       else 0 for _ in range(cols)] for _ in range(rows)],
                     rows, cols)


class TestSnf:
    def test_identity(self):
        m = oracles.cellwise_identity(2)
        diagonal, u, u_inv = snf(m)
        assert diagonal == (1, 1) and u == m and u_inv == m

    def test_coprime_diagonal(self):
        diagonal, _, _ = snf(IntMatrix.diagonal([2, 3]))
        assert diagonal == (1, 6)

    def test_worked_two_by_two(self):
        # reduced by hand with elementary row/column operations
        m = IntMatrix([[4, 6], [2, 2]])
        diagonal, u, _ = snf(m)
        assert diagonal == (2, 2)
        s, oracle_u, v, _ = oracles.oracle_snf(m)
        assert u == oracle_u and u @ m @ v == s

    def test_empty_matrices(self):
        for r, c in [(0, 0), (0, 3), (3, 0)]:
            diagonal, u, u_inv = snf(zero_matrix(r, c))
            assert diagonal == ()
            assert u @ u_inv == oracles.cellwise_identity(r)
            assert (u.rows, u.cols) == (r, r)

    def test_random_matrices(self):
        rng = random.Random(2024)
        for _ in range(1000):
            r = rng.randint(0, 5)
            c = rng.randint(0, 5)
            m = random_matrix(rng, r, c)
            d, u, u_inv = snf(m)
            assert len(d) == min(r, c)
            assert u @ u_inv == oracles.cellwise_identity(r)
            assert u_inv == oracles.inverse_unimodular(u)
            assert abs(det(u)) == 1
            # u @ m is s @ v^-1, whose rows past the rank vanish
            rank = sum(map(bool, d))
            assert is_zero_matrix(IntMatrix((u @ m).data[rank:], r - rank, c))
            for a, b in zip(d, d[1:]):
                assert a >= 0 and b >= 0
                if a:
                    assert b % a == 0
                else:
                    assert b == 0

    def test_oracle_random_matrices(self):
        rng = random.Random(2025)
        for _ in range(300):
            r = rng.randint(0, 5)
            c = rng.randint(0, 5)
            m = random_matrix(rng, r, c)
            s, u, v, u_inv = oracles.oracle_snf(m)
            assert u @ m @ v == s
            assert u @ u_inv == oracles.cellwise_identity(r)
            assert abs(det(v)) == 1
            assert all(s[i, j] == 0 for i in range(r) for j in range(c)
                       if i != j)

    def test_matches_oracle(self):
        # the same diagonal and row transforms as the per-cell SNF with
        # both transforms, which pins every presentation and lift
        rng = random.Random(2026)
        shapes = [(rng.randint(0, 8), rng.randint(0, 8)) for _ in range(600)]
        shapes += [(rng.randint(9, 40), rng.randint(9, 40)) for _ in range(12)]
        shapes += [(20, 20), (40, 40)]
        for r, c in shapes:
            m = random_matrix(rng, r, c, rng.choice([1, 5, 50, 10 ** 6]),
                              rng.choice([1.0, 0.5, 0.1]))
            s, u, _, u_inv = oracles.oracle_snf(m)
            assert snf(m) == (tuple(diag_of(s)), u, u_inv), (r, c)

    def test_kernel_basis(self):
        m = IntMatrix([[2, 4, 0], [0, 0, 3]])
        kb = kernel_basis(m)
        assert kb.cols == 1
        assert is_zero_matrix(m @ kb)

    def test_kernel_basis_spans_the_oracle_kernel(self):
        # the columns of the oracle's v past the rank span the kernel too;
        # each basis solves in terms of the other
        rng = random.Random(2027)
        for _ in range(300):
            r, c = rng.randint(0, 6), rng.randint(0, 6)
            m = random_matrix(rng, r, c, rng.choice([1, 3, 20]),
                              rng.choice([1.0, 0.5]))
            kb = kernel_basis(m)
            s, _, v, _ = oracles.oracle_snf(m)
            rank = sum(map(bool, diag_of(s)))
            ov = IntMatrix.from_columns(v.columns()[rank:], rows=c)
            assert kb.cols == ov.cols and is_zero_matrix(m @ kb)
            for basis, other in ((kb, ov), (ov, kb)):
                for column in basis.columns():
                    assert solve(other, column) is not None

    def test_solver(self):
        m = IntMatrix([[2, 0], [0, 3]])
        assert solve(m, (4, 9)) == (2, 3)
        assert solve(m, (1, 0)) is None

    def test_inverse_unimodular(self):
        # the oracle test_random_matrices checks u_inv against
        m = IntMatrix([[2, 1], [1, 1]])
        assert m @ oracles.inverse_unimodular(m) == \
            oracles.cellwise_identity(2)
        with pytest.raises(ValueError):
            oracles.inverse_unimodular(IntMatrix([[2, 0], [0, 1]]))


class TestFinAbGroup:
    def test_chain_enforced(self):
        with pytest.raises(ValueError):
            FinAbGroup([4, 2])
        with pytest.raises(ValueError):
            FinAbGroup([1, 2])

    def test_crt_normalisation(self):
        assert FinAbGroup.from_cyclic_factors([2, 3]) == FinAbGroup([6])
        assert FinAbGroup.from_cyclic_factors([12, 60]) == FinAbGroup([12, 60])
        assert FinAbGroup.from_cyclic_factors([4, 6]) == FinAbGroup([2, 12])

    def test_normalisation_matches_factoring_oracle(self):
        rng = random.Random(5000)
        small = [1, 2, 3, 4, 6, 8, 9, 12, 16, 25, 27, 30, 36, 60, 64, 97, 210]
        for _ in range(5000):
            factors = [rng.choice(small + [rng.randint(1, 10 ** 6)])
                       for _ in range(rng.randint(0, 8))]
            assert FinAbGroup.from_cyclic_factors(factors) == \
                oracles.factored_cyclic_factors(factors), factors

    def test_normalisation_matches_the_walked_merge(self):
        # inserting a carried gcd where it fits is what merging it down the
        # rest of the chain did; divisor-closed pools make that case common
        rng = random.Random(5001)
        pools = [[1, 2, 4, 8, 16, 32], [1, 2, 3, 4, 6, 8, 12, 24],
                 [2, 3, 5, 6, 10, 15, 30], list(range(1, 40))]
        for _ in range(5000):
            pool = rng.choice(pools)
            factors = [rng.choice(pool) for _ in range(rng.randint(0, 12))]
            assert FinAbGroup.from_cyclic_factors(factors) == \
                oracles.walked_cyclic_factors(factors), factors
        # long chains: the rank-1024 input pinned for tate, shuffled too,
        # and a family whose 2- and 3-parts climb out of step
        pinned = [3 * 2 ** (k % 60) for k in range(1024)]
        shuffled = pinned[:]
        rng.shuffle(shuffled)
        for factors in ([4] + [2] * 500 + [8, 3] + [6] * 200, pinned, shuffled,
                        [2 ** (k % 60) * 3 ** (k % 7) for k in range(1024)]):
            assert FinAbGroup.from_cyclic_factors(factors) == \
                oracles.walked_cyclic_factors(factors)

    def test_normalisation_rejects_non_positive(self):
        for factors in ([0], [2, -3], [4, 1, 0]):
            with pytest.raises(ValueError, match="must be positive"):
                FinAbGroup.from_cyclic_factors(factors)

    def test_trivial(self):
        t = FinAbGroup()
        assert t.is_trivial() and t.order == 1 and t.rank == 0
        assert list(t.elements()) == [()]

    def test_iso_eq(self):
        assert iso_eq(FinAbGroup.from_cyclic_factors([2, 3]), FinAbGroup([6]))
        assert not iso_eq(FinAbGroup([4]), FinAbGroup([2, 2]))
        assert iso_eq(FinAbGroup(), FinAbGroup())


class TestHoms:
    def test_order_respecting(self):
        g, h = FinAbGroup([2]), FinAbGroup([4])
        with pytest.raises(ValueError):
            AbHom(g, h, IntMatrix([[1]]))  # 2*1 is not 0 mod 4
        AbHom(g, h, IntMatrix([[2]]))

    def test_composition_identity(self):
        g = FinAbGroup([2, 4])
        f = AbHom.identity(g)
        assert (f @ f) == f
        assert f((1, 3)) == (1, 3)


class TestCokernel:
    def test_mult_by_five(self):
        # Z --5--> Z presented on a 1x1 relation matrix with trivial target
        # relations is modelled as the quotient of Z/anything large; here the
        # direct statement: quotient of Z^1 by the lattice (5).
        from cycloclass.abelian import present
        pres = present(1, IntMatrix([[5]]))
        assert pres.group == FinAbGroup([5])

    def test_zero_map(self):
        g = FinAbGroup([6])
        q, proj = cokernel(zero_hom(g, g))
        assert q == FinAbGroup([6])
        assert proj((1,)) != proj((0,))

    def test_projection_kills_image(self):
        rng = random.Random(7)
        for _ in range(50):
            a = oracles.random_group(rng, max_order=256, max_rank=3)
            b = oracles.random_group(rng, max_order=256, max_rank=3)
            f = oracles.random_hom(rng, a, b)
            q, proj = cokernel(f)
            composed = proj @ f
            assert is_zero_hom(composed)


class TestKernel:
    def test_identity_kernel(self):
        g = FinAbGroup([6])
        k, incl = kernel(AbHom.identity(g))
        assert k.is_trivial()

    def test_mult_two_on_z4(self):
        g = FinAbGroup([4])
        k, incl = kernel(AbHom(g, g, IntMatrix([[2]])))
        assert k == FinAbGroup([2])
        assert incl((1,)) == (2,)

    def test_doubling_on_exponent_two(self):
        g = FinAbGroup([2, 2, 2])
        f = AbHom(g, g, IntMatrix.diagonal([2, 2, 2]))
        k, incl = kernel(f)
        assert k == g

    def test_inclusion_composes_to_zero(self):
        rng = random.Random(11)
        for _ in range(50):
            a = oracles.random_group(rng, max_order=256, max_rank=3)
            b = oracles.random_group(rng, max_order=256, max_rank=3)
            f = oracles.random_hom(rng, a, b)
            k, incl = kernel(f)
            assert is_zero_hom(f @ incl)


class TestAgainstEnumeration:
    """SNF-based kernels/cokernels/images vs. element enumeration."""

    def test_random_homs(self):
        rng = random.Random(12345)
        for _ in range(500):
            a = oracles.random_group(rng, max_order=10_000, max_rank=4)
            b = oracles.random_group(rng, max_order=10_000, max_rank=4)
            if a.order * b.order > 200_000:
                continue  # keep the enumeration side affordable
            f = oracles.random_hom(rng, a, b)

            k, k_incl = kernel(f)
            kernel_elements = {x for x in a.elements() if f(x) == b.zero()}
            assert oracles.same_structure(k, kernel_elements, a)
            assert {k_incl(x) for x in k.elements()} == kernel_elements

            img, i_incl = image(f)
            image_elements = {f(x) for x in a.elements()}
            assert oracles.same_structure(img, image_elements, b)
            assert {i_incl(x) for x in img.elements()} == image_elements

            assert k.order * img.order == a.order

            q, proj = cokernel(f)
            assert q.order * len(image_elements) == b.order
            n_values = [n for n in range(1, b.exponent + 1) if b.exponent % n == 0]
            assert oracles.quotient_statistics(b, image_elements, n_values) == \
                oracles.expected_statistics(q, b.exponent)


class TestSubquotient:
    """``oracles.subquotient`` against element enumeration on small random
    groups, and ``subgroup_generated`` against it over the zero subgroup."""

    @staticmethod
    def random_columns(rng, g, count):
        return IntMatrix.from_columns(
            [[rng.randrange(d) for d in g.invariant_factors]
             for _ in range(count)], rows=g.rank)

    def test_random_against_enumeration(self):
        rng = random.Random(31)
        inside = outside = 0
        for _ in range(300):
            g = oracles.random_group(rng, max_order=512, max_rank=3)
            top = self.random_columns(rng, g, rng.randint(0, 3))
            if rng.random() < 0.7:
                # combinations of the top generators stay inside <top>
                k = rng.randint(0, 3)
                mix = IntMatrix([[rng.randint(-3, 3) for _ in range(k)]
                                 for _ in range(top.cols)], top.cols, k)
                bottom = top @ mix
            else:
                bottom = self.random_columns(rng, g, rng.randint(1, 2))
            top_elements = oracles.subgroup_closure(
                g, [g.reduce(c) for c in top.columns()])
            bottom_elements = oracles.subgroup_closure(
                g, [g.reduce(c) for c in bottom.columns()])
            if not bottom_elements <= top_elements:
                outside += 1
                with pytest.raises(ValueError):
                    oracles.subquotient(g, top, bottom)
                continue
            inside += 1
            q, lift = oracles.subquotient(g, top, bottom)
            assert q.order * len(bottom_elements) == len(top_elements)
            assert all(c in top_elements for c in lift.columns())
            # |{y in <top> : n*y in <bottom>}| / |<bottom>| is the count of
            # elements of order dividing n in the quotient
            stats = {n: sum(1 for y in top_elements
                            if oracles.scale(g, n, y) in bottom_elements)
                     // len(bottom_elements)
                     for n in oracles.expected_statistics(q, g.exponent)}
            assert stats == oracles.expected_statistics(q, g.exponent)
        assert inside >= 150 and outside >= 20

    def test_rank_zero(self):
        g = FinAbGroup()
        q, lift = oracles.subquotient(g, zero_matrix(0, 2),
                                      zero_matrix(0, 0))
        assert q.is_trivial() and lift.cols == 0

    def test_generated_subgroup_is_the_subquotient_over_zero(self):
        # subgroup_generated is the subquotient with an empty bottom, its
        # remainder check dropped: same group, same lift
        rng = random.Random(32)
        for _ in range(300):
            g = oracles.random_group(rng, max_order=10 ** 5, max_rank=4)
            top = self.random_columns(rng, g, rng.randint(0, 4))
            sub, incl = subgroup_generated(g, top)
            assert (sub, incl.matrix) == oracles.subquotient(
                g, top, zero_matrix(g.rank, 0))
            assert incl.source == sub and incl.target == g


class TestSubgroupsAndParts:
    def test_primary_part(self):
        g = FinAbGroup([12])
        p2, incl = primary_part(g, 2)
        assert p2 == FinAbGroup([4])
        assert incl((1,)) == (3,)

        g2 = FinAbGroup.from_cyclic_factors([2, 2, 4, 4])
        part, _ = primary_part(g2, 2)
        assert part == g2

        assert primary_part(FinAbGroup([15]), 7)[0].is_trivial()
        with pytest.raises(ValueError):
            primary_part(g, 6)

    def test_subgroup_generated(self):
        g = FinAbGroup([4, 4])
        sub, incl = subgroup_generated(g, IntMatrix.from_columns([(2, 2)], rows=2))
        assert sub == FinAbGroup([2])
        assert incl((1,)) == (2, 2)

    def test_factor_through(self):
        g = FinAbGroup([8])
        doubling = AbHom(g, g, IntMatrix([[2]]))
        sub, incl = image(doubling)
        g_to_sub = factor_through(doubling, incl)
        assert (incl @ g_to_sub) == doubling

    def test_direct_sum(self):
        a, b = FinAbGroup([2]), FinAbGroup([3])
        total, (ia, ib), (pa, pb) = direct_sum([a, b])
        assert total == FinAbGroup([6])
        assert (pa @ ia).is_identity()
        assert (pb @ ib).is_identity()
        assert is_zero_hom(pa @ ib)


def _random_matrix(rng, rows, cols, bound=50):
    return IntMatrix([[rng.randint(-bound, bound) for _ in range(cols)]
                      for _ in range(rows)], rows, cols)


def _hom_or_error(build):
    try:
        return build()
    except ValueError as exc:
        return str(exc)


class TestRowwiseAgainstCellwise:
    """The row-wise record layer against the per-cell loops it replaced,
    kept in ``oracles``: the same records, reprs and errors."""

    def test_constructors(self):
        rng = random.Random(2201)
        for n in [0, 1, 2, 3, 7, 31]:
            assert IntMatrix.diagonal((1,) * n) == oracles.cellwise_identity(n)
            entries = [rng.randint(-9, 9) for _ in range(n)]
            d = IntMatrix.diagonal(entries)
            assert d == oracles.cellwise_diagonal(entries)
            assert repr(d) == repr(oracles.cellwise_diagonal(entries))
            assert IntMatrix.diagonal(iter(entries)) == d

    def test_diagonal_at_ranks_to_256(self):
        # the diagonal built of slices: its record, hash, repr, pickle
        # round trip and deepcopy are those of the cell-by-cell one, with
        # small, negative and above-2^64 entries, at every rank to 32 and
        # at 2^k - 1 and 2^k to 256
        rng = random.Random(2207)
        for n in [*range(33), 63, 64, 127, 128, 255, 256]:
            entries = [rng.choice((rng.randint(-9, 9),
                                   -rng.getrandbits(70),
                                   2 ** 64 + rng.getrandbits(80)))
                       for _ in range(n)]
            d = IntMatrix.diagonal(entries)
            cellwise = oracles.cellwise_diagonal(entries)
            assert d == cellwise and hash(d) == hash(cellwise)
            assert repr(d) == repr(cellwise)
            for copied in (pickle.loads(pickle.dumps(d)), copy.deepcopy(d)):
                assert copied == cellwise and hash(copied) == hash(cellwise)
                assert repr(copied) == repr(cellwise)

    def test_scale_and_products(self):
        rng = random.Random(2202)
        for _ in range(300):
            r, k, c = (rng.randint(0, 5) for _ in range(3))
            a, b = _random_matrix(rng, r, k), _random_matrix(rng, k, c)
            assert a @ b == oracles.cellwise_product(a, b)
            assert repr(a @ b) == repr(oracles.cellwise_product(a, b))
            vec = [rng.randint(-9, 9) for _ in range(k)]
            assert a @ vec == oracles.cellwise_product(a, vec)
            assert a.transpose().transpose() == a
            assert IntMatrix.from_columns(a.columns(), rows=r) == a

    def test_shape_errors(self):
        a = zero_matrix(2, 3)
        for other in (zero_matrix(2, 3), (1, 2)):
            with pytest.raises(ValueError) as ours:
                a @ other
            with pytest.raises(ValueError) as cellwise:
                oracles.cellwise_product(a, other)
            assert str(ours.value) == str(cellwise.value)

    def test_hom_normalisation(self):
        # rank 0, elementary abelian 2-groups and general chains; random
        # matrices are mostly rejected for not respecting generator orders,
        # the sloppy random homomorphisms are accepted
        rng = random.Random(2203)
        groups = [FinAbGroup(), FinAbGroup([2]), FinAbGroup([2] * 5)]
        outcomes = set()
        for _ in range(600):
            source, target = (rng.choice(groups) if rng.random() < 0.3
                              else oracles.random_group(rng, 10 ** 6, 5)
                              for _ in range(2))
            if rng.random() < 0.5:
                matrix = oracles.random_hom(rng, source, target).matrix
                matrix = matrix + oracles.cellwise_scale(
                    _random_matrix(rng, target.rank, source.rank, 2),
                    rng.choice([0, 0, 1, target.exponent]))
            else:
                matrix = _random_matrix(rng, target.rank, source.rank, 100)
            ours = _hom_or_error(lambda: AbHom(source, target, matrix))
            cellwise = _hom_or_error(
                lambda: oracles.cellwise_hom_matrix(source, target, matrix))
            if isinstance(ours, str):
                assert ours == cellwise
                outcomes.add(ours)
            else:
                assert ours.matrix == cellwise
                assert repr(ours.matrix) == repr(cellwise)
                outcomes.add("accepted")
        assert outcomes == {"accepted",
                            "matrix does not respect generator orders"}

    def test_scalar_homs_are_the_checked_ones(self):
        # AbHom.scalar normalises c mod d_i through the checked
        # constructor: its matrix is the one the per-cell normalisation
        # gives
        rng = random.Random(2206)
        groups = [FinAbGroup(), FinAbGroup([2] * 3), FinAbGroup([2 ** 64])]
        groups += [oracles.random_group(rng, 10 ** 6, 5) for _ in range(200)]
        for g in groups:
            for c in (-1, 0, 1, 2, 3, -7, 10 ** 20):
                scaled = oracles.cellwise_scale(
                    oracles.cellwise_identity(g.rank), c)
                cellwise = oracles.cellwise_hom_matrix(g, g, scaled)
                hom = AbHom.scalar(g, c)
                assert hom == AbHom(g, g, cellwise) and hom.matrix == cellwise
                assert repr(hom.matrix) == repr(cellwise)
            assert AbHom.identity(g) == AbHom.scalar(g, 1)

    def test_hom_shape_error(self):
        g = FinAbGroup([4])
        matrix = zero_matrix(2, 1)
        assert _hom_or_error(lambda: AbHom(g, g, matrix)) == _hom_or_error(
            lambda: oracles.cellwise_hom_matrix(g, g, matrix)) == \
            "matrix shape does not match groups"
