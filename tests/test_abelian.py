import random

import pytest

from cycloclass.abelian import (
    AbHom,
    FinAbGroup,
    IntMatrix,
    cokernel,
    direct_sum,
    image,
    kernel,
    kernel_basis,
    snf,
    subgroup_generated,
    subquotient,
)

import oracles
from oracles import det, factor_through, iso_eq, primary_part, solve


def diag_of(s):
    return [s[i, i] for i in range(min(s.rows, s.cols))]


class TestSnf:
    def test_identity(self):
        m = IntMatrix.identity(2)
        s, u, v, u_inv = snf(m)
        assert s == m and u == m and v == m and u_inv == m

    def test_coprime_diagonal(self):
        s, _, _, _ = snf(IntMatrix.diagonal([2, 3]))
        assert diag_of(s) == [1, 6]

    def test_worked_two_by_two(self):
        # reduced by hand with elementary row/column operations
        m = IntMatrix([[4, 6], [2, 2]])
        s, u, v, _ = snf(m)
        assert diag_of(s) == [2, 2]
        assert u @ m @ v == s

    def test_empty_matrices(self):
        for r, c in [(0, 0), (0, 3), (3, 0)]:
            m = IntMatrix.zero(r, c)
            s, u, v, u_inv = snf(m)
            assert u @ m @ v == s
            assert u @ u_inv == IntMatrix.identity(r)
            assert (s.rows, s.cols) == (r, c)

    def test_random_matrices(self):
        rng = random.Random(2024)
        for _ in range(1000):
            r = rng.randint(0, 5)
            c = rng.randint(0, 5)
            m = IntMatrix([[rng.randint(-50, 50) for _ in range(c)]
                           for _ in range(r)], r, c)
            s, u, v, u_inv = snf(m)
            assert u @ m @ v == s
            assert u @ u_inv == IntMatrix.identity(r)
            assert u_inv == oracles.inverse_unimodular(u)
            assert abs(det(u)) == 1
            assert abs(det(v)) == 1
            d = diag_of(s)
            for i in range(r):
                for j in range(c):
                    if i != j:
                        assert s[i, j] == 0
            for a, b in zip(d, d[1:]):
                assert a >= 0 and b >= 0
                if a:
                    assert b % a == 0
                else:
                    assert b == 0

    def test_kernel_basis(self):
        m = IntMatrix([[2, 4, 0], [0, 0, 3]])
        kb = kernel_basis(m)
        assert kb.cols == 1
        assert (m @ kb).is_zero()

    def test_solver(self):
        m = IntMatrix([[2, 0], [0, 3]])
        assert solve(m, (4, 9)) == (2, 3)
        assert solve(m, (1, 0)) is None

    def test_inverse_unimodular(self):
        # the oracle test_random_matrices checks u_inv against
        m = IntMatrix([[2, 1], [1, 1]])
        assert m @ oracles.inverse_unimodular(m) == IntMatrix.identity(2)
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
        q, proj = cokernel(AbHom.zero(g, g))
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
            assert composed.is_zero()


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
            assert (f @ incl).is_zero()


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
    """subquotient against element enumeration on small random groups."""

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
                    subquotient(g, top, bottom)
                continue
            inside += 1
            q, lift = subquotient(g, top, bottom)
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
        q, lift = subquotient(g, IntMatrix.zero(0, 2), IntMatrix.zero(0, 0))
        assert q.is_trivial() and lift.cols == 0


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
        assert (pa @ ib).is_zero()
