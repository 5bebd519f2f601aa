import random

import pytest

from cycloclass import abelian
from cycloclass.abelian import AbHom, FinAbGroup, IntMatrix
from cycloclass.involutive import InvModule, _scalar_sign, tate
from cycloclass.ktheory import km_v_module

import oracles
from oracles import (
    eigen_set,
    module_sum,
    norm_image_set,
    primary_part_module,
    signed_module,
    swap_square,
    with_trivial,
)


def enumerate_eigen(module, sign):
    g = module.group
    return {x for x in g.elements()
            if module.conjugate(x) == oracles.scale(g, sign, x)}


def enumerate_norm_image(module, sign):
    g = module.group
    return {oracles.add(g, x, oracles.scale(g, sign, module.conjugate(x)))
            for x in g.elements()}


def random_module(rng, max_order=4096, max_rank=4):
    g = oracles.random_group(rng, max_order=max_order, max_rank=max_rank)
    return InvModule(g, oracles.random_involution(rng, g))


class TestConstruction:
    def test_involution_validated(self):
        g = FinAbGroup([5])
        with pytest.raises(ValueError):
            InvModule(g, AbHom(g, g, IntMatrix([[2]])))  # 2^2 = 4 != 1 mod 5
        InvModule(g, AbHom(g, g, IntMatrix([[4]])))  # -1 is fine


class TestEigenSet:
    def test_elementary_two_group_trivial_involution(self):
        m = with_trivial(FinAbGroup([2, 2, 2]))
        sub, _ = eigen_set(m, -1)
        assert sub == FinAbGroup([2, 2, 2])

    def test_negation_on_z4(self):
        m = InvModule.with_negation(FinAbGroup([4]))
        sub, _ = eigen_set(m, -1)
        assert sub == FinAbGroup([4])

    def test_odd_order_trivial_involution(self):
        m = with_trivial(FinAbGroup([5]))
        sub, _ = eigen_set(m, -1)
        assert sub.is_trivial()


class TestNormImageSet:
    def test_two_torsion_of_class_group_shape(self):
        g = FinAbGroup.from_cyclic_factors([2, 2, 4, 4])
        m = InvModule.with_negation(g)
        sub, _ = norm_image_set(m, -1)
        assert sub == FinAbGroup([2, 2])

    def test_negation_on_z4(self):
        m = InvModule.with_negation(FinAbGroup([4]))
        sub, _ = norm_image_set(m, -1)
        assert sub == FinAbGroup([2])

    def test_trivial_involution_kills_minus_norm(self):
        rng = random.Random(5)
        for _ in range(10):
            m = with_trivial(oracles.random_group(rng, 512, 3))
            sub, _ = norm_image_set(m, -1)
            assert sub.is_trivial()

    def test_contained_in_eigen_set(self):
        rng = random.Random(6)
        for _ in range(60):
            m = random_module(rng, max_order=1024)
            for sign in (1, -1):
                norm_sub, norm_incl = norm_image_set(m, sign)
                eig_sub, eig_incl = eigen_set(m, sign)
                norm_elems = {norm_incl(x) for x in norm_sub.elements()}
                eig_elems = {eig_incl(x) for x in eig_sub.elements()}
                assert norm_elems <= eig_elems


class TestTate:
    def test_full_fixed_group(self):
        m = with_trivial(FinAbGroup([2, 2, 2]))
        # eigen(-1) is everything, the norm image is 0: checked by the
        # enumeration oracle as well
        assert tate(m, 1) == FinAbGroup([2, 2, 2])
        assert enumerate_eigen(m, -1) == set(m.group.elements())
        assert enumerate_norm_image(m, -1) == {m.group.zero()}

    def test_coprime_order_vanishes(self):
        g = FinAbGroup([15])
        for inv in (with_trivial(g), InvModule.with_negation(g)):
            for n in (0, 1, 2, 3):
                assert tate(inv, n).is_trivial()

    def test_two_periodicity(self):
        rng = random.Random(9)
        for _ in range(40):
            m = random_module(rng, max_order=2048)
            assert tate(m, 0) == tate(m, 2)
            assert tate(m, 1) == tate(m, 3)
            assert tate(m, -1) == tate(m, 1)
            assert tate(m, -2) == tate(m, 0)
            assert tate(m, -3) == tate(m, 1)

    def test_herbrand_and_elementary(self):
        # equal orders in the two parities; always an elementary 2-group
        rng = random.Random(10)
        for _ in range(1000):
            m = random_module(rng, max_order=4096)
            t0, t1 = tate(m, 0), tate(m, 1)
            assert t0.order == t1.order
            for t in (t0, t1):
                assert all(d == 2 for d in t.invariant_factors)

    def test_against_enumeration(self):
        rng = random.Random(11)
        for _ in range(250):
            m = random_module(rng, max_order=1024)
            for n in (0, 1):
                sign = 1 if n % 2 == 0 else -1
                eig = enumerate_eigen(m, sign)
                nrm = enumerate_norm_image(m, sign)
                t = tate(m, n)
                assert t.order * len(nrm) == len(eig)

    def test_matches_oracle_tate(self):
        # the one-step subquotient against the three-step pipeline it
        # replaced: eigen-set, norm map corestricted into it, cokernel
        rng = random.Random(424243)
        for _ in range(1000):
            m = random_module(rng, max_order=4096)
            for n in (0, 1):
                assert tate(m, n) == oracles.oracle_tate(m, n)
        for level in range(3, 10):
            m = km_v_module(level)
            for n in (0, 1):
                assert tate(m, n) == oracles.oracle_tate(m, n), level

    def test_two_part_carries_everything(self):
        rng = random.Random(12)
        for _ in range(80):
            m = random_module(rng, max_order=4096)
            m2 = primary_part_module(m, 2)
            for n in (0, 1):
                assert tate(m, n) == tate(m2, n)


@pytest.fixture
def snf_calls(monkeypatch):
    """Record every Smith normal form the program computes."""
    calls = []
    real = abelian.snf

    def counting(m):
        calls.append((m.rows, m.cols))
        return real(m)

    monkeypatch.setattr(abelian, "snf", counting)
    return calls


class TestScalarInvolution:
    """The closed form for involutions +-id against the three-step oracle:
    (Z/2)^k in both degrees, k the number of even invariant factors."""

    def test_random_signed_modules(self):
        rng = random.Random(7071)
        for _ in range(1000):
            g = oracles.random_group(rng, max_order=4096)
            m = signed_module(g, rng.choice([1, -1]))
            assert _scalar_sign(g, m.involution) is not None
            for n in (0, 1):
                assert tate(m, n) == oracles.oracle_tate(m, n)

    def test_odd_factors(self):
        rng = random.Random(7072)
        for _ in range(200):
            g = FinAbGroup.from_cyclic_factors(
                [rng.choice([1, 2, 4, 8]) * rng.choice([1, 3, 5, 9, 15, 49])
                 for _ in range(rng.randint(1, 4))])
            for sign in (1, -1):
                m = signed_module(g, sign)
                for n in (0, 1):
                    assert tate(m, n) == oracles.oracle_tate(m, n)

    def test_direct_sum_of_equal_signs(self):
        rng = random.Random(7073)
        for _ in range(60):
            sign = rng.choice([1, -1])
            s = module_sum(
                signed_module(oracles.random_group(rng, 256, 3), sign),
                signed_module(oracles.random_group(rng, 256, 3), sign))
            assert _scalar_sign(s.group, s.involution) is not None
            for n in (0, 1):
                assert tate(s, n) == oracles.oracle_tate(s, n)

    def test_km_ladder_computes_no_snf(self, snf_calls):
        m = km_v_module(9)
        for n in (0, 1):
            assert tate(m, n) == FinAbGroup([2] * 127)
        assert snf_calls == []

    def test_z2_signs_coincide(self):
        g = FinAbGroup([2])
        m = InvModule.with_negation(g)
        assert m == with_trivial(g)
        assert _scalar_sign(g, m.involution) == 1
        for n in (0, 1):
            assert tate(m, n) == oracles.oracle_tate(m, n) == g

    def test_trivial_group(self):
        m = InvModule.with_negation(FinAbGroup())
        assert _scalar_sign(m.group, m.involution) is not None
        for n in (0, 1):
            assert tate(m, n) == oracles.oracle_tate(m, n) == FinAbGroup()

    def test_sign_against_the_cellwise_scan(self):
        # scalar, near-scalar (one cell moved) and random endomorphisms,
        # with rank 0 and elementary abelian 2-groups, where both signs fit
        # and 1 is returned
        rng = random.Random(2204)
        found = set()
        for trial in range(1500):
            g = (FinAbGroup([2] * rng.randint(0, 6)) if trial % 5 == 0
                 else oracles.random_group(rng, max_order=10 ** 6, max_rank=5))
            kind = rng.choice(["scalar", "near", "random", "involution"])
            if kind == "random":
                f = oracles.random_hom(rng, g, g)
            elif kind == "involution":
                f = oracles.random_involution(rng, g)
            else:
                f = signed_module(g, rng.choice([1, -1])).involution
                if kind == "near" and g.rank:
                    rows = [list(r) for r in f.matrix.data]
                    # d_i divides d_j, so any entry respects the orders
                    i = rng.randrange(g.rank)
                    j = rng.randrange(i, g.rank)
                    rows[i][j] += rng.choice([1, -1, g.invariant_factors[i]])
                    f = AbHom(g, g, IntMatrix(rows))
            sign = _scalar_sign(g, f)
            assert sign == oracles.cellwise_scalar_sign(g, f)
            if g.exponent <= 2 and sign is not None:
                assert sign == 1
            found.add(sign)
        assert found == {1, -1, None}

    def test_negation_record_is_the_scaled_identity(self):
        rng = random.Random(2205)
        groups = [FinAbGroup(), FinAbGroup([2] * 4),
                  *(km_v_module(n).group for n in range(3, 10)),
                  *(oracles.random_group(rng, 10 ** 6, 5) for _ in range(200))]
        for g in groups:
            m = InvModule.with_negation(g)
            scaled = InvModule(g, AbHom(g, g, oracles.cellwise_scale(
                oracles.cellwise_identity(g.rank), -1)))
            assert m == scaled and hash(m) == hash(scaled)
            assert repr(m) == repr(scaled)

    def test_non_scalar_takes_the_subquotient(self, snf_calls):
        g = FinAbGroup([4, 4])
        m = InvModule(g, AbHom(g, g, IntMatrix.diagonal([1, -1])))
        assert _scalar_sign(g, m.involution) is None
        for n in (0, 1):
            snf_calls.clear()
            assert tate(m, n) == FinAbGroup([2, 2])
            assert snf_calls
            assert oracles.oracle_tate(m, n) == FinAbGroup([2, 2])


class TestDirectSum:
    def test_trivial_summands(self):
        t = with_trivial(FinAbGroup())
        assert module_sum(t, t).group.is_trivial()

    def test_tate_additive(self):
        a = with_trivial(FinAbGroup([2]))
        b = InvModule.with_negation(FinAbGroup([4]))
        s = module_sum(a, b)
        assert tate(s, 1) == FinAbGroup([2, 2])

    def test_sum_with_trivial_is_same(self):
        m = InvModule.with_negation(FinAbGroup([8]))
        s = module_sum(m, with_trivial(FinAbGroup()))
        assert s.group == m.group
        assert tate(s, 0) == tate(m, 0)

    def test_tate_additive_random(self):
        rng = random.Random(13)
        for _ in range(40):
            a = random_module(rng, max_order=256, max_rank=3)
            b = random_module(rng, max_order=256, max_rank=3)
            s = module_sum(a, b)
            for n in (0, 1):
                combined = FinAbGroup.from_cyclic_factors(
                    tate(a, n).invariant_factors + tate(b, n).invariant_factors)
                assert tate(s, n) == combined


class TestSwapSquare:
    def test_z3_eigen_set(self):
        m = swap_square(with_trivial(FinAbGroup([3])))
        eig, _ = eigen_set(m, -1)
        assert eig == FinAbGroup([3])
        nrm, _ = norm_image_set(m, -1)
        assert nrm == FinAbGroup([3])

    def test_trivial_input(self):
        m = swap_square(with_trivial(FinAbGroup()))
        assert m.group.is_trivial()

    def test_tate_always_trivial(self):
        rng = random.Random(14)
        for _ in range(40):
            base = random_module(rng, max_order=64, max_rank=3)
            sq = swap_square(base)
            for n in (0, 1):
                assert tate(sq, n).is_trivial()
            # double-checked by enumeration on the small instances
            for sign in (1, -1):
                assert enumerate_eigen(sq, sign) == enumerate_norm_image(sq, sign)


def random_submodule(rng, module):
    """A random involution-closed subgroup, as a set of elements."""
    g = module.group
    pool = list(g.elements())
    gens = [rng.choice(pool) for _ in range(rng.randint(0, 2))]
    gens += [module.conjugate(x) for x in gens]
    return oracles.subgroup_closure(g, gens)


class _EnumeratedTate:
    """Tate classes of one module of a short exact sequence, by enumeration.

    Elements of the quotient module are represented by the minimal element
    of their coset, so A, B and B/A all live in the coordinate space of B.
    """

    def __init__(self, elements, conj, add, scale, n):
        sign = 1 if n % 2 == 0 else -1
        self.add = add
        self.eigen = [x for x in elements if conj(x) == scale(sign, x)]
        self.norms = {add(x, scale(sign, conj(x))) for x in elements}

    def cls(self, x):
        return min(self.add(x, v) for v in self.norms)

    def classes(self):
        return {self.cls(x) for x in self.eigen}

    def zero_class(self):
        return min(self.norms)


class TestSixTermExactness:
    """The 6-periodic Tate sequence of a short exact sequence is exact.

    For a random involution-closed subgroup A of B with quotient C, all six
    maps (two induced inclusions/projections per degree and the two
    connecting maps) are computed on enumerated Tate classes, and kernel =
    image is checked at every node.
    """

    def test_random_instances(self):
        rng = random.Random(15)
        checked = 0
        while checked < 50:
            module = random_module(rng, max_order=1024, max_rank=4)
            g = module.group
            if g.is_trivial():
                continue
            a_elements = random_submodule(rng, module)
            if len(a_elements) in (1, g.order):
                continue
            checked += 1

            conj = {x: module.conjugate(x) for x in g.elements()}
            coset = {x: min(oracles.add(g, x, s) for s in a_elements)
                     for x in g.elements()}
            reps = sorted(set(coset.values()))

            def b_add(x, y):
                return oracles.add(g, x, y)

            def b_scale(s, x):
                return oracles.scale(g, s, x)

            h = {}
            for n in (0, 1):
                h["A", n] = _EnumeratedTate(
                    sorted(a_elements), lambda x: conj[x], b_add, b_scale, n)
                h["B", n] = _EnumeratedTate(
                    list(g.elements()), lambda x: conj[x], b_add, b_scale, n)
                h["C", n] = _EnumeratedTate(
                    reps, lambda x: coset[conj[x]],
                    lambda x, y: coset[b_add(x, y)],
                    lambda s, x: coset[b_scale(s, x)], n)

            def induced(src, dst, mapping):
                return {dst.cls(mapping(x)) for x in src.eigen}

            def kernel_classes(src, dst, mapping):
                zero = dst.zero_class()
                return {src.cls(x) for x in src.eigen
                        if dst.cls(mapping(x)) == zero}

            # the six maps; the connecting map sends the class of c (a coset
            # representative, hence already a lift) to b - sign*conj(b)
            for n in (0, 1):
                sign = 1 if n % 2 == 0 else -1
                a_n, b_n, c_n = h["A", n], h["B", n], h["C", n]
                a_next = h["A", 1 - n]

                alpha = (a_n, b_n, lambda x: x)
                beta = (b_n, c_n, lambda x: coset[x])
                delta = (c_n, a_next,
                         lambda x, s=sign: b_add(x, b_scale(-s, conj[x])))

                # exactness at H^n(B), H^n(C), H^(n+1)(A)
                assert kernel_classes(*beta) == induced(*alpha)
                assert kernel_classes(*delta) == induced(*beta)
                alpha_next = (a_next, h["B", 1 - n], lambda x: x)
                assert kernel_classes(*alpha_next) == induced(*delta)


class TestSubQuotientBehaviour:
    """Eigen-sets are left exact; norm images inject from a submodule and
    surject onto the quotient.  Checked on enumerated instances."""

    def test_random_instances(self):
        rng = random.Random(16)
        checked = 0
        while checked < 60:
            module = random_module(rng, max_order=512, max_rank=4)
            g = module.group
            if g.is_trivial():
                continue
            a_elements = random_submodule(rng, module)
            checked += 1
            conj = {x: module.conjugate(x) for x in g.elements()}
            coset = {x: min(oracles.add(g, x, s) for s in a_elements)
                     for x in g.elements()}
            for sign in (1, -1):
                eig_b = {x for x in g.elements()
                         if conj[x] == oracles.scale(g, sign, x)}
                eig_a = {x for x in a_elements
                         if conj[x] == oracles.scale(g, sign, x)}
                # left exactness: the part of eig(B) that dies in C is eig(A)
                zero_coset = coset[g.zero()]
                assert {x for x in eig_b if coset[x] == zero_coset} == eig_a

                nrm_a = {oracles.add(g, x, oracles.scale(g, sign, conj[x]))
                         for x in a_elements}
                nrm_b = {oracles.add(g, x, oracles.scale(g, sign, conj[x]))
                         for x in g.elements()}
                nrm_c = {coset[oracles.add(g, x, oracles.scale(g, sign, conj[x]))]
                         for x in coset.values()}
                assert nrm_a <= nrm_b
                assert {coset[v] for v in nrm_b} == nrm_c
