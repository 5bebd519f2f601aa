from functools import lru_cache
from math import gcd

import pytest
from sympy import factorint

from cycloclass.abelian import FinAbGroup, image
from cycloclass.involutive import InvModule, Sign, eigen_set
from cycloclass.residue import (
    UnsupportedModulusError,
    c_bound,
    cyclotomic_int,
    psi_plus_presentation,
    residue_units,
    unit_quotient,
    vtilde,
)
from oracles import (
    lambda_min_poly_int,
    oracle_lambda_units,
    oracle_residue_units,
    oracle_unit_quotient,
    oracle_vtilde,
    oracle_vtilde_module,
    pgcd,
    pnormal,
    vtilde_module,
)


@lru_cache(maxsize=None)
def brute_force_unit_count(p, n):
    """Count invertible elements of F_p[x]/Phi_n(x) by enumeration."""
    phi = pnormal(cyclotomic_int(n), p)
    deg = len(phi) - 1
    count = 0
    for code in range(p ** deg):
        coeffs = []
        v = code
        for _ in range(deg):
            coeffs.append(v % p)
            v //= p
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        if len(pgcd(tuple(coeffs), phi, p)) == 1:
            count += 1
    return count


SMALL_PRIMES = [2, 3, 5, 7, 11, 13]


class TestResidueRingUnits:
    def test_f7_zeta3_splits(self):
        u = residue_units(7, 3)
        assert u.field_degree == 1 and u.factor_count == 2
        assert u.group == FinAbGroup([6, 6])

    def test_f2_zeta11_is_one_field(self):
        u = residue_units(2, 11)
        assert u.factor_count == 1 and u.field_degree == 10
        assert u.group == FinAbGroup([1023])
        assert brute_force_unit_count(2, 11) == 1023

    def test_trivial_modulus(self):
        for p in (3, 5, 11):
            assert residue_units(p, 1).group == FinAbGroup([p - 1])
            assert residue_units(p, 2).group == FinAbGroup([p - 1])

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            residue_units(6, 5)
        with pytest.raises(ValueError):
            residue_units(3, 6)

    def test_orders_against_enumeration(self):
        # all feasible (p, n) with the field order capped at 2^16
        checked = 0
        for p in SMALL_PRIMES:
            for n in range(1, 41):
                if gcd(p, n) != 1:
                    continue
                from cycloclass.residue import order_mod
                from sympy import totient
                f = order_mod(p, n)
                if p ** f > 2 ** 16 or p ** int(totient(n)) > 2 ** 18:
                    continue
                u = residue_units(p, n)
                assert u.group.order == brute_force_unit_count(p, n), (p, n)
                assert u.group.order == (p ** u.field_degree - 1) ** u.factor_count
                checked += 1
        assert checked >= 60

    def test_dlog_round_trip(self):
        u = oracle_residue_units(3, 7)  # one factor of order 728
        field = u.factors[0]
        for k in range(0, 728, 7):
            assert field.dlog(field.pow(field.generator, k)) == k
        u2 = oracle_residue_units(2, 11)
        field2 = u2.factors[0]
        for k in (0, 1, 17, 512, 1022):
            assert field2.dlog(field2.pow(field2.generator, k)) == k

    def test_project_non_unit_rejected(self):
        u = oracle_residue_units(3, 7)
        with pytest.raises(ZeroDivisionError):
            u.project((0,))

    def test_conjugation_is_involution(self):
        for p, n in [(7, 3), (3, 7), (2, 11), (3, 5), (2, 15)]:
            u = oracle_residue_units(p, n)
            conj = u.conjugation()
            assert (conj @ conj).is_identity()
            # conjugation fixes the projection of any rational integer
            two = u.project((2,)) if p != 2 else u.project((1, 1, 1))
            if p != 2:
                assert conj(two) == two


class TestLambdaUnits:
    def test_f7_lambda3_is_prime_field(self):
        l = oracle_lambda_units(7, 3)
        assert l.group == FinAbGroup([6])
        img, _ = image(l.embedding)
        assert img.order == 6

    def test_f2_lambda13(self):
        # the order of 2 in (Z/13)^x/{+-1} is 6
        l = oracle_lambda_units(2, 13)
        assert l.group == FinAbGroup([63])

    def test_f3_lambda7(self):
        # the order of 3 in (Z/7)^x/{+-1} is 3
        l = oracle_lambda_units(3, 7)
        assert l.group == FinAbGroup([26])

    def test_lambda_poly_values(self):
        assert lambda_min_poly_int(3) == (1, 1)
        assert lambda_min_poly_int(5) == (-1, 1, 1)
        assert lambda_min_poly_int(15) == (1, 4, -4, -1, 1)

    def test_embedding_injective(self):
        for p, n in [(3, 5), (5, 3), (2, 15), (3, 11), (7, 5)]:
            l = oracle_lambda_units(p, n)
            img, _ = image(l.embedding)
            assert img.order == l.group.order


class TestUnitQuotient:
    @pytest.mark.parametrize("p,n,expected", [
        (3, 7, [28]),
        (7, 3, [6]),
        (2, 11, [33]),
        (3, 5, [10]),
        (5, 3, [6]),
        (2, 15, [15]),
    ])
    def test_known_quotients(self, p, n, expected):
        assert unit_quotient(p, n).group == FinAbGroup(expected)

    def test_quotient_order_is_exact_ratio(self):
        for p, n in [(3, 7), (2, 13), (5, 7), (2, 29)]:
            q = oracle_unit_quotient(p, n)
            assert q.group.order * oracle_lambda_units(p, n).order == \
                oracle_residue_units(p, n).order

    def test_torus_matches_oracle_quotient(self):
        # every pair of the enumeration range, against the quotient of the
        # discrete-log coordinates by the embedded lambda-units
        checked = 0
        for p in SMALL_PRIMES:
            for n in range(1, 41):
                if gcd(p, n) != 1:
                    continue
                from cycloclass.residue import order_mod
                from sympy import totient
                f = order_mod(p, n)
                if p ** f > 2 ** 16 or p ** int(totient(n)) > 2 ** 18:
                    continue
                assert unit_quotient(p, n).group == \
                    oracle_unit_quotient(p, n).group, (p, n)
                checked += 1
        assert checked >= 60

    def test_images_embed_the_field_elements(self):
        # The coordinates of zeta^(2e) and -zeta^a satisfy exactly the
        # relations that the field elements satisfy, in every factor field.
        for p, n in [(3, 7), (7, 3), (2, 11), (3, 5), (2, 15), (5, 12),
                     (13, 14), (11, 10), (2, 9)]:
            uq = unit_quotient(p, n)
            order = uq.group.exponent
            fields = oracle_residue_units(p, n).factors
            for e, a in [(1, 1), (2, n - 2), (n - 1, n - 1)]:
                zeta_coords, u_coords = uq.images(e, a)
                assert len(set(zeta_coords)) == len(set(u_coords)) == 1
                cz, cu = zeta_coords[0], u_coords[0]
                for field in fields:
                    x = field.embed((0, 1))
                    yz = field.pow(x, 2 * e)
                    yu = field.mul(field.embed((-1,)), field.pow(x, a))
                    for s in range(2 * n):
                        for t in range(2 * n):
                            y = field.mul(field.pow(yz, s), field.pow(yu, t))
                            assert ((s * cz + t * cu) % order == 0) == \
                                (y == field.one()), (p, n, e, a, s, t)

    def test_projection_kills_lambda_units(self):
        q = oracle_unit_quotient(7, 3)
        # -1 and any rational integer are real, so they die
        assert q.project((3,)) == q.group.zero()
        assert q.project((-1,)) == q.group.zero()
        # zeta_3 itself does not
        assert q.project((0, 1)) != q.group.zero()


class TestPsiPlusPresentation:
    def test_m21_coordinate_orders(self):
        hom = psi_plus_presentation(21)
        # target is Z/28 + Z/6 in some normalised order
        assert hom.target.order == 28 * 6
        zeta = hom((1, 0))
        image_order = _element_order(hom.target, zeta)
        assert image_order == 21  # coordinates of orders 7 and 3

    def test_m21_one_minus_zeta_second_coordinate(self):
        # The class of 1 - zeta_3 in F_7[zeta_3]^x / F_7^x generates the
        # Z/6 quotient, i.e. it is "-1" up to the orientation of the
        # isomorphism.  Invariantly: it has order 6 and its double is the
        # class of zeta_3, because (1 - zeta_3)^2 = -3 zeta_3 with -3 real.
        q = oracle_unit_quotient(7, 3)
        one_minus_zeta = q.project((1, -1))
        zeta = q.project((0, 1))
        assert _element_order(q.group, one_minus_zeta) == 6
        assert q.group.reduce(tuple(2 * c for c in one_minus_zeta)) == zeta

    def test_m15_cokernel_even(self):
        group = vtilde(15)
        assert group.order % 2 == 0

    def test_unsupported_rejected(self):
        with pytest.raises(UnsupportedModulusError):
            psi_plus_presentation(105)  # three odd primes
        with pytest.raises(UnsupportedModulusError):
            psi_plus_presentation(12)  # not square-free


def _element_order(group, element):
    order = 1
    current = element
    while any(current):
        current = group.reduce(tuple(a + b for a, b in zip(current, element)))
        order += 1
    return order


class TestVtilde:
    def test_v21(self):
        assert vtilde(21) == FinAbGroup([4])

    def test_primes_trivial(self):
        for p in (2, 3, 5, 7, 11, 13, 29):
            assert vtilde(p).is_trivial()

    def test_v30_divisible_by_ten(self):
        assert vtilde(30).order % 10 == 0

    def test_v15(self):
        # pinned by the kernel-group data: |D(ZC_15)| = 2 forces exactly Z/2
        assert vtilde(15) == FinAbGroup([2])

    def test_negation_involution(self):
        # the conjugation-induced involution on the cokernel is negation,
        # for every supported square-free composite up to 60
        for m in (6, 10, 14, 15, 21, 22, 26, 30, 33, 34, 35, 38, 39, 42,
                  46, 51, 55, 57, 58):
            module = vtilde_module(m)
            sub, _ = eigen_set(module, Sign.MINUS)
            assert sub == module.group, m

    def test_unsupported(self):
        with pytest.raises(UnsupportedModulusError):
            vtilde(165)

    def test_matches_oracle(self):
        checked = 0
        for m in range(2, 101):
            primes = factorint(m)
            if any(e > 1 for e in primes.values()) or not (
                    len(primes) == 2 or (len(primes) == 3 and 2 in primes)):
                continue
            assert vtilde(m) == oracle_vtilde(m), m
            assert oracle_vtilde_module(m) == \
                InvModule.with_negation(vtilde(m)), m
            checked += 1
        assert checked == 35

    def test_large_moduli(self):
        # 2,141,993,519,227 divides 17^22 - 1: the discrete-log oracle took
        # about six minutes over its baby-step tables for vtilde(391).  The
        # value at 667 was checked by discrete logs in the factor fields,
        # restricted to the subgroups of order dividing 2m.
        assert vtilde(391) == FinAbGroup([3432053666666696059134])
        assert vtilde(667) == FinAbGroup([117407774,
                                          903056654444493507063028])


class TestCBound:
    def test_two_p_table(self):
        for p, expected in [(11, 3), (13, 5), (17, 17), (19, 27), (29, 565)]:
            assert c_bound(2 * p) == expected

    def test_pq_table(self):
        for (p, q), expected in [((3, 5), 2), ((3, 7), 4), ((3, 11), 44),
                                 ((5, 7), 90), ((3, 13), 104)]:
            assert c_bound(p * q) == expected

    def test_c30(self):
        assert c_bound(30) == 10

    def test_divides_vtilde(self):
        for m in (15, 21, 22, 26, 33, 30, 34, 35):
            assert vtilde(m).order % c_bound(m) == 0, m

    def test_unsupported(self):
        with pytest.raises(UnsupportedModulusError):
            c_bound(42)
        with pytest.raises(UnsupportedModulusError):
            c_bound(8)
