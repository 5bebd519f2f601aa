import random
from math import prod

import pytest

from cycloclass.abelian import FinAbGroup
from cycloclass.arith import UnsupportedModulusError
from cycloclass.classnumber import h_is_odd
from cycloclass.involutive import _scalar_sign, tate
from cycloclass.ktheory import (
    KM_LEVEL_CEILING,
    ScopeError,
    _class_parts,
    _exact_k0_module,
    _j_and_i,
    _wh_fields,
    a_m,
    d_divisibility_bound,
    km_v_module,
    nk1_vanishes,
    squarefree,
    stored_d_group,
    wh_rank,
    wh_structure,
)

import oracles


class TestWhRank:
    @pytest.mark.parametrize("m,expected", [
        (2, 0), (3, 0), (4, 0), (5, 1), (6, 0), (7, 2), (12, 1), (13, 5),
    ])
    def test_values(self, m, expected):
        assert wh_rank(m) == expected


class TestNk1:
    def test_squarefree(self):
        assert nk1_vanishes(6)
        assert nk1_vanishes(1)
        assert not nk1_vanishes(4)
        assert not nk1_vanishes(12)


class TestKmModule:
    def test_small_levels(self):
        assert km_v_module(2).group.is_trivial()
        assert km_v_module(1).group.is_trivial()
        assert km_v_module(3).group == FinAbGroup([2])
        assert km_v_module(4).group == FinAbGroup.from_cyclic_factors([2, 2, 4])

    def test_involution_is_negation(self):
        m = km_v_module(5)
        x = tuple(1 for _ in range(m.group.rank))
        assert m.conjugate(x) == m.group.reduce(tuple(-v for v in x))

    def test_ceiling(self):
        top = km_v_module(KM_LEVEL_CEILING)
        assert top.group.rank == 2 ** (KM_LEVEL_CEILING - 2) - 1
        for n in (KM_LEVEL_CEILING + 1, 40):
            with pytest.raises(ScopeError):
                km_v_module(n)

    def test_closed_form_order(self):
        for n in range(KM_LEVEL_CEILING + 1):
            assert oracles.km_order(n) == km_v_module(n).group.order, n

    def test_tate_orders(self):
        for n in range(3, 9):
            t = tate(km_v_module(n), 1)
            assert t.order == 2 ** (2 ** (n - 2) - 1), n
            assert all(d == 2 for d in t.invariant_factors)


class TestStoredDGroups:
    def test_primes_vanish(self):
        for p in (2, 3, 7, 29, 101):
            fact = stored_d_group(p)
            assert fact.group.is_trivial() and fact.sign == -1

    def test_published_small_composites(self):
        for m in (6, 10, 14):
            fact = stored_d_group(m)
            assert fact.group.is_trivial() and fact.sign == -1
        d15 = stored_d_group(15)
        assert (d15.group, d15.sign, d15.parity_odd) == \
            (FinAbGroup([2]), 1, False)
        d21 = stored_d_group(21)
        assert (d21.group, d21.sign, d21.parity_odd) == \
            (FinAbGroup([4]), -1, False)

    def test_42_is_not_pinned(self):
        # the published snapshots at 42 contradict the computed unit
        # cokernel there, so no exact group is stored
        assert stored_d_group(42) is None

    def test_stored_orders_match_unit_cokernels(self):
        # at 15 and 21 the kernel group is carried entirely by the top
        # unit cokernel, so the two storage channels must agree
        from cycloclass.residue import vtilde
        assert stored_d_group(15).group.order == vtilde(15).order
        assert stored_d_group(21).group.order == vtilde(21).order

    def test_ladder_exponent_closed_form(self):
        # log2 of the product of the Kervaire-Murthy orders below 2^e
        for e in range(2, 21):
            order = prod(oracles.km_order(k - 1) for k in range(2, e + 1))
            assert 2 ** oracles.ladder_exponent(e) == order, e
        # from level 2^5 on the ladder order is even, as stored
        for e in range(5, 65):
            assert oracles.ladder_exponent(e) >= 1, e

    def test_two_power_ladder(self):
        for e in (2, 3):
            fact = stored_d_group(2 ** e)
            assert fact.group.is_trivial() and fact.sign == -1
        d16 = stored_d_group(16)
        assert (d16.group, d16.sign) == (FinAbGroup([2]), -1)
        assert 2 ** oracles.ladder_exponent(5) == 32
        for e in range(5, 65):
            fact = stored_d_group(2 ** e)
            assert fact.group is None and fact.parity_odd is False, e

    def test_ladder_parity_matches_the_closed_form(self):
        for e in range(1, 65):
            assert stored_d_group(2 ** e).parity_odd == \
                (oracles.ladder_exponent(e) == 0), e

    def test_odd_prime_powers_have_odd_order(self):
        for m in (9, 27, 25, 49):
            fact = stored_d_group(m)
            assert fact.parity_odd

    def test_absent(self):
        assert stored_d_group(100) is None
        assert stored_d_group(33) is None


class TestDivisibilityBound:
    def test_values(self):
        assert d_divisibility_bound(22) == 3
        assert d_divisibility_bound(11) == 1
        assert d_divisibility_bound(15) == 1
        assert d_divisibility_bound(42) == 63

    def test_unsupported(self):
        with pytest.raises(UnsupportedModulusError):
            d_divisibility_bound(105)
        with pytest.raises(UnsupportedModulusError):
            d_divisibility_bound(12)


class TestAm:
    def test_odd_prime_powers_trivial(self):
        for m in (3, 9, 27, 81, 243, 729, 5, 7, 49, 343):
            result = a_m(m)
            assert result.status == "exact" and result.group.is_trivial(), m

    def test_m29(self):
        result = a_m(29)
        assert result.status == "exact"
        assert result.group == FinAbGroup([2, 2, 2])

    def test_m15(self):
        result = a_m(15)
        assert result.status == "exact"
        assert result.group == FinAbGroup([2])

    def test_two_powers(self):
        assert a_m(2).group.is_trivial()
        assert a_m(4).group.is_trivial()
        assert a_m(8).group.is_trivial()
        assert a_m(16).group == FinAbGroup([2])
        unknown = a_m(32)
        assert unknown.status == "unknown"
        assert "A_64" in unknown.constraint

    def test_even_class_number_prime_square_unknown(self):
        # h_29 is even and the class group above the square is not stored,
        # so no branch applies
        assert a_m(29 ** 2).status == "unknown"

    def test_pairing_inequality_where_exact(self):
        # order(A_{2^e}) * order(A_{2^(e+1)}) >= 2^(2^(e-2) - 1) on levels
        # where both sides are exactly known
        pairs = [(2, 3), (3, 4)]
        for e, e1 in pairs:
            lhs = a_m(2 ** e).group.order * a_m(2 ** e1).group.order
            assert lhs >= 2 ** (2 ** (e - 2) - 1)

    def test_consistency_with_exact_structures(self):
        # where J and I are both exact, |H| = |J| / |I|
        for m in (15, 21, 29, 13):
            w = wh_structure(4, m)
            if w.j_group.status == w.i_group.status == "exact" and \
                    a_m(m).status == "exact":
                assert a_m(m).group.order * w.i_group.group.order == \
                    w.j_group.group.order, m


class TestWhStructure:
    def test_m29(self):
        w = wh_structure(4, 29)
        assert w.j_group.group == FinAbGroup([2, 2, 2])
        assert w.i_group.group.is_trivial()
        assert w.tate_group.group == FinAbGroup([2, 2, 2])
        assert w.nk1_zero

    def test_not_squarefree_is_infinite(self):
        w = wh_structure(4, 4)
        assert not w.nk1_zero
        assert w.j_group.status == "infinite"
        assert w.i_group.status == "infinite"
        assert w.tate_group.status == "exact"  # always finite, here trivial

    def test_m13_all_trivial(self):
        w = wh_structure(6, 13)
        assert w.j_group.group.is_trivial()
        assert w.i_group.group.is_trivial()
        assert w.tate_group.group.is_trivial()

    def test_m21_exact(self):
        w = wh_structure(4, 21)
        assert w.j_group.group == FinAbGroup([4])
        assert w.i_group.group == FinAbGroup([2])

    def test_odd_degree_rejected(self):
        with pytest.raises(ScopeError):
            wh_structure(5, 7)

    def test_finiteness_agrees_with_nk1(self):
        for m in range(2, 501):
            w = wh_structure(4, m)
            finite = w.j_group.status != "infinite"
            assert finite == nk1_vanishes(m), m
            assert (w.i_group.status != "infinite") == finite

    def test_bound_channel_carries_witness(self):
        w = wh_structure(4, 23, compute=True)
        assert w.j_group.status == "bound"
        assert w.j_group.divisor % 3 == 0  # odd part of the minus number

    def test_m42_bound_from_unit_cokernel(self):
        # class numbers of all divisors of 42 are one, so the witness is
        # carried entirely by the odd part of the unit cokernel at 42
        w = wh_structure(4, 42, compute=True)
        assert w.i_group.status == "bound"
        assert w.i_group.divisor % 63 == 0

    def test_i_divisor_invariant(self):
        # odd(h_m^-) * d-bound divides the reported I-divisor for
        # square-free m whose divisors are all supported
        from cycloclass.classnumber import hminus, odd_part
        for m in (21, 22, 23, 26, 31, 33, 34, 35, 38, 39, 46, 51, 55, 57, 58):
            if not squarefree(m):
                continue
            w = wh_structure(4, m, compute=True)
            if w.i_group.status != "bound":
                continue
            expected = odd_part(hminus(m)) * d_divisibility_bound(m)
            assert w.i_group.divisor % expected == 0, m

    def test_i_divisor_invariant_to_200(self):
        # the same divisibility across all square-free m <= 200 whose unit
        # cokernels stay at desk scale (factor fields of order <= 2^28)
        from cycloclass.classnumber import hminus, odd_part
        from cycloclass.arith import divisors
        from cycloclass.residue import order_mod
        from sympy import factorint, isprime

        def desk_scale(m):
            for d in divisors(m):
                if d <= 2 or isprime(d):
                    continue
                primes = [int(p) for p in factorint(d)]
                if len([p for p in primes if p != 2]) > 2 or \
                        (len(primes) == 3 and 2 not in primes):
                    return False  # outside the vtilde reductions
                for p in primes:
                    if p ** order_mod(p, d // p) > 2 ** 28:
                        return False
            return True

        checked = 0
        for m in range(2, 201):
            if not squarefree(m) or not desk_scale(m):
                continue
            w = wh_structure(4, m, compute=True)
            expected = odd_part(hminus(m)) * d_divisibility_bound(m)
            if w.i_group.status == "bound":
                assert w.i_group.divisor % expected == 0, m
            else:
                assert w.i_group.group.order % expected == 0, m
            checked += 1
        assert checked >= 60


class TestK0Description:
    """The class-group data entering the reduced projective class group,
    each fact read by the branch that needs it."""

    def test_module_matches_iterated_sum(self):
        # one negation module from the invariant factors of all the parts,
        # against the parts summed one direct sum at a time
        exact = nontrivial = 0
        for m in range(2, 301):
            if not squarefree(m):
                continue
            for compute in (False, True):
                parts = _class_parts(m, compute)
                pinned = _exact_k0_module(m, parts)
                module = oracles.iterated_k0_module(m, compute)
                if pinned is None:
                    assert module is None, m
                    continue
                group, sign, _ = pinned
                assert module == oracles.signed_module(group, sign), m
                assert _scalar_sign(module.group,
                                    module.involution) is not None, m
                exact += 1
                nontrivial += not group.is_trivial()
        assert (exact, nontrivial) == (28, 6)

    def test_m29_parts(self):
        assert h_is_odd(29, False) is False  # h_29 = 8
        assert stored_d_group(29).group.is_trivial()
        parts = dict(_class_parts(29, False))
        assert list(parts) == [29]
        assert parts[29].status == "exact"
        assert parts[29].group == FinAbGroup([2, 2, 2])

    def test_m23_unknown_part(self):
        (d, part), = _class_parts(23, False)
        assert (d, part.status) == (23, "unknown")
        (d, part), = _class_parts(23, True)
        assert (d, part.status, part.divisor) == (23, "bound", 3)

    def test_lazy_reads_match_the_eager_assembly(self):
        # every fact read before any branch is chosen gives the same
        # answers wherever that eager read does not raise
        for m in range(2, 301):
            for compute in (False, True):
                assert a_m(m, compute) == oracles.eager_a_m(m, compute), m
                assert _wh_fields(m, compute) == \
                    oracles.eager_wh_fields(m, compute), m


class TestScalarClosedForms:
    """J, I and the Tate group of a group whose involution is +-id, read
    off its invariant factors, against kernels, images and cokernels."""

    def test_against_the_general_path(self):
        rng = random.Random(3030)
        groups = [FinAbGroup()]
        while len(groups) < 320:
            factors = [rng.randint(2, 64) for _ in range(rng.randint(1, 4))]
            if prod(factors) <= 10 ** 4:
                groups.append(FinAbGroup.from_cyclic_factors(factors))
        for g in groups:
            for sign in (1, -1):
                module = oracles.signed_module(g, sign)
                j, i = _j_and_i(g, sign)
                assert j == oracles.eigen_set(module, -1)[0], (g, sign)
                assert i == oracles.norm_image_set(module, -1)[0], (g, sign)
                for n in (0, 1):
                    assert g.two_torsion() == \
                        oracles.oracle_tate(module, n), (g, sign)
