import hashlib
from collections import Counter
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from cycloclass import arith, classnumber
from cycloclass.abelian import FinAbGroup
from cycloclass.classnumber import (
    HMINUS_ONE,
    HMINUS_PHI_CEILING,
    characters,
    class_record,
    hminus,
    hminus_is_one,
    hp_is_odd,
    odd_part,
)
from cycloclass.cli import run
from cycloclass.residue import InternalConsistencyError, \
    UnsupportedModulusError


class TestCharacters:
    def test_counts(self):
        assert len(characters(1)) == 1
        assert len(characters(4)) == 2
        assert len(characters(5)) == 4
        assert len(characters(24)) == 8

    def test_half_odd(self):
        for m in (3, 4, 5, 7, 8, 9, 12, 15, 16, 21, 40):
            chars = characters(m)
            odd = [c for c in chars if c.parity == -1]
            assert len(odd) * 2 == len(chars), m

    def test_principal_only_for_m1(self):
        (chi,) = characters(1)
        assert chi.order == 1
        assert chi.parity == 1

    def test_multiplicativity(self):
        for m in (5, 8, 12, 21):
            for chi in characters(m):
                d = chi.order
                for a in range(1, m):
                    for b in range(1, m):
                        va = oracles.value_exponent(chi, a)
                        vb = oracles.value_exponent(chi, b)
                        vab = oracles.value_exponent(chi, a * b)
                        if va is None or vb is None:
                            assert vab is None
                        else:
                            assert vab == (va + vb) % d

    def test_conductors(self):
        # the nontrivial character mod 8 induced from mod 4 has conductor 4
        chars8 = characters(8)
        conductors = sorted(c.conductor for c in chars8)
        assert conductors == [1, 4, 8, 8]
        for m in (5, 7, 9):
            for c in characters(m):
                if c.order != 1:
                    assert c.conductor == m  # prime-power faithful cases
                    break

    def test_conductor_and_parity_against_search(self):
        for m in range(1, 101):
            for chi in characters(m):
                assert chi.conductor == oracles.search_conductor(chi), chi
                assert chi.parity == oracles.search_parity(chi), chi

    def test_primitive_values_against_lift(self):
        for m in (8, 16, 24, 45, 63, 80, 100):
            for chi in characters(m):
                f = chi.conductor
                for a in range(1, f):
                    assert oracles.primitive_value_exponent(chi, a) == \
                        oracles.lifted_primitive_value_exponent(chi, f, a)


class TestB1:
    def test_mod4(self):
        chi = next(c for c in characters(4) if c.parity == -1)
        assert oracles.b1(chi).rational_value() == Fraction(-1, 2)

    def test_mod3(self):
        chi = next(c for c in characters(3) if c.parity == -1)
        assert oracles.b1(chi).rational_value() == Fraction(-1, 3)

    def test_principal_rejected(self):
        chi = next(c for c in characters(5) if c.order == 1)
        with pytest.raises(ValueError):
            oracles.b1(chi)

    def test_even_character_symmetric_sum(self):
        # for an even character the weighted sum is symmetric under
        # a -> f - a, which the Bernoulli value reflects; the minus class
        # number never consumes these values
        for m in (5, 7, 8):
            for chi in characters(m):
                if chi.parity == 1 and chi.order != 1:
                    v = oracles.b1(chi)
                    assert isinstance(v, oracles.CycNumber)


class TestCycNumber:
    def test_reduction(self):
        # 1 + zeta + zeta^2 = 0 in Q(zeta_3)
        assert oracles.CycNumber(3, [1, 1, 1]).rational_value() == 0

    def test_norm(self):
        # N(1 - zeta_5) = Phi_5(1) = 5
        val = oracles.CycNumber(5, [1, -1])
        assert val.norm() == 5

    def test_rationality(self):
        assert oracles.CycNumber(4, [Fraction(1, 2)]).is_rational()
        assert not oracles.CycNumber(4, [0, 1]).is_rational()


@st.composite
def _level_and_coeffs(draw):
    d = draw(st.integers(1, 60))
    coeffs = draw(st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=2 * d + 3))
    return d, coeffs


class TestCyclotomicNorm:
    @settings(max_examples=80, deadline=None)
    @given(_level_and_coeffs())
    @example((1, []))
    @example((7, [0] * 7))
    @example((12, [3] * 12))
    @example((9, [5, -4, 0, 2, 1, -1, 7, 0, 0, 3, -8, 6, 2]))
    @example((60, [10 ** 6] * 61))
    def test_matches_bareiss(self, case):
        d, coeffs = case
        assert oracles.cyclotomic_norm_int(coeffs, d) == \
            oracles.bareiss_cyclotomic_norm(coeffs, d)

    def test_shared_exponent(self):
        # levels dividing a common exponent reuse its primes
        coeffs = [5, -1, 2, 0, 7, 1]
        for d in (2, 3, 6):
            assert oracles.cyclotomic_norm_int(coeffs, d, 12) == \
                oracles.bareiss_cyclotomic_norm(coeffs, d)
        with pytest.raises(ValueError):
            oracles.cyclotomic_norm_int(coeffs, 5, 12)


def _character_orbits(m):
    """(chi, f, sums) per Galois orbit of odd characters, the first
    character of each orbit in ``characters`` order as its representative,
    its orbit marked as its powers."""
    covered, orbits = set(), []
    for chi in characters(m):
        if chi.parity == 1 or chi in covered:
            continue
        d = chi.order
        covered |= {oracles.power(chi, j) for j in range(1, d)
                    if gcd(j, d) == 1}
        orbits.append((chi, *oracles.bernoulli_sums(chi)))
    return orbits


def _canonical(d, values, *others):
    """The Galois relabelling t -> j t, j a unit mod d, of ``values`` that
    is lexicographically least, and ``others`` relabelled by the same j.

    chi^j takes the value zeta^(j t) where chi takes zeta^t, so the members
    of an orbit have the sums of any one of them, relabelled.
    """
    def relabel(row, j):
        out = [0] * d
        for t, value in enumerate(row):
            out[j * t % d] = value
        return tuple(out)

    j = min((j for j in range(1, d) if gcd(j, d) == 1),
            key=lambda j: relabel(values, j))
    return relabel(values, j), *(relabel(row, j) for row in others)


def _assert_orbits_match_the_oracles(m):
    """_odd_orbits(m) against the orbits from ``characters`` and against
    the walk of ``oracles.odd_orbits``, each orbit in canonical form."""
    new = Counter((d, f, _canonical(d, sums))
                  for d, f, sums in classnumber._odd_orbits(m))
    for oracle in (_character_orbits, oracles.odd_orbits):
        old = Counter((chi.order, f, _canonical(chi.order, sums))
                      for chi, f, sums in oracle(m))
        assert new == old, (m, oracle.__name__)


class TestOddOrbits:
    def test_against_characters(self):
        for m in range(3, 301):
            _assert_orbits_match_the_oracles(m)

    @pytest.mark.slow
    def test_against_characters_up_to_degree_1000(self):
        # phi(m) > 1000 for every m >= 10^4, by the lower bound
        # phi(m) > m / (e^gamma log log m + 3 / log log m) of Rosser and
        # Schoenfeld (1962)
        for m in range(3, 10 ** 4):
            if m % 4 != 2 and arith.totient(m) <= 1000:
                _assert_orbits_match_the_oracles(m)

    def test_fold_identity(self):
        # a -> f - a moves the value zeta^t of an odd character to
        # zeta^(t + d/2), so c_(t + d/2) = f n_t - c_t, n_t counting the a
        # with that value; n is relabelled with the sums
        for m in range(3, 151):
            counts = {}
            for chi, f, sums in _character_orbits(m):
                d = chi.order
                n = Counter(oracles.primitive_value_exponent(chi, a)
                            for a in range(1, f))
                sums, n = _canonical(d, sums, [n[t] for t in range(d)])
                counts[d, f, sums] = n
            for d, f, sums in classnumber._odd_orbits(m):
                (sums,) = _canonical(d, sums)
                n = counts[d, f, sums]
                for t in range(d // 2):
                    assert sums[t + d // 2] == f * n[t] - sums[t], (m, d, t)

    @pytest.mark.parametrize("m", [257, 255])
    def test_no_character_is_built(self, m, monkeypatch):
        built, orbits = [], []
        original_init = classnumber.DirichletCharacter.__init__
        original_orbits = classnumber._odd_orbits

        def counting_init(self, modulus, exps):
            built.append(exps)
            original_init(self, modulus, exps)

        def recording_orbits(n):
            orbits.extend(original_orbits(n))
            return orbits

        monkeypatch.setattr(classnumber.DirichletCharacter, "__init__",
                            counting_init)
        monkeypatch.setattr(classnumber, "_odd_orbits", recording_orbits)
        for cached in (hminus, classnumber._unit_group,
                       classnumber._crt_prime):
            cached.cache_clear()
        hminus(m)
        assert built == []
        assert len(orbits) == len(oracles.odd_orbits(m))


@pytest.fixture
def corrupt_check_prime(monkeypatch):
    """corrupt(m) makes the check prime of hminus(m) come with the root 1.

    A root of another primitive order would not do: the product runs over
    whole Galois orbits and comes out the same.
    """
    original = classnumber._crt_prime

    def corrupt(m):
        used = []

        def record(exponent, index):
            used.append(index)
            return original(exponent, index)

        monkeypatch.setattr(classnumber, "_crt_prime", record)
        hminus.cache_clear()
        hminus(m)
        check = max(used)

        def wrong_root(exponent, index):
            ell, root = original(exponent, index)
            return (ell, 1) if index == check else (ell, root)

        monkeypatch.setattr(classnumber, "_crt_prime", wrong_root)
        hminus.cache_clear()

    yield corrupt
    hminus.cache_clear()


class TestHminus:
    @pytest.mark.parametrize("m,expected", [
        (1, 1), (2, 1), (3, 1), (4, 1), (12, 1), (23, 3),
        (29, 8), (39, 2), (65, 64),
        (401, 43605015130536489003338082919559801839979434025811736050075208031224695089275733787630863462455142655169),
    ])
    def test_spot_values(self, m, expected):
        assert hminus(m) == expected

    def test_value_inside_phi_ceiling(self):
        # phi(1009) = 1008; the 358-digit value is pinned by its digest
        value = str(hminus(1009))
        assert len(value) == 358
        assert hashlib.sha256(value.encode()).hexdigest() == \
            "aa5cc30f460e7b5fb288d1d96ca5638303d4153d9f7e72f7b129957f7c3c85ef"

    def test_value_above_the_old_ceiling(self):
        # phi(2039) = 2038; the 877-digit value is pinned by the digest of
        # oracles.orbit_hminus(2039)
        value = str(hminus(2039))
        assert len(value) == 877
        assert hashlib.sha256(value.encode()).hexdigest() == \
            "29ef480c7b33b95f923641e587e6222556985278f3a262e0e54f66220f1481eb"

    @pytest.mark.parametrize("m", [3, 23, 39, 255, 257, 1009, 1553])
    def test_teichmueller_lift_keeps_the_order(self, m):
        # root^(l^(k-1)) mod l^k has order exactly lambda(m), as root mod l
        exponent = lcm(*classnumber._generator_orders(m))
        ell, root = classnumber._crt_prime(exponent, 0)
        for k in range(1, 8):
            lift = pow(root, ell ** (k - 1), ell ** k)
            assert lift % ell == root
            assert pow(lift, exponent, ell ** k) == 1
            assert all(pow(lift, exponent // r, ell ** k) != 1
                       for r in arith.factorint(exponent))

    @pytest.mark.parametrize("m", [23, 257, 1009])
    def test_one_prime_power_and_one_check_prime(self, m, monkeypatch):
        # the check modulus is the product of the primes 1 and 2, distinct
        # primes below 2^31 whose product exceeds 2^60
        used, original = {}, classnumber._crt_prime

        def record(exponent, index):
            used[index] = original(exponent, index)[0]
            return original(exponent, index)

        monkeypatch.setattr(classnumber, "_crt_prime", record)
        hminus.cache_clear()
        hminus(m)
        assert set(used) == {0, 1, 2}
        assert all(ell < 2 ** 31 and arith.isprime(ell)
                   for ell in used.values())
        assert used[1] != used[2] and used[1] * used[2] > 2 ** 60

    @pytest.mark.parametrize("m", [4003, 2 * 4003, 4 * 4003, 10007])
    def test_phi_ceiling(self, m):
        assert HMINUS_PHI_CEILING == 4000
        with pytest.raises(UnsupportedModulusError, match="above 4000"):
            hminus(m)

    def test_huge_modulus_is_refused_before_factoring(self, monkeypatch):
        # phi(m) >= sqrt(m/2), so above 2 * 4000^2 no factoring is needed
        calls, original = [], arith.factorint

        def counting(n):
            calls.append(n)
            return original(n)

        monkeypatch.setattr(arith, "factorint", counting)
        monkeypatch.setattr(classnumber, "factorint", counting)
        with pytest.raises(UnsupportedModulusError, match="above 4000"):
            hminus(2 * 4000 ** 2 + 1)
        assert calls == []

    def test_against_bareiss_oracle(self):
        for m in range(1, 201):
            assert hminus(m) == oracles.bareiss_hminus(m), m

    def test_against_orbit_oracle(self):
        for m in range(1, 261):
            assert hminus(m) == oracles.orbit_hminus(m), m

    @pytest.mark.slow
    def test_against_orbit_oracle_beyond_260(self):
        for m in [*range(261, 701), 1009, 1553, 2039]:
            assert hminus(m) == oracles.orbit_hminus(m), m

    @pytest.mark.parametrize("m", [23, 39, 401])
    def test_corrupt_check_prime_is_an_internal_error(self, m,
                                                      corrupt_check_prime):
        corrupt_check_prime(m)
        with pytest.raises(InternalConsistencyError, match="check prime"):
            hminus(m)

    def test_corrupt_check_prime_exits_3(self, corrupt_check_prime, capsys,
                                         monkeypatch):
        monkeypatch.delenv("CYCLOCLASS_CACHE", raising=False)
        corrupt_check_prime(39)
        assert run(["hminus", "--m", "39"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("internal consistency failure: analytic minus")
        assert "Traceback" not in err

    def test_two_mod_four_pairing(self):
        for m in (3, 5, 15, 29, 39, 65):
            assert hminus(2 * m) == hminus(m)

    def test_ones_below_sixty(self):
        computed = {m for m in range(2, 61) if hminus(m) == 1}
        assert computed == {m for m in HMINUS_ONE if m <= 60}

    def test_stored_list_is_consistent(self):
        for m in range(2, 61):
            assert hminus_is_one(m) == (hminus(m) == 1)

    def test_parity_matches_hp_table(self):
        # every prime the stored table covers, up to 509
        from sympy import primerange
        for p in primerange(2, 510):
            assert (hminus(p) % 2 == 1) == hp_is_odd(p), p

    def test_growth_spot_check(self):
        from sympy import primerange
        running_max, maxima = 0, []
        for p in primerange(2, 201):
            running_max = max(running_max, hminus(p))
            maxima.append(running_max)
        assert maxima[-1] > maxima[len(maxima) // 2] > maxima[2]
        assert maxima[-1] > 10 ** 10

    def test_classical_prime_table(self):
        # the classical minus class numbers of prime cyclotomic fields
        known = {23: 3, 29: 8, 31: 9, 37: 37, 41: 121, 43: 211, 47: 695,
                 53: 4889, 59: 41241, 61: 76301, 67: 853513, 71: 3882809,
                 73: 11957417, 79: 100146415, 83: 838216959,
                 89: 13379363737}
        for p, expected in known.items():
            assert hminus(p) == expected, p

    def test_float_cross_check(self):
        # high-precision analytic check of the character product
        import cmath
        from math import gcd
        for m in (23, 29, 31, 39):
            chars = [c for c in characters(m) if c.parity == -1]
            value = complex(1, 0)
            for chi in chars:
                f = chi.conductor
                total = complex(0, 0)
                for a in range(1, f):
                    if gcd(a, f) != 1:
                        continue
                    t = oracles.primitive_value_exponent(chi, a)
                    total += a * cmath.exp(2j * cmath.pi * t / chi.order)
                value *= -total / (2 * f)
            q_factor = 2 if m in (39,) else 1
            w = 2 * m if m % 2 else m
            approx = (q_factor * w * value).real
            assert abs(approx - hminus(m)) < 1e-6


class TestOddPart:
    def test_values(self):
        assert odd_part(8) == 1
        assert odd_part(565) == 565
        assert odd_part(104) == 13

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            odd_part(0)


class TestHpTable:
    def test_known_values(self):
        assert hp_is_odd(3)
        assert not hp_is_odd(29)
        assert hp_is_odd(509)
        assert not hp_is_odd(491)

    def test_out_of_table(self):
        with pytest.raises(ValueError):
            hp_is_odd(521)
        with pytest.raises(ValueError):
            hp_is_odd(15)


class TestClassRecord:
    def test_m29(self):
        rec = class_record(29)
        assert rec.hminus == 8
        assert rec.known_class_group == FinAbGroup([2, 2, 2])
        assert rec.known_plus_trivial
        assert rec.hminus_odd_part == 1

    def test_m65_consistency(self):
        rec = class_record(65)
        assert rec.known_class_group == FinAbGroup.from_cyclic_factors(
            [2, 2, 4, 4])
        assert rec.hminus == rec.known_class_group.order

    def test_stored_only_mode(self):
        rec = class_record(19, compute=False)
        assert rec.hminus == 1
        rec2 = class_record(29, compute=False)
        assert rec2.hminus == 8
        rec3 = class_record(199, compute=False)
        assert rec3.hminus is None
