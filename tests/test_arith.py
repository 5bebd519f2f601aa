"""The stdlib arithmetic of cycloclass.arith against sympy as the oracle."""

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st
from sympy.abc import x

from cycloclass import arith


class TestIsprime:
    def test_small_range(self):
        for n in range(-5, 20001):
            assert arith.isprime(n) == sympy.isprime(n), n

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=2 ** 61, max_value=2 ** 64 - 1))
    def test_below_two_to_the_64(self, n):
        assert arith.isprime(n) == sympy.isprime(n)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=2, max_value=2 ** 33))
    def test_below_two_to_the_33(self, n):
        # the three-base test below 4759123141 and the seven-base test above
        assert arith.isprime(n) == sympy.isprime(n)

    def test_around_two_to_the_64(self):
        # both sides of the switch from Miller-Rabin to sympy
        for n in range(2 ** 64 - 400, 2 ** 64 + 400):
            assert arith.isprime(n) == sympy.isprime(n), n

    def test_around_the_three_base_bound(self):
        # both sides of the switch from three bases to seven
        assert arith._MR_BOUND_3 == 4759123141
        for n in range(4759123141 - 400, 4759123141 + 400):
            assert arith.isprime(n) == sympy.isprime(n), n

    @pytest.mark.parametrize("n", [
        2047, 3215031751, 4759123141, 3825123056546413051,
        318665857834031151167461])
    def test_strong_pseudoprimes(self, n):
        # each passes the strong test to base 2 (and to further prime bases)
        odd, twos = n - 1, 0
        while odd % 2 == 0:
            odd, twos = odd // 2, twos + 1
        assert arith._strong_probable_prime(n, 2, odd, twos)
        assert not arith.isprime(n)

    def test_three_base_pseudoprimes(self):
        # 3215031751 passes bases 2 and 7, and only 61 rejects it;
        # 4759123141 = 48781 * 97561, the least strong pseudoprime to all
        # three, is where the three-base test stops
        def passes(n, base):
            odd, twos = n - 1, 0
            while odd % 2 == 0:
                odd, twos = odd // 2, twos + 1
            return arith._strong_probable_prime(n, base, odd, twos)

        assert [passes(3215031751, a) for a in (2, 7, 61)] == \
            [True, True, False]
        assert 48781 * 97561 == 4759123141
        assert all(passes(4759123141, a) for a in (2, 7, 61))

    @pytest.mark.parametrize("n", [
        561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185,
        5394826801, 232250619601, 9746347772161])
    def test_carmichael_numbers(self, n):
        # Korselt: square-free, and p - 1 divides n - 1 for every prime p | n
        fact = sympy.factorint(n)
        assert all(e == 1 and (n - 1) % (p - 1) == 0 for p, e in fact.items())
        assert not arith.isprime(n)

    def test_crt_primes(self):
        # the largest primes below 2^31 (hminus) and below 2^62 (its
        # oracle) of the shape k * 2520 + 1
        for bits in (31, 62):
            k = (2 ** bits - 2) // 2520
            found = 0
            while found < 3:
                n = k * 2520 + 1
                assert arith.isprime(n) == sympy.isprime(n), n
                found += arith.isprime(n)
                k -= 1


class TestFactorint:
    def test_small_range(self):
        for n in range(1, 5001):
            assert arith.factorint(n) == sympy.factorint(n), n
            assert arith.totient(n) == sympy.totient(n), n
            assert arith.divisors(n) == sympy.divisors(n), n

    def test_sieve_grows_on_demand(self, monkeypatch):
        # from the primes below 100, as at import: each square of a prime
        # just past a power of two needs the sieve grown past that prime,
        # or its leftover would be taken for a prime
        monkeypatch.setattr(arith, "_small_primes", arith._SCREEN_PRIMES)
        monkeypatch.setattr(arith, "_sieved", 100)
        for bits in range(7, 18):
            p = sympy.nextprime(2 ** bits)
            q = sympy.nextprime(p)
            for n in (q, p * p, p * q):
                assert arith.factorint(n) == sympy.factorint(n), n
        assert arith._sieved == 2 ** 16

    @pytest.mark.parametrize("n", [
        65537 * 4294967311,             # composite cofactor past 2^16
        2 ** 5 * 3 * 65537 * 65539,     # the same after small primes
        (2 ** 31 - 1) * (2 ** 61 - 1),
        65521 ** 2,                     # the largest prime of the sieve
        65537 ** 2,                     # the smallest prime past it
        4294967311,                     # a prime cofactor past 2^32
        2 ** 89 - 1,                    # a prime past 2^64
    ])
    def test_past_trial_division(self, n):
        assert arith.factorint(n) == sympy.factorint(n)
        assert list(arith.factorint(n)) == sorted(arith.factorint(n))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=1, max_value=2 ** 80))
    @example(2 ** 64)
    @example(3 ** 40)
    def test_random(self, n):
        assert arith.factorint(n) == sympy.factorint(n)

    def test_rho_budget_exhausted(self, monkeypatch):
        # the smaller factor 2^31 - 1 needs tens of thousands of rho steps
        monkeypatch.setattr(arith, "_RHO_BUDGET", 1000)
        n = 3 * (2 ** 31 - 1) * (2 ** 61 - 1)
        with pytest.raises(arith.UnsupportedModulusError,
                           match=f"cannot factor {n}"):
            arith.factorint(n)

    def test_unsupported_modulus_error_is_re_exported(self):
        from cycloclass import residue
        assert residue.UnsupportedModulusError is \
            arith.UnsupportedModulusError
        assert issubclass(arith.UnsupportedModulusError, ValueError)

    @pytest.mark.parametrize("n", [0, -1, -12])
    def test_non_positive_rejected(self, n):
        with pytest.raises(ValueError):
            arith.factorint(n)


class TestPrimitiveRoot:
    def test_odd_prime_powers(self):
        for p in sympy.primerange(3, 10 ** 6):
            q = p
            while q < 10 ** 6:
                assert arith.primitive_root(q) == sympy.primitive_root(q), q
                q *= p

    @pytest.mark.parametrize("q", [1, 2, 4, 8, 12, 15])
    def test_others_rejected(self, q):
        with pytest.raises(ValueError):
            arith.primitive_root(q)


class TestCyclotomic:
    def test_matches_sympy(self):
        for n in range(1, 401):
            coeffs = sympy.cyclotomic_poly(n, x).as_poly(x).all_coeffs()
            assert arith.cyclotomic_int(n) == \
                tuple(int(c) for c in reversed(coeffs)), n

    def test_resolves_from_residue(self):
        from cycloclass.residue import cyclotomic_int
        assert cyclotomic_int is arith.cyclotomic_int
