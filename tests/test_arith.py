"""The stdlib arithmetic of cycloclass.arith against sympy as the oracle."""

import ast
import random
import subprocess
import sys
from itertools import combinations
from math import gcd, prod
from pathlib import Path

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st
from sympy.abc import x

import cycloclass
from cycloclass import arith
from oracles import clear_caches, cyclotomic_int, primitive_root
from pins import child_env

#: the least strong pseudoprimes to the first 12 and 13 prime bases
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


class TestIsprime:
    def test_small_range(self):
        # the set below 100, the gcd screen, and the strong test from 101^2
        for n in range(-5, 10 ** 5):
            assert arith.isprime(n) == sympy.isprime(n), n

    def test_screen_products(self):
        # products of the screen primes, with neighbours: the gcd with
        # their full product sees every factor below 100, and the product
        # +- 1 and 97^2 +- {0, 2} reach the strong test or stop before it
        screen = arith._SCREEN_PRIMES
        assert screen == tuple(sympy.primerange(100))
        numbers = [97 ** 2 - 2, 97 ** 2, 97 ** 2 + 2, 101 ** 2]
        numbers += [p * q for p, q in combinations(screen, 2)]
        numbers += [p ** 3 for p in screen]
        rng = random.Random(97)
        for size in range(3, len(screen) + 1):
            numbers.append(prod(rng.sample(screen, size)))
        full = prod(screen)
        for n in [*numbers, full]:
            for shift in (-1, 0, 1):
                assert arith.isprime(n + shift) == \
                    sympy.isprime(n + shift), n + shift

    @pytest.mark.parametrize("bits", [30, 31])
    def test_seeded_samples(self, bits):
        # odd numbers of 30 and 31 bits, and the CRT candidates
        # k * exponent + 1 just below 2^30 for exponents 2..200
        rng = random.Random(bits)
        numbers = [rng.randrange(2 ** (bits - 1), 2 ** bits) | 1
                   for _ in range(3000)]
        numbers += [((2 ** 30 - 2) // e - k) * e + 1
                    for e in range(2, 201, 2) for k in range(20)]
        assert any(map(sympy.isprime, numbers))
        for n in numbers:
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
        # both sides of the switch from seven bases to thirteen
        for n in range(2 ** 64 - 400, 2 ** 64 + 400):
            assert arith.isprime(n) == sympy.isprime(n), n

    def test_around_the_three_base_bound(self):
        # both sides of the switch from three bases to seven
        assert arith._MR_TABLE[0][0] == 4759123141
        for n in range(4759123141 - 400, 4759123141 + 400):
            assert arith.isprime(n) == sympy.isprime(n), n

    @pytest.mark.parametrize("psi", [PSI_12, PSI_13])
    def test_around_psi_12_and_psi_13(self, psi):
        # psi_12 is the last bound of sympy's table that ours skips, and
        # psi_13 is where the thirteen bases give way to strong BPSW
        assert arith._MR_TABLE[-1][0] == PSI_13
        assert not arith.isprime(psi)
        for n in range(psi - 400, psi + 400):
            assert arith.isprime(n) == sympy.isprime(n), n

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=2 ** 64, max_value=2 ** 128))
    @example(2 ** 89 - 1)
    @example(2 ** 127 - 1)
    def test_above_two_to_the_64(self, n):
        assert arith.isprime(n) == sympy.isprime(n)

    def test_without_sympy_above_two_to_the_64(self):
        # the same answers with sympy blocked, in a child process
        numbers = [*range(2 ** 64 - 60, 2 ** 64 + 60), 2 ** 127 - 1,
                   *range(PSI_13 - 30, PSI_13 + 30)]
        script = ("import sys; sys.modules['sympy'] = None; "
                  "from cycloclass.arith import isprime; "
                  f"print([int(isprime(n)) for n in {numbers}])")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=60,
                              env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == \
            f"{[int(sympy.isprime(n)) for n in numbers]}\n"

    @pytest.mark.parametrize("n", [5459, 5777, 10877, 16109, 18971])
    def test_strong_lucas_pseudoprimes(self, n):
        # the strong Lucas pseudoprimes below 20000 (OEIS A217255) pass
        # the Lucas half of strong BPSW, and the base-2 half rejects them
        odd, twos = n - 1, 0
        while odd % 2 == 0:
            odd, twos = odd // 2, twos + 1
        assert arith._strong_lucas_probable_prime(n)
        assert not arith._strong_probable_prime(n, 2, odd, twos)
        assert not arith.isprime(n)

    def test_lucas_rejects_a_square_at_once(self, monkeypatch):
        # no D has (D/n) = -1 when n is a square: without the square check
        # the search for D would never end
        def no_jacobi(a, n):
            raise AssertionError("the search for D began")

        monkeypatch.setattr(arith, "_jacobi", no_jacobi)
        assert not arith._strong_lucas_probable_prime((PSI_13 + 2) ** 2)

    def test_lucas_matches_sympy(self):
        from sympy.ntheory.primetest import is_strong_lucas_prp
        for n in range(3, 20001, 2):
            assert arith._strong_lucas_probable_prime(n) == \
                is_strong_lucas_prp(n), n

    def test_no_module_imports_sympy(self):
        # sympy is the tests' oracle, not a dependency of the package
        package = Path(cycloclass.__file__).parent
        for path in package.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""]
                else:
                    continue
                assert all(module.split(".")[0] != "sympy"
                           for module in modules), path.name

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
        # the largest primes of the shape k * 40320 + 1 below 2^30, the CRT
        # primes of hminus at the exponent 2520 (40320 = 2520 * 2^4, the
        # least such multiple whose square is 2^30 or more), and below 2^62
        for bits in (30, 62):
            k = (2 ** bits - 2) // 40320
            found = 0
            while found < 4:
                n = k * 40320 + 1
                assert arith.isprime(n) == sympy.isprime(n), n
                found += arith.isprime(n)
                k -= 1


class TestFactorint:
    def test_small_range(self):
        for n in range(1, 5001):
            assert arith.factorint(n) == sympy.factorint(n), n
            assert arith.modulus(n).phi == sympy.totient(n), n
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


#: a 131-bit prime whose p - 1 = 2 q r has two 66-bit prime factors: rho
#: does not split p - 1 within its budget
LARGE_PRIME = 2991691817533806448592860327231431648383


class TestModulus:
    def test_against_sympy(self):
        for m in range(1, 3001):
            record = arith.modulus(m)
            factors = sympy.factorint(m)
            assert record.m == m
            assert record.factors == tuple(factors.items()), m
            assert record.phi == sympy.totient(m) == prod(record.orders), m
            assert record.exponent == sympy.reduced_totient(m), m
            assert record.squarefree == all(e == 1 for e in factors.values())

    def test_orders_are_the_cyclic_factors(self):
        # (Z/m)^x is the product of the Z/o: for every k | lambda(m) the
        # units with x^k = 1 number prod gcd(k, o), which fixes the group
        for m in range(1, 301):
            record = arith.modulus(m)
            units = [x for x in range(m) if gcd(x, m) == 1]
            for k in sympy.divisors(record.exponent):
                assert sum(pow(x, k, m) == 1 % m for x in units) == \
                    prod(gcd(k, o) for o in record.orders), (m, k)

    def test_no_p_minus_one_is_factored(self, monkeypatch):
        # the record of a prime whose p - 1 rho cannot split factors p
        # alone, and its cyclic factor has the order p - 1
        calls, original = [], arith.factorint

        def counting(n):
            calls.append(n)
            return original(n)

        monkeypatch.setattr(arith, "factorint", counting)
        clear_caches()
        record = arith.modulus(LARGE_PRIME)
        assert calls == [LARGE_PRIME]
        assert (record.factors, record.orders, record.exponent) == \
            (((LARGE_PRIME, 1),), (LARGE_PRIME - 1,), LARGE_PRIME - 1)

    def test_cache_is_bounded(self):
        assert arith.modulus.cache_info().maxsize == \
            arith._MODULUS_CACHE_SIZE == 1024


class TestPrimitiveRoot:
    # the oracle of the generators of classnumber._unit_group
    def test_odd_prime_powers(self):
        for p in sympy.primerange(3, 10 ** 6):
            q = p
            while q < 10 ** 6:
                assert primitive_root(q) == sympy.primitive_root(q), q
                q *= p

    @pytest.mark.parametrize("q", [1, 2, 4, 8, 12, 15])
    def test_others_rejected(self, q):
        with pytest.raises(ValueError):
            primitive_root(q)


class TestCyclotomic:
    def test_matches_sympy(self):
        for n in range(1, 401):
            coeffs = sympy.cyclotomic_poly(n, x).as_poly(x).all_coeffs()
            assert cyclotomic_int(n) == \
                tuple(int(c) for c in reversed(coeffs)), n
