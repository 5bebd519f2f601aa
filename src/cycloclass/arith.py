"""Integer arithmetic on the small numbers of this package, in the stdlib.

Moduli, character orders and field degrees stay far below 2^32, and the
only large numbers tested for primality are the CRT primes just below
2^62.  Both are handled here without sympy: trial division by the primes
below 2^16, and for n < 2^64 the deterministic Miller-Rabin test with the
seven bases 2, 325, 9375, 28178, 450775, 9780504 and 1795265022, which no
composite below 2^64 passes.  Beyond that fast path sympy is imported
lazily, to test primality at or above 2^64 and to split a cofactor with no
prime factor below 2^16, so every answer stays exact on every input.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, compress
from math import isqrt, prod
from operator import index

#: trial division stops at this bound
_TRIAL_BOUND = 2 ** 16

_MR_BASES_64 = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)


def _sieve(limit):
    """The primes below ``limit``."""
    flags = bytearray([1]) * limit
    flags[:2] = b"\x00\x00"
    for p in range(2, isqrt(limit - 1) + 1):
        if flags[p]:
            flags[p * p::p] = bytes(len(range(p * p, limit, p)))
    return tuple(compress(range(limit), flags))


_SMALL_PRIMES = _sieve(_TRIAL_BOUND)
# isprime divides by the primes below 100 before Miller-Rabin, which rejects
# most composites for less than one strong test costs
_SCREEN_PRIMES = _SMALL_PRIMES[:25]


def _strong_probable_prime(n, base, odd, twos):
    """Miller-Rabin round for odd n with n - 1 = odd * 2^twos."""
    x = pow(base, odd, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(twos - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def isprime(n):
    """Whether the integer n is prime (False for n < 2)."""
    n = index(n)
    if n < 2:
        return False
    for p in _SCREEN_PRIMES:
        if n % p == 0:
            return n == p
    if n < _SCREEN_PRIMES[-1] ** 2:
        return True
    if n >= 2 ** 64:
        from sympy import isprime as sympy_isprime
        return bool(sympy_isprime(n))
    odd, twos = n - 1, 0
    while odd % 2 == 0:
        odd //= 2
        twos += 1
    # a base divisible by n says nothing and is skipped
    return all(_strong_probable_prime(n, a, odd, twos)
               for a in _MR_BASES_64 if a % n)


def factorint(n):
    """The prime factorisation of n >= 1 as {prime: exponent}, primes in
    increasing order."""
    n = index(n)
    if n < 1:
        raise ValueError(f"factorint needs a positive integer, got {n}")
    factors = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors[p] = e
    else:
        # no prime factor below the bound is left in n; n is prime when
        # below the bound's square, and otherwise unless isprime says so
        if n >= _TRIAL_BOUND ** 2 and not isprime(n):
            from sympy import factorint as sympy_factorint
            for p, e in sorted(sympy_factorint(n).items()):
                factors[int(p)] = int(e)
            return factors
    if n > 1:
        factors[n] = 1
    return factors


def totient(n):
    """Euler's phi of n >= 1."""
    return prod((p - 1) * p ** (e - 1) for p, e in factorint(n).items())


def divisors(n):
    """The positive divisors of n >= 1, in increasing order."""
    divs = [1]
    for p, e in factorint(n).items():
        divs = [d * p ** k for d in divs for k in range(e + 1)]
    return sorted(divs)


def primitive_root(q):
    """The smallest primitive root modulo an odd prime power q."""
    fact = factorint(q)
    if len(fact) != 1 or 2 in fact:
        raise ValueError(f"{q} is not an odd prime power")
    (p, e), = fact.items()
    phi = q - q // p
    # g generates (Z/q)^x when no g^(phi/r), r a prime dividing phi, is 1
    tests = [phi // r for r in factorint(p - 1)]
    if e > 1:
        tests.append(phi // p)
    for g in range(2, q):
        if g % p and all(pow(g, t, q) != 1 for t in tests):
            return g
    raise AssertionError("every odd prime power has a primitive root")


@lru_cache(maxsize=None)
def cyclotomic_int(n):
    """Coefficients of the n-th cyclotomic polynomial, lowest degree first:
    the product of (x^d - 1)^mu(n/d) over the divisors d of n."""
    # mu(n/d) is (-1)^k when n/d is a product of k distinct primes, else 0
    primes = list(factorint(n))
    signed = [(n // prod(s), k % 2) for k in range(len(primes) + 1)
              for s in combinations(primes, k)]
    poly = [1]
    for d in (d for d, odd in signed if not odd):
        # times x^d - 1
        shifted = [0] * d + poly
        for i, c in enumerate(poly):
            shifted[i] -= c
        poly = shifted
    for d in (d for d, odd in signed if odd):
        # exact division by x^d - 1: poly = q x^d - q, so q_i = q_(i-d) - p_i
        quotient = [0] * (len(poly) - d)
        for i in range(len(quotient)):
            quotient[i] = (quotient[i - d] if i >= d else 0) - poly[i]
        poly = quotient
    return tuple(poly)
