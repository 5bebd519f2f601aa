"""Integer arithmetic on the small numbers of this package, in the stdlib.

Moduli, character orders and field degrees stay far below 2^32, and so do
the CRT primes of ``classnumber``, just below 2^31.  Both are handled here
without sympy: trial division by the primes below 2^16, and the
deterministic Miller-Rabin test: with the bases 2, 7 and 61 for
n < 4759123141 (Jaeschke, Math. Comp. 61 (1993)), and with the seven bases
2, 325, 9375, 28178, 450775, 9780504 and 1795265022, which no composite
below 2^64 passes, above that.  At or above 2^64 sympy is imported lazily
to test primality.  A composite cofactor with no prime factor below 2^16 is
split by Pollard's rho in Brent's variant (Brent, BIT 20 (1980)) under a
fixed budget of steps; a number it cannot split within the budget raises
UnsupportedModulusError, so every answer is exact and none takes long.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, compress, count
from math import gcd, isqrt, prod
from operator import index

#: trial division stops at this bound
_TRIAL_BOUND = 2 ** 16

_MR_BASES_64 = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)

#: below this bound the bases 2, 7 and 61 suffice; 4759123141 itself is the
#: least strong pseudoprime to all three (Jaeschke, Math. Comp. 61 (1993))
_MR_BOUND_3 = 4_759_123_141
_MR_BASES_3 = (2, 7, 61)

#: the steps of Pollard-Brent rho that one factorint call may take.  rho
#: finds a prime factor p after about sqrt(p) steps, so the budget splits
#: every n below 2^80: on 360 products of two primes in (2^39, 2^40) it
#: took a median of 1.0-1.6 million steps and at most 3.7 million.  Spent
#: in full on a 61-digit semiprime it takes 2.5-3.5 s on a 2-core x86-64
#: host (Python 3.11)
_RHO_BUDGET = 2 ** 22

#: rho multiplies this many differences together between two gcds
_RHO_BATCH = 128


class UnsupportedModulusError(ValueError):
    """Raised for moduli outside what the package evaluates: above a size
    ceiling, outside the implemented reductions, or not factored within
    the rho budget."""


def _sieve(limit):
    """The primes below ``limit``."""
    flags = bytearray([1]) * limit
    flags[:2] = b"\x00\x00"
    for p in range(2, isqrt(limit - 1) + 1):
        if flags[p]:
            flags[p * p::p] = bytes(len(range(p * p, limit, p)))
    return tuple(compress(range(limit), flags))


# isprime divides by the primes below 100 before Miller-Rabin, which rejects
# most composites for less than one strong test costs
_SCREEN_PRIMES = _sieve(100)

# the primes below _sieved, grown by _grow_sieve: sieving all of them up to
# _TRIAL_BOUND at import would cost a cold query more than its moduli need
_small_primes, _sieved = _SCREEN_PRIMES, 100


def _grow_sieve(n):
    """Extend _small_primes past isqrt(n), to a power of two, or to
    _TRIAL_BOUND when that is smaller."""
    global _small_primes, _sieved
    if _sieved < _TRIAL_BOUND:
        _sieved = min(_TRIAL_BOUND, 1 << isqrt(n).bit_length())
        _small_primes = _sieve(_sieved)


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
    if n < _MR_BOUND_3:
        # n > 97^2 here, so no base is a multiple of n
        return all(_strong_probable_prime(n, a, odd, twos)
                   for a in _MR_BASES_3)
    # a base divisible by n says nothing and is skipped
    return all(_strong_probable_prime(n, a, odd, twos)
               for a in _MR_BASES_64 if a % n)


def factorint(n):
    """The prime factorisation of n >= 1 as {prime: exponent}, primes in
    increasing order."""
    n = index(n)
    if n < 1:
        raise ValueError(f"factorint needs a positive integer, got {n}")
    factors, original = {}, n
    if n >= _sieved * _sieved:
        _grow_sieve(n)
    for p in _small_primes:
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors[p] = e
    else:
        # no prime below the sieve's bound divides n; that bound exceeds
        # isqrt(n) or is _TRIAL_BOUND, so n is prime when below the
        # bound's square, and otherwise unless isprime says so
        if n >= _TRIAL_BOUND ** 2 and not isprime(n):
            large, budget, pending = {}, _RHO_BUDGET, [n]
            while pending:
                k = pending.pop()
                if isprime(k):
                    large[k] = large.get(k, 0) + 1
                    continue
                divisor, steps = _rho_divisor(k, budget)
                if divisor is None:
                    raise UnsupportedModulusError(
                        f"cannot factor {original}: Pollard-Brent rho found "
                        f"no factor of {k} within {_RHO_BUDGET} steps")
                budget -= steps
                pending += [divisor, k // divisor]
            factors.update(sorted(large.items()))
            return factors
    if n > 1:
        factors[n] = 1
    return factors


def _rho_divisor(n, budget):
    """(divisor, steps): a divisor 1 < divisor < n of a composite n with no
    prime factor below 2^16, found by Pollard's rho in Brent's variant with
    the maps y -> y^2 + c, and the steps taken; the divisor is None when
    ``budget`` steps found none."""
    steps = 0
    for c in count(1):
        y, r, product, g = 2, 1, 1, 1
        while g == 1:
            x, steps = y, steps + r
            if steps > budget:
                return None, steps
            for _ in range(r):
                y = (y * y + c) % n
            done = 0
            while done < r and g == 1:
                start, batch = y, min(_RHO_BATCH, r - done)
                steps += batch
                if steps > budget:
                    return None, steps
                for _ in range(batch):
                    y = (y * y + c) % n
                    product = product * (x - y) % n
                g = gcd(product, n)
                done += batch
            r *= 2
        if g == n:
            # the batch ran past the first repeat: step through it singly
            g = 1
            while g == 1:
                start = (start * start + c) % n
                g = gcd(x - start, n)
        if g != n:
            return g, steps


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
