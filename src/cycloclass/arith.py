"""Integer arithmetic on the small numbers of this package, in the stdlib.

Moduli, character orders and field degrees stay far below 2^32, and so do
the CRT primes of ``classnumber``, just below 2^30.  Primality agrees with
sympy 1.14 (without gmpy2) on every n: below 100 it is a set lookup, and
above it one gcd with the product of the primes below 100 screens out
every n with a small factor; the strong (Miller-Rabin) test then runs on
the bases of the first row of ``_MR_TABLE`` whose bound exceeds n, which
is proven below psi_13 =
3317044064679887385961981; at or above psi_13, sympy's strong BPSW test
(Baillie and Wagstaff, Math. Comp. 35 (1980)), the strong test to base 2
and a strong Lucas test, which no known composite passes.  A composite
cofactor with no prime factor below 2^16 is split by Pollard's rho in
Brent's variant (Brent, BIT 20 (1980)) under a fixed budget of steps; a
number it cannot split within the budget raises UnsupportedModulusError,
so every factorisation is complete, or it is refused within the rho
budget, and none takes long.  An answer whose modulus has a prime factor
at or above psi_13 rests on a BPSW probable prime until such primes are
proven (ROADMAP item 26).
"""

from functools import lru_cache
from itertools import compress, count
from math import gcd, isqrt, lcm, prod
from operator import index

from .record import Record

#: trial division stops at this bound
_TRIAL_BOUND = 2 ** 16

#: (bound, bases): no composite n below the bound passes the strong test
#: to every base.  4759123141 is the least strong pseudoprime to 2, 7 and
#: 61 (Jaeschke, Math. Comp. 61 (1993)); no composite below 2^64 passes
#: the seven bases (Sinclair, 2011); psi_13 is the least strong
#: pseudoprime to the 13 primes up to 41 (Sorenson and Webster, Math.
#: Comp. 86 (2017)).  Every base is below every n its row sees
_MR_TABLE = (
    (4_759_123_141, (2, 7, 61)),
    (2 ** 64, (2, 325, 9375, 28178, 450775, 9780504, 1795265022)),
    (3_317_044_064_679_887_385_961_981,
     (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)),
)

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


class InternalConsistencyError(RuntimeError):
    """A quantity that is provably integral or consistent failed to be so."""


def _sieve(limit):
    """The primes below ``limit``."""
    flags = bytearray([1]) * limit
    flags[:2] = b"\x00\x00"
    for p in range(2, isqrt(limit - 1) + 1):
        if flags[p]:
            flags[p * p::p] = bytes(len(range(p * p, limit, p)))
    return tuple(compress(range(limit), flags))


# isprime screens by the primes below 100 before Miller-Rabin, which rejects
# most composites for less than one strong test costs: a set lookup below
# 100 and one gcd with their product above it.  The gcd of a 30-bit n with
# the 121-bit product takes 0.24 us, against 0.8 us for the 25 remainders
# of a prime n (Python 3.11, 2-core x86-64 host)
_SCREEN_PRIMES = _sieve(100)
_SCREEN_SET = frozenset(_SCREEN_PRIMES)
_SCREEN_PRODUCT = prod(_SCREEN_PRIMES)

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


def _jacobi(a, n):
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas_probable_prime(n):
    """Strong Lucas test of odd n > 1 with Selfridge's parameters: D the
    first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1 and Q = (1 - D)/4.
    A square has no such D and is rejected first."""
    if isqrt(n) ** 2 == n:
        return False
    for d in count(5, 2):
        d = d if d % 4 == 1 else -d
        j = _jacobi(d, n)
        if j == -1:
            break
        if j == 0 and d % n:
            return False
    q = (1 - d) // 4
    twos = ((n + 1) & -(n + 1)).bit_length() - 1

    def half(x):
        return (x + n if x & 1 else x) // 2 % n

    # U_k, V_k and Q^k mod n for k = (n + 1) / 2^twos, by the binary
    # digits of k: k -> 2k doubles, k -> k + 1 adds one step with P = 1
    u, v, qk = 1, 1, q % n
    for bit in bin((n + 1) >> twos)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v, qk = half(u + v), half(d * u + v), qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(twos - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


def isprime(n):
    """Whether the integer n is prime (False for n < 2)."""
    n = index(n)
    if n < 100:
        return n in _SCREEN_SET
    if gcd(n, _SCREEN_PRODUCT) != 1:
        return False
    if n < 101 * 101:  # the least composite with no prime factor below 100
        return True
    twos = ((n - 1) & (1 - n)).bit_length() - 1
    odd = (n - 1) >> twos
    for bound, bases in _MR_TABLE:
        if n < bound:
            for a in bases:
                if not _strong_probable_prime(n, a, odd, twos):
                    return False
            return True
    return (_strong_probable_prime(n, 2, odd, twos)
            and _strong_lucas_probable_prime(n))


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


class Modulus(Record):
    """What the factorisation of m >= 1 gives: the (p, e) with p^e || m,
    p increasing, phi(m), the orders of the cyclic factors of (Z/m)^x by
    p^e (2 at 4, 2 and 2^(e-2) at 2^e, e >= 3, and (p - 1) p^(e-1) at odd
    p, the first holding -1), their lcm lambda(m), and whether m is
    square-free.  No p - 1 is factored.

    A cold h^- builds one record for m and one for each p - 1, so the
    fields are set through the slot setters one by one, not by the loop of
    ``Record.__init__``, and the orders and square-freeness read off the
    factorisation in one pass: 2.0-2.2 us for the record at m = 97 and
    227, against 2.4-2.8 us with that loop and 2.7-3.1 us with a loop over
    ``zip(..., strict=True)`` (timeit, best of 9 in each of five rounds,
    Python 3.11, 2-core x86-64 host)."""

    __slots__ = ("m", "factors", "phi", "orders", "exponent", "squarefree")

    def __init__(self, m):
        m = index(m)
        found = factorint(m)
        e = found.get(2, 0)
        orders = [2, 2 ** e // 4] if e > 2 else [2] if e == 2 else []
        for p, e in found.items():
            if p > 2:
                orders.append((p - 1) * p ** (e - 1))
        set_m, set_factors, set_phi, set_orders, set_exponent, \
            set_squarefree = self._setters
        set_m(self, m)
        set_factors(self, tuple(found.items()))
        set_phi(self, prod(orders))
        set_orders(self, tuple(orders))
        set_exponent(self, lcm(*orders))
        set_squarefree(self, sum(found.values()) == len(found))


#: the records ``modulus`` keeps: the JSON sweep to 30000 reads 29,999, and its
#: peak RSS was 160.6 MB unbounded, 146.7 MB at 1024 and 147.2 MB with each
#: layer factoring for itself (3 runs each, Python 3.11, 2-core x86-64 host)
_MODULUS_CACHE_SIZE = 1024


@lru_cache(maxsize=_MODULUS_CACHE_SIZE)
def modulus(m):
    """The record of m >= 1, cached: the one place where m is factored."""
    return Modulus(m)


def divisors(n):
    """The positive divisors of n >= 1, in increasing order."""
    divs = [1]
    for p, e in modulus(n).factors:
        divs = [d * p ** k for d in divs for k in range(e + 1)]
    return sorted(divs)
