"""Dirichlet characters, generalized Bernoulli values, and the exact minus
part of cyclotomic class numbers.

The minus class number is evaluated analytically as

    Q * w * product over odd characters of (-1/2 * B_1(chi)),

with the product taken one Galois orbit at a time as an exact integer norm.
Characters are exponent vectors on one generator per odd prime power (and
-1, 5 at powers of two), so parity, conductor and primitive values are read
off prime by prime, without a search.

The norm of P = sum_t c_t zeta_d^t is the product of the values of P at the
phi(d) primitive d-th roots of unity.  It is computed modulo primes
l = 1 (mod d) just below 2^62, where those roots exist, and recovered by the
Chinese remainder theorem once the product M of the primes satisfies
M^2 > 4 B^2 for the bound

    |N|^2 * d^(2 phi(d)) * phi(d)^phi(d) <= (d * sum_t q_t^2)^phi(d),
    q_t = d c_t - sum_s c_s,  d > 1,

which follows from P(zeta) = (1/d) sum_t q_t zeta^t (the roots sum to
zero), Parseval over all d-th roots of unity, and the AM-GM inequality.  No
floating point is involved anywhere; non-integral output signals a bug, not
rounding error.

The primes l are found by the stdlib Miller-Rabin test of ``arith``, which
is deterministic below 2^64, and the primitive roots behind the characters'
generators come from the same module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import count, product
from math import gcd, lcm
from operator import itemgetter, mul

from .abelian import FinAbGroup
from .arith import cyclotomic_int, factorint, isprime, primitive_root, totient
from .residue import InternalConsistencyError, UnsupportedModulusError


def odd_part(x):
    """The largest odd divisor of a positive integer."""
    x = int(x)
    if x < 1:
        raise ValueError("odd_part needs a positive integer")
    while x % 2 == 0:
        x //= 2
    return x


# ---------------------------------------------------------------------------
# the unit group (Z/m)^x and its characters


@lru_cache(maxsize=None)
def _unit_group(m):
    """The local factors of (Z/m)^x, one (p, e, gens, logs) per p^e || m.

    ``gens`` lists (generator, order) for (Z/p^e)^x: a primitive root for
    odd p, 3 at 4, and -1, 5 at 2^e with e >= 3, so the first generator of
    every nontrivial factor is the one carrying -1.  ``logs`` maps each unit
    residue mod p^e to its exponents on ``gens``.
    """
    factors = []
    for p, e in factorint(int(m)).items():
        q = p ** e
        if p == 2:
            gens = [] if e == 1 else [(3, 2)] if e == 2 else \
                [(q - 1, 2), (5, q // 4)]
        else:
            gens = [(primitive_root(q), q - q // p)]
        logs = {}
        for ks in product(*(range(o) for _, o in gens)):
            value = 1
            for (g, _), k in zip(gens, ks):
                value = value * pow(g, k, q) % q
            logs[value] = ks
        if len(logs) != q - q // p:
            raise InternalConsistencyError("unit group enumeration mismatch")
        factors.append((p, e, tuple(gens), logs))
    return tuple(factors)


def _generator_orders(m):
    return [o for *_, gens, _ in _unit_group(m) for _, o in gens]


def _valuation(k, p):
    v = 0
    while k % p == 0:
        k //= p
        v += 1
    return v


def _local_conductor(p, e, ks):
    """Conductor of the nontrivial character of (Z/p^e)^x with exponents
    ``ks`` on the generators of ``_unit_group``.

    A unit is 1 mod p^j (j >= 1, and j >= 2 at p = 2) exactly when it is a
    power of g^((p-1) p^(j-1)), respectively of 5^(2^(j-2)).
    """
    if p == 2:
        if e >= 3 and ks[1]:
            return 2 ** (e - _valuation(ks[1], 2))
        return 4
    return p ** (e - min(_valuation(ks[0], p), e - 1))


class DirichletCharacter:
    """A character of (Z/m)^x, stored as exponents on fixed generators.

    chi(g_i) = exp(2 pi i * exps[i] / order_i), the generators being those
    of the prime-power factors of m in increasing order of p.  Values are
    returned as exponents of a primitive (order of chi)-th root of unity.
    """

    __slots__ = ("modulus", "exps", "order", "conductor", "parity", "_local")

    def __init__(self, modulus, exps):
        factors = _unit_group(modulus)
        orders = _generator_orders(modulus)
        if len(exps) != len(orders):
            raise ValueError("exponent vector does not match the generators")
        exps = tuple(int(k) % o for k, o in zip(exps, orders))
        order = lcm(*(o // gcd(o, k) for k, o in zip(exps, orders)))
        conductor, minus_one, local, i = 1, 0, [], 0
        for p, e, gens, logs in factors:
            ks = exps[i:i + len(gens)]
            i += len(gens)
            if any(ks):
                conductor *= _local_conductor(p, e, ks)
                minus_one += ks[0]
                weights = tuple(k * order // o for k, (_, o) in zip(ks, gens))
                local.append((p ** e, weights, logs))
        object.__setattr__(self, "modulus", int(modulus))
        object.__setattr__(self, "exps", exps)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "parity", -1 if minus_one % 2 else 1)
        # (p^e, value exponent per generator exponent, logs) of the
        # nontrivial local factors: these alone determine the values
        object.__setattr__(self, "_local", tuple(local))

    def __setattr__(self, name, value):
        raise AttributeError("DirichletCharacter is immutable")

    def is_principal(self):
        return self.order == 1

    def _exponent(self, a):
        t = 0
        for q, weights, logs in self._local:
            for w, k in zip(weights, logs[a % q]):
                t += w * k
        return t % self.order

    def value_exponent(self, a):
        """t with chi(a) = zeta_order^t, or None when gcd(a, m) > 1."""
        if gcd(a, self.modulus) != 1:
            return None
        return self._exponent(a)

    def primitive_value_exponent(self, a):
        """Value exponent of the primitive character of the same conductor.

        Each nontrivial local factor depends only on a mod its own
        conductor, so a unit mod the conductor is read in the local logs
        directly, with no lift to a unit mod m.
        """
        if gcd(a, self.conductor) != 1:
            return None
        return self._exponent(a)

    def power(self, s):
        return DirichletCharacter(self.modulus,
                                  tuple(e * s for e in self.exps))

    def __eq__(self, other):
        return (isinstance(other, DirichletCharacter)
                and self.modulus == other.modulus and self.exps == other.exps)

    def __hash__(self):
        return hash((self.modulus, self.exps))

    def __repr__(self):
        return f"DirichletCharacter(mod {self.modulus}, exps={self.exps})"


def characters(m):
    """All phi(m) Dirichlet characters modulo m."""
    m = int(m)
    if m < 1:
        raise ValueError("modulus must be positive")
    return [DirichletCharacter(m, exps)
            for exps in product(*(range(o) for o in _generator_orders(m)))]


# ---------------------------------------------------------------------------
# exact cyclotomic numbers (just enough for Bernoulli values)


class CycNumber:
    """An element of Q(zeta_d): rational coefficients on 1, zeta, ...,
    zeta^(phi(d)-1), i.e. reduced modulo the d-th cyclotomic polynomial."""

    __slots__ = ("level", "coeffs")

    def __init__(self, level, coeffs):
        level = int(level)
        phi_poly = cyclotomic_int(level)
        deg = len(phi_poly) - 1
        work = [Fraction(c) for c in coeffs]
        # exact reduction modulo the monic cyclotomic polynomial
        for k in range(len(work) - 1, deg - 1, -1):
            c = work[k]
            if c:
                for j in range(len(phi_poly) - 1):
                    work[k - deg + j] -= c * phi_poly[j]
                work[k] = Fraction(0)
        work = work[:deg] + [Fraction(0)] * (deg - len(work))
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "coeffs", tuple(work[:deg]))

    def __setattr__(self, name, value):
        raise AttributeError("CycNumber is immutable")

    def is_rational(self):
        return all(c == 0 for c in self.coeffs[1:])

    def rational_value(self):
        if not self.is_rational():
            raise ValueError("value is irrational")
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def norm(self):
        """Field norm down to Q."""
        n = len(self.coeffs)
        if n == 0:
            return Fraction(1)
        den = lcm(*(c.denominator for c in self.coeffs))
        ints = [int(c * den) for c in self.coeffs]
        return Fraction(_cyclotomic_norm_int(ints, self.level), den ** n)

    def __eq__(self, other):
        return (isinstance(other, CycNumber) and self.level == other.level
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.level, self.coeffs))

    def __repr__(self):
        return f"CycNumber(level={self.level}, coeffs={self.coeffs})"


@lru_cache(maxsize=None)
def _crt_prime(exponent, index):
    """The index-th prime l below 2^62 with l = 1 (mod exponent), counting
    down from 2^62, and an element of order exponent modulo l."""
    top = 2 ** 62 if index == 0 else _crt_prime(exponent, index - 1)[0]
    k = (top - 2) // exponent
    while not isprime(k * exponent + 1):
        k -= 1
    ell = k * exponent + 1
    primes = factorint(exponent)
    for x in count(2):
        root = pow(x, (ell - 1) // exponent, ell)
        if all(pow(root, exponent // r, ell) != 1 for r in primes):
            return ell, root


def _cyclotomic_norm_int(coeffs, d, exponent=None):
    """Norm down to Q of sum_i coeffs[i] * zeta_d^i, for integer coeffs.

    Multimodular: the residues modulo primes l = 1 (mod exponent) are
    combined by CRT under the bound in the module docstring.  ``exponent``
    is a multiple of d (default d); callers with many levels d dividing one
    exponent share its primes.
    """
    d = int(d)
    exponent = d if exponent is None else int(exponent)
    if exponent % d:
        raise ValueError("exponent must be a multiple of the level")
    folded = [0] * d
    for i, c in enumerate(coeffs):
        folded[i % d] += int(c)
    if d == 1:
        return folded[0]
    units = [j for j in range(1, d) if gcd(j, d) == 1]
    phi = len(units)
    total = sum(folded)
    bound_sq = 4 * (d * sum((d * c - total) ** 2 for c in folded)) ** phi
    scale = d ** (2 * phi) * phi ** phi
    # pick j reorders the powers of zeta into zeta^(j t), t = 0..d-1
    picks = [itemgetter(*[j * t % d for t in range(d)]) for j in units]
    residue, modulus, index = 0, 1, 0
    while modulus * modulus * scale <= bound_sq:
        ell, root = _crt_prime(exponent, index)
        index += 1
        zeta = pow(root, exponent // d, ell)
        powers = [1] * d
        for t in range(1, d):
            powers[t] = powers[t - 1] * zeta % ell
        value = 1
        for pick in picks:
            value = value * sum(map(mul, folded, pick(powers))) % ell
        residue += modulus * ((value - residue) * pow(modulus, -1, ell) % ell)
        modulus *= ell
    return residue - modulus if 2 * residue > modulus else residue


def _bernoulli_sums(chi):
    """(f, sums): the conductor, and for each t the sum of the a in [1, f)
    at which the primitive character takes the value zeta_order^t."""
    f = chi.conductor
    sums = [0] * chi.order
    for a in range(1, f):
        t = chi.primitive_value_exponent(a)
        if t is not None:
            sums[t] += a
    return f, sums


def b1(chi):
    """The first generalized Bernoulli value of a non-principal character,
    as an exact element of Q(zeta_order)."""
    if chi.is_principal():
        raise ValueError("principal characters are not accepted")
    f, sums = _bernoulli_sums(chi)
    return CycNumber(chi.order, [Fraction(s, f) for s in sums])


# ---------------------------------------------------------------------------
# the minus class number


def _normalize_modulus(m):
    m = int(m)
    if m < 1:
        raise ValueError("modulus must be positive")
    return m // 2 if m % 4 == 2 else m


#: the largest phi(m), for m normalised, that hminus evaluates.  The cost
#: follows the largest Galois orbit of odd characters, of size phi(p - 1)
#: at a prime p: on a 2-core x86-64 host (Python 3.11) the prime 1553, the
#: costliest modulus measured below the ceiling, takes 29 s, and the prime
#: 2039, with phi(p - 1) = (p - 3) / 2, takes 70 s
HMINUS_PHI_CEILING = 1600


@lru_cache(maxsize=None)
def hminus(m):
    """|C(Z[zeta_m])^-|, evaluated exactly.

    The modulus is normalised so that m = 2 mod 4 coincides with m/2 (the
    fields agree).  Q is 1 for prime powers and 2 otherwise; w counts the
    roots of unity of the field.  Every character order divides the
    exponent of (Z/m)^x, so all orbit norms share its CRT primes.  Moduli
    with phi(m) above HMINUS_PHI_CEILING raise UnsupportedModulusError
    before any character is built.
    """
    m = _normalize_modulus(m)
    if m <= 2:
        return 1
    phi = totient(m)
    if phi > HMINUS_PHI_CEILING:
        raise UnsupportedModulusError(
            f"m = {m}: phi(m) = {phi} is above {HMINUS_PHI_CEILING}, "
            "the largest degree whose minus class number is evaluated")
    q_factor = 1 if len(_unit_group(m)) == 1 else 2
    w = 2 * m if m % 2 else m
    exponent = lcm(*_generator_orders(m))

    total = Fraction(q_factor * w)
    remaining = {c for c in characters(m) if c.parity == -1}
    while remaining:
        chi = remaining.pop()
        d = chi.order
        orbit = {chi.power(s) for s in range(2, d) if gcd(s, d) == 1}
        if not orbit <= remaining:
            raise InternalConsistencyError("orbit left the odd characters")
        remaining -= orbit
        phi_d = len(orbit) + 1
        f, sums = _bernoulli_sums(chi)
        norm = _cyclotomic_norm_int(sums, d, exponent)
        total *= Fraction((-1) ** phi_d * norm, (2 * f) ** phi_d)

    if total.denominator != 1 or total <= 0:
        raise InternalConsistencyError(
            f"analytic minus class number for m={m} is not a positive "
            f"integer: {total}")
    return int(total)


# ---------------------------------------------------------------------------
# stored parity and class-group facts


#: primes p <= 509 whose cyclotomic class number is even
_EVEN_HP = frozenset({29, 113, 163, 197, 239, 277, 311, 337, 349, 373,
                      397, 421, 463, 491})

_HP_TABLE_LIMIT = 509


def hp_is_odd(p):
    """Parity of h_p for primes p <= 509, from the stored table."""
    p = int(p)
    if not isprime(p):
        raise ValueError(f"{p} is not prime")
    if p > _HP_TABLE_LIMIT:
        raise ValueError(f"parity of h_p is only tabulated for p <= "
                         f"{_HP_TABLE_LIMIT}; refusing to extrapolate")
    return p not in _EVEN_HP


#: all m >= 2 with minus class number 1 (a complete classification)
HMINUS_ONE_SQUAREFREE = frozenset(
    [2, 3, 5, 7, 11, 13, 17, 19]
    + [2 * p for p in (3, 5, 7, 11, 13, 17, 19)]
    + [p * q for p, q in ((3, 5), (3, 7), (3, 11), (5, 7))]
    + [2 * p * q for p, q in ((3, 5), (3, 7), (3, 11), (5, 7))])

HMINUS_ONE_NON_SQUAREFREE = frozenset(
    [4, 8, 9, 12, 16, 18, 20, 24, 25, 27, 28, 32, 36, 40, 44, 45, 48, 50,
     54, 60, 84, 90])

HMINUS_ONE = HMINUS_ONE_SQUAREFREE | HMINUS_ONE_NON_SQUAREFREE

#: all m >= 2 with odd(h_m^-) = 1 but h_m^- > 1 (complete classification)
ODD_HMINUS_ONE_SQUAREFREE = frozenset([29, 39, 58, 65, 78, 130])
ODD_HMINUS_ONE_NON_SQUAREFREE = frozenset([56, 68, 120])
ODD_HMINUS_ONE = ODD_HMINUS_ONE_SQUAREFREE | ODD_HMINUS_ONE_NON_SQUAREFREE


def hminus_is_one(m):
    """Stored complete answer to h_m^- = 1, without analytic evaluation."""
    return int(m) in HMINUS_ONE if int(m) >= 2 else True


def odd_hminus_is_one(m):
    """Stored complete answer to odd(h_m^-) = 1."""
    m = int(m)
    return m < 2 or m in HMINUS_ONE or m in ODD_HMINUS_ONE


#: published structure of the full class group where the artifact needs it
_KNOWN_CLASS_GROUPS = {
    29: (2, 2, 2),
    58: (2, 2, 2),
    39: (2,),
    78: (2,),
    65: (2, 2, 4, 4),
    130: (2, 2, 4, 4),
}

#: m for which the real-subfield class number is reported to be 1
_KNOWN_PLUS_TRIVIAL = frozenset(_KNOWN_CLASS_GROUPS)


@dataclass(frozen=True)
class ClassRecord:
    """Everything this artifact knows about C(Z[zeta_m])."""

    m: int
    hminus: int
    hminus_odd_part: int
    known_class_group: FinAbGroup | None = None
    known_plus_trivial: bool | None = None
    sources: dict = field(default_factory=dict)


def class_record(m, compute=True):
    """Assemble the class-group record for m.

    With compute=False the minus class number is only filled in when the
    stored classifications pin it down (the h^- = 1 lists, or m with a
    published class group and trivial plus part).
    """
    m = int(m)
    sources = {}
    known = None
    plus_trivial = None
    key = _normalize_modulus(m)
    lookup = m if m in _KNOWN_CLASS_GROUPS else key
    if lookup in _KNOWN_CLASS_GROUPS:
        known = FinAbGroup.from_cyclic_factors(_KNOWN_CLASS_GROUPS[lookup])
        plus_trivial = lookup in _KNOWN_PLUS_TRIVIAL
        sources["known_class_group"] = "published tables"
        sources["known_plus_trivial"] = "published tables"

    if compute:
        h = hminus(m)
        sources["hminus"] = "computed"
    elif hminus_is_one(m):
        h = 1
        sources["hminus"] = "stored classification"
    elif known is not None and plus_trivial:
        h = known.order
        sources["hminus"] = "published class group with trivial plus part"
    else:
        h = None
        sources["hminus"] = "not evaluated"

    if known is not None and plus_trivial and h is not None and h != known.order:
        raise InternalConsistencyError(
            f"h^-({m}) = {h} conflicts with the published class group")
    return ClassRecord(
        m=m,
        hminus=h,
        hminus_odd_part=odd_part(h) if h is not None else None,
        known_class_group=known,
        known_plus_trivial=plus_trivial,
        sources=sources,
    )
