"""Unit groups of the residue rings F_p[zeta_n] and the unit cokernel vtilde.

F_p[zeta_n] means F_p tensor Z[zeta_n], a product of finite fields: one
copy of F_{p^f} for each irreducible factor of the n-th cyclotomic
polynomial mod p, where f is the multiplicative order of p mod n.
Conjugation zeta -> zeta^(-1) acts on it, and its fixed ring is
F_p[lambda_n], lambda_n = zeta_n + zeta_n^(-1).

The quotient F_p[zeta_n]^x / F_p[lambda_n]^x is not built as a quotient.
By Hilbert 90, u -> u/ubar identifies it with the norm-one torus
{t : t tbar = 1}.  Conjugation permutes the factor fields.  A
self-conjugate factor (f = 2 f+, where f+ is the order of p in
(Z/n)^x/{+-1}) gives its elements of norm one over F_{p^(f/2)}, a cyclic
group of order p^(f/2) + 1; a pair of conjugate factors gives one copy of
F_{p^f}^x, cyclic of order p^f - 1.  For n <= 2 conjugation is trivial and
so is the torus.

The reduction map of this module sends zeta_m and the non-real unit
1 - zeta into the sum of these tori at the primes of m.  On the tori,
zeta^e becomes zeta^(2e) and 1 - zeta^a becomes -zeta^a: in every factor
field, powers of a generator of the cyclic group <zeta, -1>, whose order
divides 2m.  Their coordinates are therefore read off without any discrete
logarithm.  The part of each torus of order prime to 2m, which no image
reaches, passes into the cokernel vtilde(m) whole through the Smith normal
form, and no torus order is factored.  Conjugation inverts every element
of a norm-one torus, so the involution it induces on vtilde(m) is negation.

The integer arithmetic (factorisation of m, primality, Euler's phi and the
cyclotomic polynomials, re-exported here as ``cyclotomic_int``) comes from
the stdlib module ``arith``, and so does ``UnsupportedModulusError``,
re-exported here, which it raises for a modulus it cannot factor within its
budget.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, prod

from .abelian import AbHom, FinAbGroup, IntMatrix, cokernel, direct_sum
from .arith import cyclotomic_int  # noqa: F401  (re-exported)
from .arith import UnsupportedModulusError, factorint, isprime, totient
from .record import Record


class InternalConsistencyError(RuntimeError):
    """A quantity that is provably integral or consistent failed to be so."""


# ---------------------------------------------------------------------------
# multiplicative orders


def order_mod(a, n):
    """Multiplicative order of a modulo n (n >= 1, gcd(a, n) = 1)."""
    if n <= 1:
        return 1
    if gcd(a, n) != 1:
        raise ValueError("order of a non-unit")
    k, v = 1, a % n
    while v != 1:
        v = (v * a) % n
        k += 1
    return k


def order_mod_signed(a, n):
    """Order of a in (Z/n)^x / {+-1}: least k with a^k = +-1 mod n."""
    if n <= 2:
        return 1
    k, v = 1, a % n
    while v != 1 and v != n - 1:
        v = (v * a) % n
        k += 1
    return k


# ---------------------------------------------------------------------------
# the unit groups and their norm-one tori


class ResidueRingUnits(Record):
    """The unit group of F_p[zeta_n]: phi(n)/f cyclic factors F_{p^f}^x."""

    __slots__ = ("p", "n", "field_degree", "factor_count", "group")

    def __init__(self, p, n):
        p, n = int(p), int(n)
        if not isprime(p):
            raise ValueError(f"{p} is not prime")
        if n < 1 or gcd(p, n) != 1:
            raise ValueError(f"need gcd(p, n) = 1, got p={p}, n={n}")
        f, phi = order_mod(p, n), totient(n)
        if phi % f:
            raise InternalConsistencyError("field degree does not divide phi(n)")
        count, unit_order = phi // f, p ** f - 1
        # F_2[zeta_1] has a trivial unit group; everything else is honest
        super().__init__(p, n, f, count, FinAbGroup(
            [unit_order] * count if unit_order > 1 else []))

    @property
    def order(self):
        return self.group.order

    def __repr__(self):
        return (f"ResidueRingUnits(p={self.p}, n={self.n}, "
                f"f={self.field_degree}, factors={self.factor_count})")


class UnitQuotient(Record):
    """F_p[zeta_n]^x / F_p[lambda_n]^x as the norm-one torus {t : t tbar = 1}:
    one cyclic factor per self-conjugate factor field or conjugate pair."""

    __slots__ = ("p", "n", "group")

    def __init__(self, p, n):
        p, n = int(p), int(n)
        units = residue_units(p, n)
        f, count = units.field_degree, units.factor_count
        if n <= 2:
            group = FinAbGroup()
        elif 2 * order_mod_signed(p, n) == f:
            group = FinAbGroup([p ** (f // 2) + 1] * count)
        else:
            group = FinAbGroup([p ** f - 1] * (count // 2))
        super().__init__(p, n, group)

    def images(self, e, a):
        """Torus coordinates of the classes of zeta_n^e and 1 - zeta_n^a.

        u -> u/ubar sends them to zeta^(2e) and -zeta^a.  In a factor field,
        zeta and -1 generate a cyclic group <w> of order L dividing 2n, with
        zeta = w or zeta = -w.  Its elements in the torus Z/N are the powers
        of w^(L/g), g = gcd(L, N), and w^(L/g) -> N/g embeds them.  Another
        embedding differs by a unit of Z/N, which changes no cokernel, and
        every factor field gives the same coordinates because zeta is a
        primitive n-th root of unity in each.
        """
        if a % self.n == 0:
            raise InternalConsistencyError("1 - zeta^0 is not a unit")
        if self.group.is_trivial():
            return (), ()
        n, order = self.n, self.group.exponent
        cyclic = n if self.p == 2 or n % 2 == 0 else 2 * n
        zeta_log = 1 if cyclic == n else n + 1
        minus_one_log = 0 if self.p == 2 else cyclic // 2
        g = gcd(cyclic, order)
        coords = []
        for log in (2 * e * zeta_log, minus_one_log + a * zeta_log):
            log %= cyclic
            if log % (cyclic // g):
                raise InternalConsistencyError(
                    "a unit image lies outside the norm-one torus")
            coords.append(log // (cyclic // g) * (order // g))
        return tuple((c,) * self.group.rank for c in coords)

    def __repr__(self):
        return f"UnitQuotient(p={self.p}, n={self.n}, group={self.group})"


@lru_cache(maxsize=None)
def residue_units(p, n):
    return ResidueRingUnits(p, n)


@lru_cache(maxsize=None)
def unit_quotient(p, n):
    return UnitQuotient(p, n)


# ---------------------------------------------------------------------------
# the reduction map on units and its cokernel


def _decompose(m):
    m = int(m)
    if m < 2:
        raise UnsupportedModulusError(
            f"m = {m}: the cyclic order must be at least 2")
    fact = factorint(m)
    if any(e > 1 for e in fact.values()):
        raise UnsupportedModulusError(
            f"m = {m} is not square-free; the unit reduction applies to "
            "square-free moduli only")
    primes = list(fact)
    odd = [q for q in primes if q != 2]
    if len(primes) == 2 and 2 not in primes:
        return primes, "pq"
    if len(primes) == 2 and 2 in primes:
        return primes, "2p"
    if len(primes) == 3 and 2 in primes:
        return primes, "2pq"
    raise UnsupportedModulusError(
        f"m = {m}: no unit-index reduction is implemented for "
        f"{len(odd)} odd prime factors"
        + (" without the factor 2" if 2 not in primes else ""))


def _second_generator_root(m, kind):
    """The root of unity r with 1 - zeta_r generating the non-real coset.

    For two odd primes the coset generator is 1 - zeta_m itself; when m is
    even the relevant field has odd conductor, so the generator comes from
    the odd part.  For m = 2p the unit group has no non-real coset and the
    column is redundant (but still a unit).
    """
    odd = m // 2 if m % 2 == 0 else m
    return odd if (kind != "2p" and odd != m) else m


@lru_cache(maxsize=None)
def psi_plus_presentation(m):
    """The reduction map from the distinguished units of Z[zeta_m] into the
    direct sum of the unit quotients at each prime of m.

    The source is Z/m + Z/2m; the first generator is zeta_m, the second is
    1 - zeta_r for the coset root r (its image squares into the span of
    the first column, hence has order dividing 2m).  The cokernel of this
    map is vtilde(m).
    """
    primes, kind = _decompose(m)
    quots = [unit_quotient(q, m // q) for q in primes]
    target, injections, _ = direct_sum([uq.group for uq in quots])

    r = _second_generator_root(m, kind)
    zeta_vec = target.zero()
    u_vec = target.zero()
    for q, uq, inj in zip(primes, quots, injections):
        k = m // q
        beta = pow(q, -1, k)
        zeta_local, u_local = uq.images(beta % k, (beta * (m // r)) % k)
        zeta_vec = target.reduce(_addvec(zeta_vec, inj(zeta_local)))
        u_vec = target.reduce(_addvec(u_vec, inj(u_local)))
    source = FinAbGroup([m, 2 * m])
    matrix = IntMatrix.from_columns([zeta_vec, u_vec], rows=target.rank)
    return AbHom(source, target, matrix)


def _addvec(a, b):
    return tuple(u + v for u, v in zip(a, b))


@lru_cache(maxsize=None)
def vtilde(m):
    """The cokernel of the unit-reduction presentation at m.

    Trivial for m prime: the cyclotomic units already surject onto the
    residue field units there.
    """
    m = int(m)
    if m >= 2 and isprime(m):
        return FinAbGroup()
    group, _ = cokernel(psi_plus_presentation(m))
    return group


#: the one bound whose printed source value cannot be recovered by direct
#: counting of the residue fields (the composite modulus 15 enters); the
#: stored divisor is the published one and divides the directly computed
#: cokernel order.
_STORED_C_BOUNDS = {30: 10}


def c_bound(m):
    """A divisor of |vtilde(m)|, from the orders of the unit quotients.

    Computed as the exact ratio of the target order by the worst-case
    image order of the presentation (2pq for two odd primes, p for 2p).
    """
    m = int(m)
    if m in _STORED_C_BOUNDS:
        return _STORED_C_BOUNDS[m]
    primes, kind = _decompose(m)
    if kind == "2pq":
        raise UnsupportedModulusError(
            f"m = {m}: the even three-prime bound is only stored for m = 30")
    denominator = (m // 2) if kind == "2p" else 2 * m
    total = prod(unit_quotient(q, m // q).group.order for q in primes)
    if total % denominator:
        raise InternalConsistencyError(
            f"unit-quotient order {total} is not divisible by {denominator}")
    return total // denominator
