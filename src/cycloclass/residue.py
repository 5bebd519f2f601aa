"""Unit groups of the residue rings F_p[zeta_n] and the unit cokernel vtilde.

F_p[zeta_n] means F_p tensor Z[zeta_n], a product of finite fields: one
copy of F_{p^f} for each irreducible factor of the n-th cyclotomic
polynomial mod p, where f is the multiplicative order of p mod n.
Conjugation zeta -> zeta^(-1) acts on it, and its fixed ring is
F_p[lambda_n], lambda_n = zeta_n + zeta_n^(-1).

The quotient F_p[zeta_n]^x / F_p[lambda_n]^x is not built as a quotient.
By Hilbert 90, u -> u/ubar identifies it with the norm-one torus
{t : t tbar = 1}.  Conjugation permutes the factor fields.  They are
self-conjugate when -1 is a power of p mod n, that is p^(f/2) = -1 mod n;
each then gives its elements of norm one over F_{p^(f/2)}, a cyclic group
of order p^(f/2) + 1.  Otherwise they come in conjugate pairs, and a pair
gives one copy of F_{p^f}^x, cyclic of order p^f - 1.  For n <= 2
conjugation is trivial and so is the torus.

The reduction map of this module sends zeta_m and the non-real unit
1 - zeta into the sum of these tori at the primes of m.  On the tori,
zeta^e becomes zeta^(2e) and 1 - zeta^a becomes -zeta^a: in every factor
field, powers of a generator of the cyclic group <zeta, -1>, whose order
divides 2m.  Their coordinates are therefore read off without any discrete
logarithm, and they are the same in every factor field.  So the torus at
q, (Z/N_q)^(r_q), holds both images on its diagonal, a copy of Z/N_q, and
there in the part whose order has only primes of 2m.  The cokernel
vtilde(m) is that of the two image columns in the sum of these parts, one
relation row per prime of m, plus everything no image reaches, summed by
invariant factors; no torus order is factored.  The relations are a
matrix of at most 3 rows and 5 columns, and the invariant factors of its
cokernel are read off its determinantal divisors: s_k = D_k / D_(k-1),
D_k the gcd of its k x k minors (H. J. S. Smith, 1861; M. Newman,
*Integral Matrices*, Thm II.9), with no change of basis built.
Conjugation inverts every element of a norm-one torus, so the involution
it induces on vtilde(m) is negation.  A torus of more than
TORUS_BITS_CEILING bits is refused before any p^f - 1 is formed.

Primality and the record ``modulus(n)`` of the primes and phi of n come
from the stdlib module ``arith``, and so do the two exceptions:
``UnsupportedModulusError``, which ``arith`` raises for a modulus it
cannot factor within its budget, and ``InternalConsistencyError``.
"""

from functools import lru_cache
from itertools import combinations
from math import gcd, log2, prod

from .abelian import FinAbGroup
from .arith import InternalConsistencyError, UnsupportedModulusError, \
    isprime, modulus
from .record import Record


# ---------------------------------------------------------------------------
# multiplicative orders


def order_mod(a, n):
    """Multiplicative order of a modulo n (n >= 1, gcd(a, n) = 1), by
    descent from phi(n) over its prime factors."""
    if n <= 1:
        return 1
    if gcd(a, n) != 1:
        raise ValueError("order of a non-unit")
    k = modulus(n).phi
    for r, _ in modulus(k).factors:
        while k % r == 0 and pow(a, k // r, n) == 1:
            k //= r
    return k


# ---------------------------------------------------------------------------
# the unit groups and their norm-one tori


#: the largest norm-one torus built, in bits of its order (about
#: phi(n) log2(p) / 2); a larger one raises UnsupportedModulusError before
#: p^f - 1 is formed.  Printing the orders in decimal costs most: on a
#: 2-core x86-64 host (Python 3.11) the costliest answers, two tori near
#: the ceiling at m = 34747 * 34757, take 0.5-0.7 s cold for vtilde and
#: cbound, 0.6 s for cbound and 1.0-1.15 s for vtilde with --format json;
#: vtilde at 200006 (a torus of 50,001 bits) takes 0.10-0.11 s
TORUS_BITS_CEILING = 2 ** 18


class ResidueRingUnits(Record):
    """The unit group of F_p[zeta_n]: phi(n)/f cyclic factors F_{p^f}^x."""

    __slots__ = ("p", "n", "field_degree", "factor_count", "group")

    def __init__(self, p, n):
        p, n = int(p), int(n)
        if not isprime(p):
            raise ValueError(f"{p} is not prime")
        if n < 1 or gcd(p, n) != 1:
            raise ValueError(f"need gcd(p, n) = 1, got p={p}, n={n}")
        phi = modulus(n).phi
        torus_bits = phi * log2(p) / 2
        if torus_bits > TORUS_BITS_CEILING:
            raise UnsupportedModulusError(
                f"the norm-one torus of F_{p}[zeta_{n}] has about "
                f"{torus_bits:.0f} bits; tori above {TORUS_BITS_CEILING} "
                "bits are not built")
        f = order_mod(p, n)
        if phi % f:
            raise InternalConsistencyError("field degree does not divide phi(n)")
        count, unit_order = phi // f, p ** f - 1
        # F_2[zeta_1] has a trivial unit group; everything else is honest
        super().__init__(p, n, f, count, FinAbGroup(
            [unit_order] * count if unit_order > 1 else []))

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
        elif f % 2 == 0 and pow(p, f // 2, n) == n - 1:
            group = FinAbGroup([p ** (f // 2) + 1] * count)
        else:
            group = FinAbGroup([p ** f - 1] * (count // 2))
        super().__init__(p, n, group)

    def images(self, e, a):
        """The torus coordinates of the classes of zeta_n^e and 1 - zeta_n^a,
        each the one coordinate it has in every cyclic factor.

        u -> u/ubar sends them to zeta^(2e) and -zeta^a.  In a factor field,
        zeta and -1 generate a cyclic group <w> of order L dividing 2n, with
        zeta = w or zeta = -w.  Its elements in the torus Z/N are the powers
        of w^(L/g), g = gcd(L, N), and w^(L/g) -> N/g embeds them.  Another
        embedding differs by a unit of Z/N, which changes no cokernel, and
        every factor field gives the same coordinates because zeta is a
        primitive n-th root of unity in each.  A trivial torus gives 0, 0.
        """
        if a % self.n == 0:
            raise InternalConsistencyError("1 - zeta^0 is not a unit")
        if self.group.is_trivial():
            return 0, 0
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
        return tuple(coords)

    def __repr__(self):
        return f"UnitQuotient(p={self.p}, n={self.n}, group={self.group})"


def residue_units(p, n):
    return ResidueRingUnits(p, n)


@lru_cache(maxsize=None)
def unit_quotient(p, n):
    return UnitQuotient(p, n)


# ---------------------------------------------------------------------------
# the reduction map on units and its cokernel


def _primes(m):
    """The primes of a square-free m with two odd primes, or with one or two
    odd primes and the prime 2: the moduli the unit reduction covers."""
    m = int(m)
    if m < 2:
        raise UnsupportedModulusError(
            f"m = {m}: the cyclic order must be at least 2")
    record = modulus(m)
    if not record.squarefree:
        raise UnsupportedModulusError(
            f"m = {m} is not square-free; the unit reduction applies to "
            "square-free moduli only")
    primes = [p for p, _ in record.factors]
    if len(primes) == 2 or (len(primes) == 3 and 2 in primes):
        return primes
    odd = [q for q in primes if q != 2]
    raise UnsupportedModulusError(
        f"m = {m}: no unit-index reduction is implemented for "
        f"{len(odd)} odd prime factors"
        + (" without the factor 2" if 2 not in primes else ""))


def _cokernel(images, orders):
    """The invariant factors, 1s included, of Z^r modulo the columns of
    [images | diag(orders)], ``images`` r rows of two entries.

    They are s_k = D_k / D_(k-1), D_k the gcd of the k x k minors and
    D_0 = 1.  A minor that takes the diagonal columns of the rows U has
    nothing else in those columns, so it vanishes unless it takes the rows
    U, and is then +-prod(orders[U]) times a minor of ``images`` on its
    other rows V, |V| <= 2.  So D_k is the gcd, over the sets V of at most
    two rows and the (k - |V|)-sets U of other rows, of prod(orders[U])
    times g_V: 1 for no row, gcd(x, y) for the row (x, y), and the
    determinant for two rows.  A finite cokernel has D_r != 0.
    """
    r = len(orders)
    minors = {(): 1}
    for i, (x, y) in enumerate(images):
        minors[(i,)] = gcd(x, y)
    for i, j in combinations(range(r), 2):
        minors[(i, j)] = images[i][0] * images[j][1] - \
            images[i][1] * images[j][0]
    factors, previous = [], 1
    for k in range(1, r + 1):
        divisor = gcd(*(g * prod(orders[u] for u in diagonal)
                        for image_rows, g in minors.items()
                        if len(image_rows) <= k
                        for diagonal in combinations(
                            [u for u in range(r) if u not in image_rows],
                            k - len(image_rows))))
        if divisor == 0:
            raise InternalConsistencyError(
                "the unit images have an infinite cokernel")
        factors.append(divisor // previous)
        previous = divisor
    return factors


def _split_off(n, m):
    """(a, n // a), a the largest divisor of n whose primes all divide m."""
    a, g = 1, gcd(n, m)
    while g > 1:
        a *= g
        g = gcd(n // a, g)
    return a, n // a


@lru_cache(maxsize=None)
def vtilde(m):
    """The cokernel of the reduction map from the distinguished units of
    Z[zeta_m] into the sum of the unit quotients at the primes of m.

    The source is generated by zeta_m and by 1 - zeta_r, r = m, or m/2 for
    m = 2pq, where the non-real coset comes from the odd part.  Both images
    lie on the diagonal Z/N_q of each torus (Z/N_q)^(r_q), and in its part
    Z/a_q whose order has only primes of 2m, since their orders divide 2m.
    So the relations are one row per torus, a_q on the diagonal, and
    Z/(N_q/a_q) and the r_q - 1 other factors of each torus pass into the
    cokernel whole; the minors of the relations see no number larger than
    the a_q.  Trivial for m prime: the cyclotomic units already surject
    onto the residue field units there.
    """
    m = int(m)
    if m >= 2 and isprime(m):
        return FinAbGroup()
    primes = _primes(m)
    r = m // 2 if len(primes) == 3 else m
    images, orders, untouched = [], [], []
    for q in primes:
        k = m // q
        uq = unit_quotient(q, k)
        beta = pow(q, -1, k)
        reached, rest = _split_off(uq.group.exponent, 2 * m)
        images.append([c % reached for c in uq.images(
            beta % k, (beta * (m // r)) % k)])
        orders.append(reached)
        untouched += [rest] + [uq.group.exponent] * (uq.group.rank - 1)
    return FinAbGroup.from_cyclic_factors(
        _cokernel(images, orders) + untouched)


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
    primes = _primes(m)
    if len(primes) == 3:
        raise UnsupportedModulusError(
            f"m = {m}: the even three-prime bound is only stored for m = 30")
    denominator = m // 2 if 2 in primes else 2 * m
    total = prod(unit_quotient(q, m // q).group.order for q in primes)
    if total % denominator:
        raise InternalConsistencyError(
            f"unit-quotient order {total} is not divisible by {denominator}")
    return total // denominator
