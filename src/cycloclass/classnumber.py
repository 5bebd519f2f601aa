"""Dirichlet characters, generalized Bernoulli values, and the exact minus
part of cyclotomic class numbers.

The minus class number is evaluated analytically as

    h^- = Q * w * product over odd characters chi of (-1/2 * B_1(chi)),
    B_1(chi) = (1/f) * sum_t c_t zeta_d^t,

d the order and f the conductor of chi, c_t the sum of the a in [1, f) with
chi(a) = zeta_d^t.  Characters are exponent vectors on one generator per
odd prime power (and -1, 5 at powers of two), so parity, conductor and
primitive values are read off prime by prime, without a search.

A Galois orbit of odd characters shares d, f and the c_t, and its members
put zeta_d at the phi(d) primitive d-th roots of unity.  So h^- is the
product over the orbits of the values at those roots, times -1/(2f) each,
taken mod l^k for one prime l = 1 (mod lambda(m)) below 2^31, at the
Teichmueller lift r^(l^(k-1)) of an r of order lambda(m) mod l (Washington,
GTM 83, 5.1): the lift has the same order, and each Phi_d, d | lambda(m),
splits mod l^k at its powers.  An odd character has d even and
zeta_d^(d/2) = -1, so each value is a sum of half the length,

    sum_t c_t zeta^t = sum_(t < d/2) (c_t - c_(t + d/2)) zeta^t.

An orbit's norm N of sum_t c_t zeta^t obeys

    |N|^2 * d^(2 phi(d)) * phi(d)^phi(d) <= (d * sum_t q_t^2)^phi(d),
    q_t = d c_t - sum_s c_s,  d > 1,

by P(zeta) = (1/d) sum_t q_t zeta^t (the roots sum to zero), Parseval over
all d-th roots of unity, and the AM-GM inequality, on the full-length c_t.
The orbit contributes (-1)^phi(d) N / (2f)^phi(d), so k is the least
exponent with

    l^(2k) * prod (2 d f)^(2 phi(d)) phi(d)^phi(d)
        > 4 (Q w)^2 * prod (d * sum_t q_t^2)^phi(d),

the products over the orbits; the residue of least absolute value mod l^k
is then h^-.  Two more such primes l' and l'' check it in the same pass,
taken mod l^k * l' * l'': their product, of about 2^62, is the check
modulus.  No floating point is involved anywhere: a failed check, or a
value that is not positive, signals a bug, not rounding error.

The orbits are never walked character by character.  The orbit of chi is
the set of generators of the cyclic group <chi>, so the orbits are the
products of one cyclic subgroup of each Sylow l-part of the character
group, and the parity of chi is that of its 2-part.  The cyclic subgroups
of each l-part are listed by a normal form of their generators, those of
the 2-part kept when odd.  The c_t of an orbit come from a table of the
units mod f in the order of their logarithms on the generators, built once
per conductor f in each hminus call: along its longest axis the value
exponent grows by a fixed step, so the c_t are sums of strided slices of
its rows.  The orbits must cover the phi(m)/2 odd characters.

The primes l, l' and l'' are found by the stdlib Miller-Rabin test of
``arith``, which is deterministic below 2^64 and takes three bases below
4759123141, and the primitive roots behind the characters' generators
come from the same module.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import count, product
from math import gcd, lcm, prod
from operator import mul

from .abelian import FinAbGroup
from .arith import factorint, isprime, primitive_root, totient
from .record import Record
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


class DirichletCharacter(Record):
    """A character of (Z/m)^x, stored as exponents on fixed generators.

    chi(g_i) = exp(2 pi i * exps[i] / order_i), the generators being those
    of the prime-power factors of m in increasing order of p.  The local
    weights give the values as exponents of a primitive (order of chi)-th
    root of unity.
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
        # _local: (p^e, value exponent per generator exponent, logs) of
        # the nontrivial local factors, which alone determine the values
        super().__init__(int(modulus), exps, order, conductor,
                         -1 if minus_one % 2 else 1, tuple(local))

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
# the minus class number


def _cyclic_subgroups(ell, sizes):
    """(l^b, xs) per cyclic subgroup of the l-group of the Z/l^(a_i), sizes
    the l^(a_i): l^b is its order, and xs the one generator whose first
    coordinate i of largest order l^b is l^(a_i - b).

    A unit u mod l^b fixing that coordinate is 1 mod l^(a_i - v(x_i)) =
    l^b, so the generator is unique: coordinates before i have orders
    below l^b, those after it at most l^b.
    """
    yield 1, (0,) * len(sizes)
    for b in range(1, _valuation(max(sizes), ell) + 1):
        order = ell ** b
        for i, size in enumerate(sizes):
            if size < order:
                continue
            # multiples of s / l^(b - 1) before i and of s / l^b after it,
            # in a factor Z/s; of 1 where s is the smaller
            choices = [range(0, s, max(1, s * ell // order))
                       for s in sizes[:i]]
            choices.append((size // order,))
            choices += [range(0, s, max(1, s // order))
                        for s in sizes[i + 1:]]
            for xs in product(*choices):
                yield order, xs


def _unit_table(m, f):
    """(table, axes): the units a in [1, f) ordered by their logarithms on
    the generators of ``_unit_group(m)`` reduced mod f, and the axes as
    (generator index, order mod f), in the order of the table.

    The local factor whose last axis is longest comes last, so that the
    table is a run of rows along that axis: the fewest rows, each summed
    in strided slices.
    """
    blocks, i = [], 0
    for p, e, gens, _ in _unit_group(m):
        fp = gcd(f, p ** e)
        if fp > 1:
            # -1 keeps order 2 mod fp >= 4, 5 has order fp / 4 there
            orders = [fp - fp // p] if p > 2 else [2] if e == 2 else \
                [2, fp // 4]
            residues = [1]
            for (g, _), o in zip(gens, orders):
                powers = [1]
                for _ in range(o - 1):
                    powers.append(powers[-1] * g % fp)
                residues = [r * s % fp for r in residues for s in powers]
            rest = f // fp
            lift = rest * pow(rest, -1, fp)  # 1 mod fp, 0 mod the rest of f
            blocks.append(([*zip(range(i, i + len(gens)), orders)],
                           [r * lift for r in residues]))
        i += len(gens)
    blocks.sort(key=lambda block: block[0][-1][1])
    table = [0]
    for _, block in blocks:
        table = [a + b for a in table for b in block]
    return [a % f for a in table], [axis for axes, _ in blocks
                                    for axis in axes]


def _odd_orbits(m):
    """One (d, f, sums) per Galois orbit of odd characters modulo m.

    The orbit {chi^j : j a unit mod d} of a character chi of order d is the
    set of generators of the cyclic group it generates, so the orbits are
    the products of one cyclic subgroup of each Sylow l-part of the
    character group, and the parity is that of the 2-part alone: the
    exponents on the generators carrying -1 have an odd sum.  An l-part is
    taken in exponents x_i mod l^(a_i) on the generators, the exponent of
    a generator of order o being x_i * o / l^(a_i).

    A character's sums c_t add the units a of its conductor f along one
    row of ``_unit_table(m, f)`` at a time: on a row, the value exponent
    grows by the weight w of the last axis at each step, so the entries
    s, s + d', s + 2d', ... of a row, d' = d / gcd(w, d), share it.  The
    orbits must cover the phi(m)/2 odd characters.
    """
    factors = _unit_group(m)
    orders = _generator_orders(m)
    signs, i = [], 0
    for *_, gens, _ in factors:
        if gens:
            signs.append(i)
        i += len(gens)

    parts = []
    for ell in factorint(lcm(*orders)):
        sizes = [ell ** _valuation(o, ell) for o in orders]
        part = []
        for order, xs in _cyclic_subgroups(ell, sizes):
            exps = [x * o // s for x, o, s in zip(xs, orders, sizes)]
            if ell == 2 and sum(exps[i] for i in signs) % 2 == 0:
                continue
            part.append((order, order - order // ell, exps))
        parts.append(part)

    tables, orbits, covered = {}, [], 0
    for combination in product(*parts):
        d = prod(order for order, _, _ in combination)
        exps = [sum(ks) % o for *ks, o in
                zip(*(part_exps for *_, part_exps in combination), orders)]
        f, i = 1, 0
        for p, e, gens, _ in factors:
            ks = exps[i:i + len(gens)]
            if any(ks):
                f *= _local_conductor(p, e, ks)
            i += len(gens)
        if f not in tables:
            tables[f] = _unit_table(m, f)
        table, axes = tables[f]
        weights = [exps[i] * d // orders[i] for i, _ in axes]
        *rows, (_, size) = axes
        *row_weights, w = weights
        starts = [0]
        for (_, o), weight in zip(rows, row_weights):
            starts = [t + weight * k for t in starts for k in range(o)]
        step, sums = d // gcd(w, d), [0] * d
        for row, t in zip(range(0, len(table), size), starts):
            for s in range(step):
                sums[(t + w * s) % d] += sum(table[row + s:row + size:step])
        orbits.append((d, f, sums))
        covered += prod(phi for _, phi, _ in combination)
    if 2 * covered != prod(orders):
        raise InternalConsistencyError(
            "the orbits do not cover half of the characters")
    return orbits


def _normalize_modulus(m):
    m = int(m)
    if m < 1:
        raise ValueError("modulus must be positive")
    return m // 2 if m % 4 == 2 else m


@lru_cache(maxsize=None)
def _crt_prime(exponent, index):
    """The index-th prime l below 2^31 with l = 1 (mod exponent), counting
    down from 2^31, and an element of order exponent modulo l.

    Below 2^31 the Miller-Rabin test of ``arith`` takes three bases, not
    seven, on numbers of half the size; hminus evaluates modulo a power of
    the first prime and checks modulo the product of the next two, of
    about 2^62.
    """
    top = 2 ** 31 if index == 0 else _crt_prime(exponent, index - 1)[0]
    k = (top - 2) // exponent
    while not isprime(k * exponent + 1):
        k -= 1
    ell = k * exponent + 1
    primes = factorint(exponent)
    for x in count(2):
        root = pow(x, (ell - 1) // exponent, ell)
        if all(pow(root, exponent // r, ell) != 1 for r in primes):
            return ell, root


#: the largest phi(m), for m normalised, that hminus evaluates.  The pass
#: takes phi(d) dot products of length d/2 per orbit of order d with
#: residues mod l^k, k growing with the digits of h^-, and the orbits and
#: CRT primes take a few ms of it; the safe primes cost most: on a 2-core
#: x86-64 host (Python 3.11) 3947 and 3863 take 6-7 s cold, the prime
#: square 3721 4.5 s, 3 * 1999 and 4 * 1999 3.8-4.4 s
HMINUS_PHI_CEILING = 4000


@lru_cache(maxsize=None)
def hminus(m):
    """|C(Z[zeta_m])^-|, evaluated exactly.

    The modulus is normalised so that m = 2 mod 4 coincides with m/2 (the
    fields agree).  Q is 1 for prime powers and 2 otherwise; w counts the
    roots of unity of the field.  Every character order divides the
    exponent of (Z/m)^x, so one root of that order serves every orbit.
    Moduli with phi(m) above HMINUS_PHI_CEILING raise
    UnsupportedModulusError before any character is built, and moduli
    above 2 * HMINUS_PHI_CEILING^2 before m is factored.
    """
    m = _normalize_modulus(m)
    if m <= 2:
        return 1
    if m > 2 * HMINUS_PHI_CEILING ** 2:
        # phi(m) >= sqrt(m / 2) for every m
        raise UnsupportedModulusError(
            f"m = {m}: phi(m) >= sqrt(m/2) is above {HMINUS_PHI_CEILING}, "
            "the largest degree whose minus class number is evaluated")
    phi = totient(m)
    if phi > HMINUS_PHI_CEILING:
        raise UnsupportedModulusError(
            f"m = {m}: phi(m) = {phi} is above {HMINUS_PHI_CEILING}, "
            "the largest degree whose minus class number is evaluated")
    qw = (1 if len(_unit_group(m)) == 1 else 2) * (2 * m if m % 2 else m)
    exponent = lcm(*_generator_orders(m))

    # per order d the units j mod d, and the folded sums c_t - c_(t+d/2)
    # of the orbits of order d
    units, folds = {}, {}
    bound_sq, scale, denominator = 4 * qw * qw, 1, 1
    for d, f, sums in _odd_orbits(m):
        if d not in units:
            units[d] = [j for j in range(1, d) if gcd(j, d) == 1]
        total, phi_d = sum(sums), len(units[d])
        bound_sq *= (d * sum((d * c - total) ** 2 for c in sums)) ** phi_d
        scale *= (2 * d * f) ** (2 * phi_d) * phi_d ** phi_d
        denominator *= (-2 * f) ** phi_d
        folds.setdefault(d, []).append(
            [a - b for a, b in zip(sums, sums[d // 2:])])

    def residue(modulus, root):
        """h^- mod modulus, at a root of order exponent splitting Phi_d."""
        value = qw * pow(denominator, -1, modulus)
        for d, orbits in folds.items():
            zeta, row = pow(root, exponent // d, modulus), [1] * d
            for t in range(1, d):
                row[t] = row[t - 1] * zeta % modulus
            for j in units[d]:
                # zeta^(j t) for t < d/2, shared by the orbits of order d
                pick = [row[j * t % d] for t in range(d // 2)]
                for folded in orbits:
                    value = value * sum(map(mul, folded, pick)) % modulus
        return value

    ell, root = _crt_prime(exponent, 0)
    power = ell
    while power * power * scale <= bound_sq:
        power *= ell
    # the Teichmueller lift of root, joined by CRT with the check roots
    modulus, lift = power, pow(root, power // ell, power)
    for index in (1, 2):
        prime, prime_root = _crt_prime(exponent, index)
        lift += modulus * ((prime_root - lift) * pow(modulus, -1, prime)
                           % prime)
        modulus *= prime
    check = modulus // power
    value = residue(modulus, lift)
    h = value % power
    if 2 * h > power:
        h -= power
    if h <= 0 or value % check != h % check:
        raise InternalConsistencyError(
            f"analytic minus class number for m={m} fails its check: the "
            f"CRT value is not positive or disagrees modulo the product "
            f"{check} of the check primes")
    return h


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


class ClassRecord(Record):
    """Everything this artifact knows about C(Z[zeta_m]).

    ``sources`` names where each field came from, a fresh empty dict when
    not given.
    """

    __slots__ = ("m", "hminus", "hminus_odd_part", "known_class_group",
                 "known_plus_trivial", "sources")

    def __init__(self, m, hminus, hminus_odd_part, known_class_group=None,
                 known_plus_trivial=None, sources=None):
        super().__init__(m, hminus, hminus_odd_part, known_class_group,
                         known_plus_trivial,
                         {} if sources is None else sources)


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
