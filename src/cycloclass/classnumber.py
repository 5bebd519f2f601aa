"""The exact minus part of cyclotomic class numbers, from the generalized
Bernoulli values of the odd Dirichlet characters, and stored class-group
facts.

The minus class number is evaluated analytically as

    h^- = Q * w * product over odd characters chi of (-1/2 * B_1(chi)),
    B_1(chi) = (1/f) * sum_t c_t zeta_d^t,

d the order and f the conductor of chi, c_t the sum of the a in [1, f) with
chi(a) = zeta_d^t.  Characters are exponent vectors on one generator per
odd prime power (and -1, 5 at powers of two), so parity, conductor and
primitive values are read off prime by prime, without a search.

A Galois orbit of odd characters shares d, f and the c_t, and its members
put zeta_d at the phi(d) primitive d-th roots of unity.  So h^- is the
product over the orbits of the norms of their values, times -1/(2f) per
root.  An odd character has d even and zeta_d^(d/2) = -1, so each value is
a sum of half the length,

    sum_t c_t zeta^t = sum_(t < d/2) (c_t - c_(t + d/2)) zeta^t.

It takes zeta^(t + d/2) at f - a where it takes zeta^t at a, so the folded
sums are c_t - c_(t + d/2) = F_t - F_(t + d/2), F_t the sum of 2a - f over
one unit a of each pair {a, f - a} with value zeta^t: half the units.

Every orbit first goes down the 2-power tower.  With a_t the folded sums,
n = d/2 and P(x) = sum_(t < n) a_t x^t: when 4 | d, j + d/2 is a unit with
j and zeta^(j + d/2) = -zeta^j, so the norm from Q(zeta_d) down to
Q(zeta_(d/2)) is P(x) P(-x), an even polynomial R(x^2) (Graeffe's root
squaring), and R mod y^(n/2) + 1 is a folded sum of half the length at
zeta^2, of order d/2.  An orbit of order d = 2^v d', d' odd, so has the
norm of one folded sum of order e = 2 d', after v - 1 such steps on one
packed integer (``_halve``).  At the orders e with phi(e) <= 8, e = 2, 6,
10, 14, 18 and 30, that norm is taken in integers (``_closed_norm``): in
closed form up to e = 10, and at 14, 18 and 30, where the real subfield
Q(zeta_e)^+ = Q(c), c = zeta + zeta^(-1), is cubic or quartic, as the
determinant of the multiplication by P(x) P(1/x) (below) on the basis 1,
c, c^2, ... of Z[c] mod the minimal polynomial psi_e of c.  989 of the
1,105 orbits of the normalised m in 100..260 land there, and every orbit
of 67 of those 121 moduli (102 of the 149 normalised m <= 200).  When no
orbit is left, h^- is the exact quotient of Q w times those norms by the
product of the (-2f)^phi(d), with no prime, root or bound: a quotient that
is not a positive integer signals a bug.

The orbits left, of orders e = 2 (mod 4) with phi(e) > 8, are evaluated
mod l^k for one prime l = 1 (mod lambda(m)) below 2^30, with the
closed-form norms and the denominator as residues, at the Teichmueller
lift r^(l^(k-1)) of an r of order lambda(m) mod l (Washington, GTM 83,
5.1): the lift has the same order, and each Phi_e, e | lambda(m), splits
mod l^k at its powers.
The lift is the root of x^lambda(m) = 1 over r, which Newton's iteration
finds in log_2 k steps, doubling the precision from l (Hensel's lemma: l
does not divide lambda(m)).

The norm factors through the real subfield Q(zeta_e)^+ (Washington,
GTM 83, 4.1 and 4.17): the units j and -j put x = zeta^j and 1/x, and
with a_t the halved sums, n = e/2, odd, and R_u = sum_t a_t a_(t + u),

    P(x) P(1/x) = R_0 + sum_(0 < u < n) R_u C_u,  C_u = x^u + x^(-u).

As x^n = -1, C_(n - u) = -C_u, so

    T(x) = P(x) P(1/x) = R_0 + sum_(0 < u < n/2) (R_u - R_(n - u)) C_u,

one value of ceil(e/4) terms per pair {j, -j}, at picks of the row
C_s = zeta^s + zeta^(-s), s < e, in which C_0 counts as 1.  So an orbit
costs (phi(e)/2) ceil(e/4) multiply-adds with residues, a quarter of one
value per unit, and one product of two integers for the R_u: the a_t and
their reverse, packed in byte lanes of at least two more bits than n
max|a_t|^2 (Kronecker substitution, the one codec ``_pack``/``_unpack``
that ``_halve`` packs with too), multiply to every R_u at once, where the
sums of products took about e^2/8 of them.  A short orbit, n <= 17, takes
the ceil(n/2) differences R_u - R_(n - u) as sums of products instead
(``_real_coefficients``): below that length packing costs more than the
sums.  The rows of all the orders e are strided slices of one row: with x
of order L, the lcm of the orders left, and zeta = x^(L/e), the row of e is
C_(sL/e) at x.  That row costs about L/2 products, by C_(s+1) = C_1 C_s -
C_(s-1) up to L/2 and C_(L-s) = C_s beyond (x^L = 1), where a row per
order took e products and one full-size power each.  The picks C_(ju) of a
unit j are strided slices of the row of e repeated, in as many pieces as
the stride runs past its end.

An orbit's norm N of sum_t c_t zeta^t obeys

    |N|^2 * d^(2 phi(d)) * phi(d)^phi(d) <= (d * sum_t q_t^2)^phi(d),
    q_t = d c_t - sum_s c_s,  d > 1,

by P(zeta) = (1/d) sum_t q_t zeta^t (the roots sum to zero), Parseval over
all d-th roots of unity, and the AM-GM inequality, on the full-length c_t.
Each value is taken at phi(f)/d units, so c_t + c_(t + d/2) = f phi(f)/d
and the q_t are +-(d/2) (c_t - c_(t + d/2)): sum_t q_t^2 is
(d^2/2) sum_(t < d/2) (c_t - c_(t + d/2))^2 = (d^2/2) R_0, read off the
folded sums.
The orbit contributes (-1)^phi(d) N / (2f)^phi(d), and the norms of
closed form are known exactly, so k is the least exponent with

    l^(2k) * prod (2f)^(2 phi(d)) * prod' (d^2 phi(d))^phi(d)
        > 4 (Q w prod'' N)^2 * prod' (d * sum_t q_t^2)^phi(d),

the first product over all the orbits, prod' over the orbits left and
prod'' over those of closed form; the residue of least absolute value mod
l^k is then h^-.  The bit lengths of the two sides and of l bracket k
within a step, and at most one exact comparison settles it.  The
denominator is inverted one conductor at a time, as (2f)^(-s), s the sum
of the phi(d) over the orbits of conductor f, and the signs (-1)^phi(d)
go into the numerator.  Three more such primes check it in the same pass,
taken mod l^k l_1 l_2 l_3: their product, of about 2^90, is the check
modulus.  No floating point is involved anywhere: a failed check, or a
value that is not positive, signals a bug, not rounding error.

The orbits are never walked character by character.  The orbit of chi is
the set of generators of the cyclic group <chi>, so the orbits are the
products of one cyclic subgroup of each Sylow l-part of the character
group, and the parity of chi is that of its 2-part.  The cyclic subgroups
of each l-part are listed by a normal form of their generators, once per
shape of the l-part (``_cyclic_subgroups``), those of the 2-part kept
when odd.  Each cyclic subgroup of order l^b carries its conductor and its
weights: the exponents of zeta_(l^b) at the generators.  One fold over the
parts combines them: a character of order d, conductor f and weights w_i
times one of coprime order e, conductor g and weights v_i has order de,
conductor lcm(f, g) and weights w_i e + v_i d.  The F_t of an orbit come
from a table of 2a - f over half the units a mod f, in the order of their
logarithms on the generators, built once per conductor f in each hminus
call: -1 is half of the first axis of every local factor, so the first
half of one such axis takes one unit of each pair {a, f - a}, and along
the longest axis the value exponent grows by a fixed step, so the F_t are
sums of strided slices of the rows.  The orbits must cover the phi(m)/2
odd characters.

The part of h^- at a conductor f, the product of -B_1(chi)/2 over the odd
primitive characters chi of conductor f, depends on f alone: a character
mod m of conductor f is induced from one mod f, and B_1 reads only the
primitive values, so the orbits of conductor f, their norms and phi(d) are
the same at every multiple m of f.  ``hminus`` keeps each part it learns
in one store by conductor (``_conductor_parts``), as a fraction in lowest
terms, and ``_odd_orbits`` skips every orbit whose conductor is stored, as
soon as its conductor is known, before its unit table and sums; the
stored parts enter the quotient, the bound and the residues exactly, as
closed norms do.  A part is stored once h^- at m has passed its check:
that of every conductor whose orbits all closed, and, when the orbits left
to the CRT pass all have one conductor g, that of g, derived as the exact
quotient of h^- times the denominator by Q w times the other parts; a
remainder signals a bug.  One pass of the paper's tables skips 488 of its
952 orbits.  Emptying the caches empties the store.

The four primes, below 2^30, are proven by the search for their roots
(``_crt_prime``): every candidate, base and root is one 30-bit digit of a
CPython int, on which ``pow`` is two to three times as fast as on the two
digits of a number just below 2^31.  The unit group's generators are the
least primitive roots, searched and checked once per prime power
(``_local_units``).
"""

from functools import lru_cache
from itertools import count, product
from math import gcd, lcm, prod
from operator import mul, sub

from .abelian import FinAbGroup
from .arith import _SCREEN_PRIMES, _SCREEN_PRODUCT, \
    InternalConsistencyError, UnsupportedModulusError, isprime, modulus


def odd_part(x):
    """The largest odd divisor of a positive integer."""
    x = int(x)
    if x < 1:
        raise ValueError("odd_part needs a positive integer")
    while x % 2 == 0:
        x //= 2
    return x


# ---------------------------------------------------------------------------
# the unit group (Z/m)^x


def _primitive_root(q, p, primes):
    """The least primitive root modulo an odd prime power q = p^e, the
    primes of its order q - q/p given."""
    phi = q - q // p
    return next(g for g in count(2) if g % p and
                all(pow(g, phi // r, q) != 1 for r in primes))


def _unit_group(m):
    """The local factors of (Z/m)^x, one (p, e, gens, primes) per p^e || m,
    in the order of ``modulus(m).factors``: see ``_local_units``."""
    return tuple(_local_units(p, e) for p, e in modulus(m).factors)


@lru_cache(maxsize=None)
def _local_units(p, e):
    """The local factor (p, e, gens, primes) of (Z/p^e)^x, searched and
    checked once per prime power, as every m that p^e divides exactly
    reads the same one.

    ``gens`` lists (generator, order): the least primitive root, of order
    p^(e-1) (p - 1), for odd p, 3 of order 2 at 4, and -1 and 5, of orders
    2 and 2^(e-2), at 2^e, e >= 3, so the first generator of every
    nontrivial factor carries -1.  Each generator g of order o must have
    g^o = 1 and g^(o/r) != 1 for every prime r | o.  ``primes`` are those
    of the exponent of the factor: of p - 1, read off ``modulus(p - 1)``
    by the search, and p when e > 1, and 2 at 2^e, e > 1.
    """
    q = p ** e
    if p == 2:
        primes = [2] if e > 1 else []
        gens = [] if e == 1 else [(3, 2)] if e == 2 else \
            [(q - 1, 2), (5, q // 4)]
    else:
        primes = [r for r, _ in modulus(p - 1).factors]
        if e > 1:
            primes.append(p)
        gens = [(_primitive_root(q, p, primes), q - q // p)]
    for g, o in gens:
        if pow(g, o, q) != 1 or any(pow(g, o // r, q) == 1 for r in primes):
            raise InternalConsistencyError(
                f"unit group generator {g} does not have order {o} "
                f"modulo {q}")
    return p, e, tuple(gens), tuple(primes)


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


# ---------------------------------------------------------------------------
# the minus class number


@lru_cache(maxsize=None)
def _cyclic_subgroups(ell, sizes):
    """(l^b, xs) per cyclic subgroup of the l-group of the Z/l^(a_i), sizes
    the tuple of the l^(a_i): l^b is its order, and xs the one generator
    whose first coordinate i of largest order l^b is l^(a_i - b).  The
    tuple is listed once per shape (l, sizes) and read by every m whose
    Sylow l-part of (Z/m)^x has that shape.

    A unit u mod l^b fixing that coordinate is 1 mod l^(a_i - v(x_i)) =
    l^b, so the generator is unique: coordinates before i have orders
    below l^b, those after it at most l^b.
    """
    subgroups = [(1, (0,) * len(sizes))]
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
            subgroups += [(order, xs) for xs in product(*choices)]
    return tuple(subgroups)


def _unit_table(units, f):
    """(table, axes): 2a - f for one unit a of each pair {a, f - a} in
    [1, f), ordered by the logarithms of a on the generators of ``units``,
    the ``_unit_group`` of a multiple of f, reduced mod f, and the axes as
    (generator index, length in the table), in the order of the table.

    The local factor whose last axis is longest comes last, so that the
    table is a run of rows along that axis: the fewest rows, each summed
    in strided slices.  -1 is half of the first axis of every local
    factor, so a -> f - a moves the first coordinate of the table by half
    its range, and the table keeps the first half of that axis.  Each
    local factor's residues are lifted to f by CRT, by 1 when f is a prime
    power.
    """
    factors, i = [], 0
    for p, e, gens, _ in units:
        fp = gcd(f, p ** e)
        if fp > 1:
            # -1 keeps order 2 mod fp >= 4, 5 has order fp / 4 there
            orders = [fp - fp // p] if p > 2 else [2] if e == 2 else \
                [2, fp // 4]
            factors.append((fp, gens, [*zip(range(i, i + len(gens)),
                                            orders)]))
        i += len(gens)
    factors.sort(key=lambda factor: factor[2][-1][1])
    fp, gens, ((first, order), *others) = factors[0]
    factors[0] = fp, gens, [(first, order // 2), *others]
    table, axes = [0], []
    for fp, gens, block_axes in factors:
        residues = []
        for (g, _), (_, o) in zip(gens, block_axes):
            powers = [1]
            for _ in range(o - 1):
                powers.append(powers[-1] * g % fp)
            residues = [r * s % fp for r in residues for s in powers] \
                if residues else powers
        rest = f // fp
        lift = rest * pow(rest, -1, fp)  # 1 mod fp, 0 mod the rest of f
        table = [a + r * lift for a in table for r in residues]
        axes += block_axes
    return [2 * (a % f) - f for a in table], axes


#: a row of a unit table is summed in strided slices only when each slice
#: holds more than this many entries, and entry by entry otherwise: at 3,
#: 4, 5, 6 and 8 entries a slice, the slices took 1.52, 1.23, 1.03, 0.91
#: and 0.72 times as long as the entries (steps 4 to 32, Python 3.11,
#: 2-core x86-64 host)
_SLICE_RUN = 5


def _odd_orbits(units, primes, stored):
    """(orbits, skipped): one (d, f, folded) per Galois orbit of odd
    characters modulo m whose conductor f is not in ``stored``, the folded
    sums c_t - c_(t + d/2) for t < d/2, given the ``_unit_group`` of m and
    the primes of lambda(m), and the set of the conductors in ``stored``
    that the orbits skipped have.

    The orbit {chi^j : j a unit mod d} of a character chi of order d is the
    set of generators of the cyclic group it generates, so the orbits are
    the products of one cyclic subgroup of each Sylow l-part of the
    character group, and the parity is that of the 2-part alone: the
    exponents on the generators carrying -1 have an odd sum.  An l-part is
    taken in exponents x_i mod l^(a_i) on the generators, the exponent of
    a generator of order o being x_i * o / l^(a_i): they give a cyclic
    subgroup's parity and conductor, and it carries its weights, the
    exponents x_i l^b / l^(a_i) of zeta_(l^b) at the generators, l^b its
    order.  The product of characters of coprime orders d and e,
    conductors f and g and weights w_i and v_i has order de, conductor
    lcm(f, g) and weights w_i e + v_i d, so one fold over the parts gives
    every orbit, the last part varying fastest as in ``product``, and each
    cyclic subgroup's conductor is found once, not once per orbit.  The
    weights are not reduced: the sums read them mod d.

    A character's sums F_t add the entries 2a - f of ``_unit_table``,
    f its conductor, one row at a time: on a row, the value exponent grows
    by the weight w of the last axis at each step, so the entries s,
    s + d', s + 2d', ... of a row, d' = d / gcd(w, d), share it and are
    summed as one strided slice; a row of at most ``_SLICE_RUN`` d'
    entries is walked entry by entry.  The table holds one unit of each
    pair {a, f - a}, at which the character takes values d/2 apart, so
    c_t - c_(t + d/2) = F_t - F_(t + d/2).  The orbits must cover the
    phi(m)/2 odd characters, the skipped ones among them.  An orbit whose
    conductor is stored is skipped before its unit table and sums.
    """
    orders, spans = [], []
    for p, e, gens, _ in units:
        spans.append((p, e, len(orders), len(orders) + len(gens)))
        orders += [o for _, o in gens]
    signs = [lo for _, _, lo, hi in spans if hi > lo]

    parts = []
    for ell in primes:
        sizes = tuple(ell ** _valuation(o, ell) for o in orders)
        part = []
        for order, xs in _cyclic_subgroups(ell, sizes):
            exps = [x * o // s for x, o, s in zip(xs, orders, sizes)]
            if ell == 2 and sum(exps[i] for i in signs) % 2 == 0:
                continue
            f = 1
            for p, e, lo, hi in spans:
                ks = exps[lo:hi]
                if any(ks):
                    f *= _local_conductor(p, e, ks)
            part.append((order, order - order // ell, f,
                         [x * order // s for x, s in zip(xs, sizes)]))
        parts.append(part)
    if 2 * prod(sum(phi for _, phi, _, _ in part) for part in parts) != \
            prod(orders):
        raise InternalConsistencyError(
            "the orbits do not cover half of the characters")

    combined = [(d, f, weights) for d, _, f, weights in parts[0]]
    for part in parts[1:]:
        combined = [(d * e, lcm(f, g), [w * e + v * d
                                         for w, v in zip(weights, vs)])
                    for d, f, weights in combined for e, _, g, vs in part]

    tables, orbits, skipped = {}, [], set()
    for d, f, weights in combined:
        if f in stored:
            skipped.add(f)
            continue
        if f not in tables:
            tables[f] = _unit_table(units, f)
        table, axes = tables[f]
        # the value exponents at the starts of the rows, and the weight of
        # the last axis
        *rows, (last, size) = axes
        starts = [0]
        for i, o in rows:
            starts = [t + weights[i] * k for t in starts for k in range(o)]
        w = weights[last] % d
        step, sums = d // gcd(w, d), [0] * d
        if size > _SLICE_RUN * step:
            for row, t in zip(range(0, len(table), size), starts):
                for s in range(step):
                    sums[(t + w * s) % d] += \
                        sum(table[row + s:row + size:step])
        else:
            # each entry of a row has its own value exponent
            for row, t in zip(range(0, len(table), size), starts):
                for a in table[row:row + size]:
                    sums[t % d] += a
                    t += w
        orbits.append((d, f, [*map(sub, sums, sums[d // 2:])]))
    return orbits, skipped


def _normalize_modulus(m):
    m = int(m)
    if m < 1:
        raise ValueError("modulus must be positive")
    return m // 2 if m % 4 == 2 else m


def _pocklington(ell, order, parts, bases):
    """An element of order ``order`` modulo l = 1 (mod order), or None when
    the bases show l composite or leave a part open.

    A base x gives y = x^((l-1)/order), and l is composite (Fermat) unless
    y^order = 1.  An open part (r^a, r) takes w = y^(order/r) =
    x^((l-1)/r): when w != 1, gcd(w - 1, l) = 1 settles the part, z =
    y^(order/r^a), of order r^a, joining the product root, and a proper
    factor shows l composite.
    """
    k, root = (ell - 1) // order, 1
    for x in bases:
        y = pow(x, k, ell)
        if pow(y, order, ell) != 1:
            return None
        still_open = []
        for part, r in parts:
            w = pow(y, order // r, ell)
            if w == 1:
                still_open.append((part, r))
            elif gcd(w - 1, ell) == 1:
                z = w if part == r else pow(y, order // part, ell)
                root = root * z % ell
            else:
                return None
        parts = still_open
        if not parts:
            return root
    return None


@lru_cache(maxsize=None)
def _crt_prime(exponent, primes):
    """The four largest primes l = 1 (mod F) below 2^30, in decreasing
    order, each with an element of order exponent modulo l.

    ``primes`` are those of the exponent, and F = lcm(exponent, 2) 2^a, a
    the least with F^2 >= 2^30.  A candidate l = c F + 1 past the gcd
    screen of ``arith`` is prime once ``_pocklington`` settles every part
    of lcm(exponent, 2), as the primes are those of F (Pocklington, Proc.
    Cambridge Philos. Soc. 18 (1914); Brillhart, Lehmer and Selfridge,
    Math. Comp. 29 (1975)): each prime factor of l is then 1 mod F, so
    above sqrt(l).  The bases are the odd primes below 100, x skipped when
    l mod x is a square mod x: when 4 | F, (x/l) = (l/x) = 1, and x would
    leave the part of 2 open.  A candidate whose parts the bases leave open
    is skipped, prime or not; no exponent lambda(m) with phi(m) <=
    HMINUS_PHI_CEILING meets one.  An odd exponent squares the root.
    """
    order = lcm(exponent, 2)
    parts = [(r ** _valuation(order, r), r) for r in sorted({2, *primes})]
    step = order
    while step * step < 2 ** 30:
        step *= 2
    found = []
    for ell in range((2 ** 30 - 2) // step * step + 1, 1, -step):
        if gcd(ell, _SCREEN_PRODUCT) != 1:
            continue
        root = _pocklington(ell, order, parts, (
            x for x in _SCREEN_PRIMES[1:] if pow(ell % x, x // 2, x) != 1))
        if root is None:
            continue
        found.append((ell, pow(root, order // exponent, ell)))
        if len(found) == 4:
            return tuple(found)
    raise UnsupportedModulusError(
        f"fewer than four primes below 2^30 are 1 modulo {step}, the CRT "
        f"step for the exponent {exponent}")


def _teichmueller_lift(root, exponent, ell, power):
    """The x = root (mod l) with x^exponent = 1 modulo power = l^k, which
    is root^(l^(k-1)) (Hensel's lemma, l not dividing exponent), by
    Newton's iteration x <- x - (x^exponent - 1) x / exponent, the
    precision doubling from l."""
    lift, precision = root, ell
    while precision < power:
        precision = min(precision * precision, power)
        lift = (lift - (pow(lift, exponent, precision) - 1) * lift
                * pow(exponent, -1, precision)) % precision
    return lift


def _precision(ell, bound_sq, scale):
    """The least k >= 1 with l^(2k) * scale > bound_sq, for a prime l.

    With b and c the bit lengths of bound_sq and scale, and e that of l,
    bound_sq / scale is at least 2^(b-c-1) and l^(2k) below 2^(2ke), so
    every k with 2ke <= b - c - 1 fails.  k starts above those.
    """
    k = max(1, (bound_sq.bit_length() - scale.bit_length() - 1)
            // (2 * ell.bit_length()) + 1)
    while ell ** (2 * k) * scale <= bound_sq:
        k += 1
    return k


def _cos_row(x, order, modulus):
    """C_s = x^s + x^(-s) mod modulus for s < order, x of that order, with
    C_0 = 1: C_(s+1) = C_1 C_s - C_(s-1) up to order/2, and
    C_(order-s) = C_s beyond."""
    row = [2, (x + pow(x, order - 1, modulus)) % modulus]
    c1 = row[1]
    for _ in range(order // 2 - 1):
        row.append((c1 * row[-1] - row[-2]) % modulus)
    row[0] = 1
    return row + row[(order - 1) // 2:0:-1]


def _bias(n, width):
    """2^(8 width - 1) in each of n lanes of ``width`` bytes."""
    return int.from_bytes((b"\0" * (width - 1) + b"\x80") * n, "little")


def _pack(a, width):
    """sum_t a_t X^t + _bias(len(a), width), X = 2^(8 width), for |a_t| <
    2^(8 width - 1) (Kronecker substitution): each a_t plus 2^(8 width - 1)
    is one lane of ``width`` little-endian bytes."""
    half = 1 << 8 * width - 1
    return int.from_bytes(b"".join([(x + half).to_bytes(width, "little")
                                    for x in a]), "little")


def _unpack(p, n, width):
    """[c_0, ..., c_(n-1)] from p = sum_(t < n) c_t X^t + _bias(n, width),
    X = 2^(8 width), every c_t below 2^(8 width - 2) in size: each c_t plus
    2^(8 width - 1) lies in [0, X), so the digits of p base X are the
    biased c_t, no lane borrowing from the next."""
    half, from_bytes = 1 << 8 * width - 1, int.from_bytes
    lanes = p.to_bytes(width * n, "little")
    return [from_bytes(lanes[i:i + width], "little") - half
            for i in range(0, width * n, width)]


#: the longest r whose coefficients ``_real_coefficients`` takes as sums of
#: products, not from one product: on random entries below 5000 in size,
#: the sums take 7.3, 9.0 and 10.9 us at n = 13, 15 and 17, and the product
#: 9.5, 10.5 and 11.5 us; at n = 19 the product first wins, 12.5 against
#: 13.0 us, and at n = 21 by 13.0 against 14.8 us (the least of 15
#: alternating repeats of 2000 calls; five seeds agree; Python 3.11, 2-core
#: x86-64 host).  So the closed forms at e = 10, 14, 18 and 30 and the
#: orbits left at e = 22, 26 and 34 take the sums
_DIRECT_LENGTH = 17


def _real_coefficients(r):
    """b_0 = R_0 and b_u = R_u - R_(n - u) for 0 < u < ceil(n/2), n =
    len(r), R_u = sum_t r_t r_(t + u): the coefficients of P(x) P(1/x) on
    the C_u when x^n = -1.  Up to ``_DIRECT_LENGTH`` each b_u is one sum of
    products with r_(t + n) = -r_t, and above it the R_u come from one
    product (``_packed_autocorrelation``)."""
    n, size = len(r), (len(r) + 1) // 2
    if n <= _DIRECT_LENGTH:
        twisted = r + [-a for a in r]
        return [sum(map(mul, r, twisted[u:u + n])) for u in range(size)]
    c = _packed_autocorrelation(r)
    return [c[0], *map(sub, c[1:size], c[:n - size:-1])]


def _packed_autocorrelation(a):
    """c_v = sum_t a_t a_(t + v) for v < n = len(a), from one product.

    a and its reverse pack in lanes of w bytes, 8w at least two bits above
    the bit length of n max|a_t|^2.  Lane n - 1 + v of their product holds
    c_(-v) = c_v, and every lane is a sum of at most n products, below
    2^(8w - 2) in size.  So the n - 1 lanes below c_0 are below 2^(s - 1),
    s = 8w (n - 1), in size: biased by 2^(s - 1), the product shifts down
    by s bits to c_0, c_1, ... with no borrow, and those lanes unpack
    with their bias.
    """
    n = len(a)
    width = ((n * max(map(abs, a)) ** 2).bit_length() + 9) // 8
    bias, shift = _bias(n, width), 8 * width * (n - 1)
    product = (_pack(a, width) - bias) * (_pack(a[::-1], width) - bias)
    return _unpack((product + (1 << shift >> 1) >> shift) + bias, n, width)


#: the most times a row C_s, s < d, is repeated for ``_pick``: every index
#: j u, u < ceil(d/4), of a pick lies below d^2/8, so d // 8 + 1 copies let
#: one strided slice serve each unit j, and this bounds the copies from
#: d = 504 on; at d = 3946 a pick then takes at most 8 slices of the
#: 252,544 references, about 2 MB, that the repeated row holds, and the
#: peak RSS of a cold hminus(3947) rose from 16.0 to 17.8 MB with it
#: (Python 3.11, x86-64)
_ROW_REPEAT = 64


def _pick(tiled, d, step, count):
    """[row[step u % d] for u < count], step > 0, from tiled, the row of
    length d repeated: a strided slice of tiled, and where it runs past the
    end, the next from the wrapped start."""
    pick = tiled[:step * count:step]
    while len(pick) < count:
        begin = step * len(pick) % d
        pick += tiled[begin:begin + step * (count - len(pick)):step]
    return pick


def _halve(d, a):
    """(e, r): the norm of sum_(t < d/2) a_t zeta_d^t from Q(zeta_d) down
    to Q(zeta_e), e = d / 2^(v-1) for 2^v || d, as sum_(t < e/2) r_t
    zeta_e^t.

    While 4 | d, the units j and j + d/2 put x and -x, and P(x) P(-x) =
    R(x^2) mod x^n + 1, n = d/2, is the norm down to Q(zeta_(d/2)) at y =
    x^2 (Graeffe's root squaring), reduced mod y^(n/2) + 1.  a is packed
    once, in lanes of B bits, B the least multiple of 8 above the bit
    lengths of max|a_t| and n (``_pack``).  P(-X) at X = 2^B is P(X) less
    twice its odd lanes, read through a byte mask of the biased lanes.
    The product P(X) P(-X) has no odd powers of X, so it holds R in lanes
    of 2B bits, each a signed sum of at most n products, below 2^(2B-2)
    in size.  Its low n/2 lanes are then below 2^(s-1), s = B n,
    in size, so biased by 2^(s-1) the product splits into those and the
    high n/2, whose difference is R mod y^(n/2) + 1, packed for the next
    step: the entries grow to at most n max|a_t|^2, and 2B is again above
    the bit lengths of those and of n/2.  r is unpacked once, at the end
    (``_unpack``).
    """
    n = d // 2
    if n % 2:
        return d, a
    width = (max(map(abs, a)).bit_length() + n.bit_length() + 8) // 8
    bias = _bias(n, width)
    p = _pack(a, width) - bias
    while n % 2 == 0:
        # P(-X) = P(X) - 2 P_odd(X), P_odd the odd lanes less their bias
        odd = int.from_bytes((b"\0" * width + b"\xff" * width) * (n // 2),
                             "little")
        p *= p - 2 * (((p + bias) & odd) - (bias & odd))
        bias &= odd  # the bias of lanes twice as wide
        width, n = 2 * width, n // 2
        # the low n lanes less the high n, biased by 2^(s-1) to split
        shift = 8 * width * n
        top = 1 << shift - 1
        p += top
        p = (p & (1 << shift) - 1) - top - (p >> shift)
    return 2 * n, _unpack(p + bias, n, width)


#: psi_e, the minimal polynomial of c = zeta_e + zeta_e^(-1), for the
#: halved orders e above 10 with phi(e) <= 8: its coefficients below the
#: leading 1, lowest first.  Q(zeta_e)^+ = Q(c) is cubic at e = 14 and 18
#: and quartic at e = 30 (Washington, GTM 83, section 2)
_PSI = {14: (1, -2, -1), 18: (-1, -3, 0), 30: (1, -4, -4, 1)}

#: the halved orders whose norms ``_closed_norm`` takes in integers: every
#: e = 2 (mod 4) with phi(e) <= 8
_CLOSED_ORDERS = frozenset({2, 6, 10, *_PSI})


def _times_c(v, psi):
    """c v in Z[c] = Z[x]/psi, v and c v in the basis 1, c, ..., c^(k-1),
    psi given by its coefficients below the leading 1: c^k = -sum_i psi_i
    c^i."""
    top = v[-1]
    return [a - top * s for a, s in zip([0, *v[:-1]], psi)]


def _real_coordinates(psi, size):
    """The rows of the k x size matrix whose column u is 1 at u = 0 and
    C_u = x^u + x^(-u) at 0 < u < size, in the basis 1, c, ..., c^(k-1)
    of Z[c], c = C_1: C_0 = 2 and C_(u+1) = c C_u - C_(u-1)."""
    one = [1] + [0] * (len(psi) - 1)
    columns, previous, current = [one], [2 * a for a in one], \
        _times_c(one, psi)
    for _ in range(1, size):
        columns.append(current)
        previous, current = current, \
            [*map(sub, _times_c(current, psi), previous)]
    return [list(row) for row in zip(*columns)]


#: per order of ``_PSI``: psi and the rows of ``_real_coordinates``
_REAL_BASES = {e: (psi, _real_coordinates(psi, (e + 2) // 4))
               for e, psi in _PSI.items()}


def _determinant(rows):
    """The determinant of a 3 x 3 or 4 x 4 integer matrix, given as its
    rows, by Laplace's expansion in the 2 x 2 minors of its last two rows:
    against the first row at 3 x 3, and against the complementary minors
    of the first two rows at 4 x 4."""
    *top, (a0, a1, a2, *a3), (b0, b1, b2, *b3) = rows
    m01, m02, m12 = a0 * b1 - a1 * b0, a0 * b2 - a2 * b0, a1 * b2 - a2 * b1
    if len(top) == 1:
        (c0, c1, c2), = top
        return c0 * m12 - c1 * m02 + c2 * m01
    (a3,), (b3,), ((c0, c1, c2, c3), (d0, d1, d2, d3)) = a3, b3, top
    m03, m13, m23 = a0 * b3 - a3 * b0, a1 * b3 - a3 * b1, a2 * b3 - a3 * b2
    return (c0 * d1 - c1 * d0) * m23 - (c0 * d2 - c2 * d0) * m13 \
        + (c0 * d3 - c3 * d0) * m12 + (c1 * d2 - c2 * d1) * m03 \
        - (c1 * d3 - c3 * d1) * m02 + (c2 * d3 - c3 * d2) * m01


def _closed_norm(e, r):
    """The norm from Q(zeta_e) to Q of sum_(t < e/2) r_t zeta_e^t, in
    integers, for the orders e of ``_CLOSED_ORDERS``, where phi(e) <= 8.

    At e = 2 it is r_0.  At e = 6, zeta^2 = zeta - 1 makes the sum A + B
    zeta, A = r_0 - r_2 and B = r_1 + r_2, of norm A^2 + AB + B^2.  At
    e = 10 the pairs {1, 9} and {3, 7} give T = R_0 + b_1 C_1 + b_2 C_2
    (``_real_coefficients``) at C_1, C_2 = (1 + s)/2, (s - 1)/2 and
    s = +-sqrt(5), so the norm is ((2 R_0 + b_1 - b_2)^2 - 5 (b_1 +
    b_2)^2) / 4.  At e = 14, 18 and 30, T = sum_(u < ceil(e/4)) b_u C_u,
    C_0 = 1, is taken in the basis 1, c, ..., c^(k-1) of Z[c] mod psi_e
    (``_PSI``), k = phi(e)/2, and its norm from Q(c) is the determinant
    of the multiplication by T there, a 3 x 3 or 4 x 4 integer
    determinant.
    """
    if e == 2:
        return r[0]
    if e == 6:
        r0, r1, r2 = r
        return r0 * r0 + r1 * r1 + r2 * r2 + r0 * r1 + r1 * r2 - r0 * r2
    b = _real_coefficients(r)
    if e == 10:
        return ((2 * b[0] + b[1] - b[2]) ** 2 - 5 * (b[1] + b[2]) ** 2) // 4
    psi, coordinates = _REAL_BASES[e]
    rows = [[sum(map(mul, row, b)) for row in coordinates]]
    for _ in psi[1:]:
        rows.append(_times_c(rows[-1], psi))
    return _determinant(rows)


def _norms(d, orbits, cos, modulus):
    """The product of the norms from Q(zeta_d) of sum_(t < d/2) a_t zeta^t
    over the folded sums a of the orbits of order d = 2 (mod 4), phi(d) >
    4, mod modulus at zeta, a root of order d there that splits Phi_d,
    given the row cos of C_s = zeta^s + zeta^(-s) for s < d, C_0 = 1.

    A pair of units {j, -j}, j < d/2, gives T(zeta^j) = sum_(u < ceil(d/4))
    b_u C_(ju), b = (R_0, R_1 - R_(n-1), R_2 - R_(n-2), ...), n = d/2.
    The b of an orbit are its ``_real_coefficients``, and the picks C_(ju)
    are strided slices of the row repeated (``_pick``).
    """
    n, size = d // 2, (d + 2) // 4
    pairs = [_real_coefficients(a) for a in orbits]
    tiled = cos * min(d // 8 + 1, _ROW_REPEAT)
    value = 1
    for j in range(1, n):
        if gcd(j, d) == 1:
            # C_(j u) for u < ceil(d/4), shared by the orbits
            pick = _pick(tiled, d, j, size)
            for b in pairs:
                value = value * sum(map(mul, b, pick)) % modulus
    return value


#: the largest phi(m), for m normalised, that hminus evaluates.  The pass
#: takes phi(e)/2 dot products of length ceil(e/4) per orbit that
#: ``_halve`` leaves at an order e with phi(e) > 8, with residues mod l^k, k
#: growing with the digits of h^-, after one product of packed integers per
#: orbit for the coefficients (6 ms in all at 3947); the row of x^s + x^-s
#: takes a fifth to two fifths of it, and the orbits (on half the units),
#: the halving, CRT primes, k and the lift a few ms.  The safe primes,
#: whose one large order is 2 mod 4 and is not halved, cost most: on a
#: shared 2-core x86-64 host (Python 3.11), three cold CLI runs each, 3947
#: takes 1.0-1.1 s and 3863 0.9-1.4 s, the prime square 3721, its order
#: 3660 halved to 1830, 0.34-0.39 s, 3457, its orders halved to 2, 6, 18
#: and 54, 0.08-0.09 s, and 1153 and 4096, every orbit in closed form,
#: 0.06 s; a cold hminus(3947) peaks at 18 MB of RSS
HMINUS_PHI_CEILING = 4000


@lru_cache(maxsize=1)
def _conductor_parts():
    """The store of the parts of h^- by conductor, one dict per process:
    f -> (a, b), a / b in lowest terms the product of -B_1(chi)/2 over the
    odd primitive characters chi of conductor f.  It is this cache's one
    entry, so emptying the caches empties it."""
    return {}


def _store(parts, fractions):
    """Enter each (f, (a, b)) of ``fractions`` in the store ``parts`` as
    a / b in lowest terms."""
    for f, (a, b) in fractions.items():
        g = gcd(a, b)
        parts[f] = a // g, b // g


@lru_cache(maxsize=None)
def hminus(m):
    """|C(Z[zeta_m])^-|, evaluated exactly.

    The fields of m = 2 mod 4 and m/2 agree, so m = 2 mod 4 reads the
    cached entry of m/2 and each field is evaluated once.  Q is 1 for
    prime powers and 2 otherwise; w counts the roots of unity of the
    field.  Every character order divides the exponent of (Z/m)^x, so one
    root of that order serves every orbit, and phi(d) of each order d
    comes from the primes of that exponent, lambda(m), which the unit
    group reads off ``modulus(p - 1)``: m and each p - 1 are factored once,
    and lambda(m) never.  Moduli with phi(m) above HMINUS_PHI_CEILING raise
    UnsupportedModulusError before any p - 1 is factored, and moduli above
    2 * HMINUS_PHI_CEILING^2 before m is.  The parts of the conductors of
    m already evaluated at another modulus are read from the store of
    ``_conductor_parts``, and the parts learnt here are put there once h^-
    has passed its check.
    """
    m, given = _normalize_modulus(m), m
    if m != given:
        return hminus(m)
    if m <= 2:
        return 1
    if m > 2 * HMINUS_PHI_CEILING ** 2:
        # phi(m) >= sqrt(m / 2) for every m
        raise UnsupportedModulusError(
            f"m = {m}: phi(m) >= sqrt(m/2) is above {HMINUS_PHI_CEILING}, "
            "the largest degree whose minus class number is evaluated")
    record = modulus(m)
    if record.phi > HMINUS_PHI_CEILING:
        raise UnsupportedModulusError(
            f"m = {m}: phi(m) = {record.phi} is above {HMINUS_PHI_CEILING}, "
            "the largest degree whose minus class number is evaluated")
    units = _unit_group(m)
    qw = (1 if len(units) == 1 else 2) * (2 * m if m % 2 else m)
    primes = tuple(sorted({r for *_, local in units for r in local}))

    parts = _conductor_parts()
    found, skipped = _odd_orbits(units, primes, parts)

    # each orbit halved down to its order e: its norm in closed form at the
    # orders of _CLOSED_ORDERS, gathered by conductor f, and the halved sums
    # above them by e, with the sums of squares of their folded sums by d
    # for the bound; the denominator takes (2f)^phi(d) per orbit, gathered
    # by f too
    phis, powers, norms, left, opened, unclosed = {}, {}, {}, {}, {}, set()
    for d, f, folded in found:
        if d not in phis:
            phis[d] = d
            for r in primes:
                if d % r == 0:
                    phis[d] -= phis[d] // r
        powers[f] = powers.get(f, 0) + phis[d]
        e, halved = _halve(d, folded)
        if e in _CLOSED_ORDERS:
            norms[f] = norms.get(f, 1) * _closed_norm(e, halved)
        else:
            left.setdefault(e, []).append(halved)
            opened.setdefault(d, []).append(sum(map(mul, folded, folded)))
            unclosed.add(f)
    # the parts of the conductors skipped as stored, and per conductor met
    # (-1)^s times its closed norms over (2f)^s, s the sum of its phi(d)
    numerator, stored = qw, 1
    for f in skipped:
        num, den = parts[f]
        numerator, stored = numerator * num, stored * den
    met, denominator = {}, stored
    for f, s in powers.items():
        num, den = -norms.get(f, 1) if s % 2 else norms.get(f, 1), (2 * f) ** s
        met[f] = num, den
        numerator, denominator = numerator * num, denominator * den
    if not left:
        h, rest = divmod(numerator, denominator)
        if rest or h <= 0:
            raise InternalConsistencyError(
                f"analytic minus class number for m={m} fails its check: "
                f"the exact quotient of Q w times the norms by the "
                f"denominator is not a positive integer")
    else:
        # the closed norms and stored parts enter the bound as they are,
        # the orbits left by their Parseval and AM-GM bounds, one power per
        # order d
        bound_sq, scale = 4 * numerator * numerator, denominator * denominator
        for d, sums in opened.items():
            phi_d, number = phis[d], len(sums)
            bound_sq *= (d ** 3 // 2) ** (phi_d * number) * prod(sums) ** phi_d
            scale *= (d * d * phi_d) ** (phi_d * number)

        (ell, root), *checks = _crt_prime(record.exponent, primes)
        power = ell ** _precision(ell, bound_sq, scale)
        # the Teichmueller lift of root, joined by CRT with the check roots
        mod = power
        lift = _teichmueller_lift(root, record.exponent, ell, power)
        for prime, prime_root in checks:
            lift += mod * ((prime_root - lift) * pow(mod, -1, prime) % prime)
            mod *= prime
        check = mod // power
        # the inverse of the denominator: that of the stored parts, then
        # one power per conductor met
        value = numerator % mod * pow(stored, -1, mod) % mod
        for f, s in powers.items():
            value = value * pow(2 * f, -s, mod) % mod
        # one row for x of order L = lcm of the orders left; that of e is
        # its stride
        order = lcm(*left)
        cos = _cos_row(pow(lift, record.exponent // order, mod), order, mod)
        for e, orbits in left.items():
            value = value * _norms(e, orbits, cos[::order // e], mod) % mod
        h = value % power
        if 2 * h > power:
            h -= power
        if h <= 0 or value % check != h % check:
            raise InternalConsistencyError(
                f"analytic minus class number for m={m} fails its check: the "
                f"CRT value is not positive or disagrees modulo the product "
                f"{check} of the check primes")
    learnt = {f: part for f, part in met.items() if f not in unclosed}
    if len(unclosed) == 1:
        # h = numerator N / denominator, N the norms of the orbits left, all
        # of the one conductor g: the signed norm of all the orbits of g is
        # h times the denominator over Q w and the other parts
        g, = unclosed
        num, den = met[g]
        norm, rest = divmod(h * denominator, numerator // num)
        if rest:
            raise InternalConsistencyError(
                f"analytic minus class number for m={m} fails its check: "
                f"the part of the conductor {g} is not an exact quotient")
        learnt[g] = norm, den
    _store(parts, learnt)
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


#: published structure of the full class group where the artifact needs it,
#: by normalised m; the plus part is trivial at each, so the whole group is
#: the minus part
_KNOWN_CLASS_GROUPS = {29: (2, 2, 2), 39: (2,), 65: (2, 2, 4, 4)}


def known_class_group(m):
    """The published class group of Z[zeta_m], or None where none is
    stored; m = 2 mod 4 gives that of m/2."""
    factors = _KNOWN_CLASS_GROUPS.get(_normalize_modulus(m))
    return None if factors is None else \
        FinAbGroup.from_cyclic_factors(factors)


def h_is_odd(m, compute):
    """Parity of h_m (equal to the parity of the minus part): True when
    odd, from the stored lists and the prime table, else from hminus when
    compute is true, and None otherwise."""
    m = int(m)
    if hminus_is_one(m):
        return True
    if m in ODD_HMINUS_ONE:
        return False           # minus part a nontrivial power of two
    (p, _), *others = modulus(_normalize_modulus(m)).factors
    if not others and p <= _HP_TABLE_LIMIT:
        return hp_is_odd(p)
    if compute:
        return hminus(m) % 2 == 1
    return None
