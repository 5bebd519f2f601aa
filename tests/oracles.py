"""Brute-force oracles shared by the test modules.

These deliberately avoid Smith normal form: subgroup structure is read off
from element-order statistics, so they provide an independent check on the
matrix route.  The minus class number is recomputed the slow way: conductors
by search, primitive values by lifting to a unit mod m, and orbit norms as
Bareiss determinants of multiplication matrices.
"""

from fractions import Fraction
from math import gcd, prod

from sympy import divisors, factorint

from cycloclass.abelian import AbHom, FinAbGroup, IntMatrix
from cycloclass.classnumber import characters
from cycloclass.residue import cyclotomic_int


def add(g, x, y):
    return tuple((a + b) % d for a, b, d in zip(x, y, g.invariant_factors))


def neg(g, x):
    return tuple((-a) % d for a, d in zip(x, g.invariant_factors))


def scale(g, n, x):
    return tuple((n * a) % d for a, d in zip(x, g.invariant_factors))


def subgroup_closure(g, gens):
    """All elements of the subgroup generated by ``gens``, by closure."""
    seen = {g.zero()}
    frontier = [g.zero()]
    while frontier:
        nxt = []
        for x in frontier:
            for h in gens:
                y = add(g, x, h)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def order_statistics(group_elements, g):
    """Map n -> |{x : n*x = 0}| over the divisors of the ambient exponent."""
    exponent = g.exponent
    stats = {}
    for n in range(1, exponent + 1):
        if exponent % n:
            continue
        stats[n] = sum(1 for x in group_elements if all(
            (n * a) % d == 0 for a, d in zip(x, g.invariant_factors)))
    return stats


def expected_statistics(fab, ambient_exponent):
    """The same statistics predicted from an invariant-factor list."""
    stats = {}
    for n in range(1, ambient_exponent + 1):
        if ambient_exponent % n:
            continue
        stats[n] = prod(gcd(d, n) for d in fab.invariant_factors)
    return stats


def same_structure(fab, elements, g):
    """Does the enumerated subgroup of g match the claimed group ``fab``?"""
    if len(elements) != fab.order:
        return False
    return order_statistics(elements, g) == expected_statistics(fab, g.exponent)


def quotient_statistics(g, sub_elements, n_values):
    """|{y in g : n*y in S}| / |S| for each n: order statistics of g/S."""
    out = {}
    for n in n_values:
        hits = sum(1 for y in g.elements()
                   if scale(g, n, y) in sub_elements)
        out[n] = hits // len(sub_elements)
    return out


def random_group(rng, max_order=4096, max_rank=4):
    """A random nontrivial-or-trivial group of bounded order."""
    while True:
        rank = rng.randint(0, max_rank)
        factors = [rng.choice([2, 2, 2, 3, 4, 5, 6, 8, 9, 12, 16])
                   for _ in range(rank)]
        g = FinAbGroup.from_cyclic_factors(factors)
        if g.order <= max_order:
            return g


def random_hom(rng, source, target):
    """A uniformly sloppy random homomorphism source -> target."""
    cols = []
    for dj in source.invariant_factors:
        col = []
        for di in target.invariant_factors:
            step = di // gcd(di, dj)
            col.append(step * rng.randrange(di // step) if step < di
                       else rng.choice([0, 0, step % di]))
        cols.append(col)
    return AbHom(source, target,
                 IntMatrix.from_columns(cols, rows=target.rank))


def random_automorphism_pair(rng, group, mixing=None):
    """A random automorphism of ``group`` together with its exact inverse.

    Built from elementary operations (unit scalings and compatible shears),
    each of which has a trivially known inverse.
    """
    r = group.rank
    fwd = AbHom.identity(group)
    back = AbHom.identity(group)
    if r == 0:
        return fwd, back
    ds = group.invariant_factors
    steps = 2 * r if mixing is None else mixing
    for _ in range(steps):
        kind = rng.choice(["scale", "shear", "swap"])
        m = [[int(i == j) for j in range(r)] for i in range(r)]
        mi = [[int(i == j) for j in range(r)] for i in range(r)]
        if kind == "scale":
            j = rng.randrange(r)
            units = [u for u in range(1, ds[j]) if gcd(u, ds[j]) == 1]
            u = rng.choice(units)
            m[j][j] = u
            mi[j][j] = pow(u, -1, ds[j])
        elif kind == "shear":
            i, j = rng.randrange(r), rng.randrange(r)
            if i == j:
                continue
            # e_j |-> e_j + c e_i needs d_i | d_j * c
            step = ds[i] // gcd(ds[i], ds[j])
            c = step * rng.randrange(max(1, ds[i] // step))
            m[i][j] = c % ds[i]
            mi[i][j] = (-c) % ds[i]
        else:
            i, j = rng.randrange(r), rng.randrange(r)
            if i == j or ds[i] != ds[j]:
                continue
            m[i][i] = m[j][j] = 0
            m[i][j] = m[j][i] = 1
            mi[i][i] = mi[j][j] = 0
            mi[i][j] = mi[j][i] = 1
        step_f = AbHom(group, group, IntMatrix(m))
        step_b = AbHom(group, group, IntMatrix(mi))
        fwd = step_f @ fwd
        back = back @ step_b
    return fwd, back


def random_involution(rng, group):
    """A random homomorphic involution of ``group``."""
    p, p_inv = random_automorphism_pair(rng, group)
    signs = [rng.choice([1, -1]) for _ in range(group.rank)]
    s = AbHom(group, group, IntMatrix.diagonal(signs))
    return p @ s @ p_inv


# ---------------------------------------------------------------------------
# minus class numbers, the slow way


def search_conductor(chi):
    """The least f | m with chi trivial on the units that are 1 mod f."""
    m = chi.modulus
    for f in divisors(m):
        if all(chi.value_exponent(a) == 0 for a in range(1, m + 1)
               if gcd(a, m) == 1 and a % f == 1 % f):
            return f
    raise AssertionError("no conductor found")


def search_parity(chi):
    return 1 if chi.value_exponent(-1) == 0 else -1


def lifted_primitive_value_exponent(chi, f, a):
    """chi*(a) for the primitive character of conductor f, by lifting a to
    a unit mod m."""
    if gcd(a, f) != 1:
        return None
    a %= f
    while gcd(a, chi.modulus) != 1:
        a += f
    return chi.value_exponent(a)


def bareiss_cyclotomic_norm(coeffs, d):
    """Norm of sum_i coeffs[i] zeta_d^i as the determinant of the matrix of
    multiplication on the power basis, reduced modulo Phi_d."""
    phi_poly = [int(c) for c in cyclotomic_int(d)]
    n = len(phi_poly) - 1
    work = list(coeffs) + [0] * max(0, n - len(coeffs))
    for k in range(len(work) - 1, n - 1, -1):
        c = work[k]
        if c:
            for j in range(n):
                work[k - n + j] -= c * phi_poly[j]
            work[k] = 0
    cols = []
    current = work[:n]
    for _ in range(n):
        cols.append(list(current))
        # multiply by zeta: shift and reduce the top coefficient
        top = current[-1]
        current = [0] + current[:-1]
        if top:
            for j in range(n):
                current[j] -= top * phi_poly[j]
    return IntMatrix.from_columns(cols, rows=n).det()


def bareiss_hminus(m):
    """Q * w * product over odd characters of (-B_1(chi)/2), one Galois
    orbit at a time, with every ingredient computed the slow way."""
    m = m // 2 if m % 4 == 2 else m
    if m <= 2:
        return 1
    q_factor = 1 if len(factorint(m)) == 1 else 2
    w = 2 * m if m % 2 else m
    total = Fraction(q_factor * w)
    remaining = {c for c in characters(m) if search_parity(c) == -1}
    while remaining:
        chi = remaining.pop()
        d = chi.order
        orbit = {chi.power(s) for s in range(2, d) if gcd(s, d) == 1}
        remaining -= orbit
        f = search_conductor(chi)
        sums = [0] * d
        for a in range(1, f):
            t = lifted_primitive_value_exponent(chi, f, a)
            if t is not None:
                sums[t] += a
        phi_d = len(orbit) + 1
        total *= Fraction((-1) ** phi_d * bareiss_cyclotomic_norm(sums, d),
                          (2 * f) ** phi_d)
    assert total.denominator == 1
    return int(total)

