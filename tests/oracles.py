"""Brute-force oracles shared by the test modules.

The group oracles deliberately avoid Smith normal form: subgroup structure
is read off from element-order statistics, so they provide an independent
check on the matrix route.  The minus class number is recomputed the slow
way twice: once with conductors by search, primitive values by lifting to
a unit mod m, and orbit norms as Bareiss determinants of multiplication
matrices; once orbit by orbit, each orbit with its own multimodular norm
and its own CRT primes below 2^62, the factors multiplied as fractions.
Both take every odd character from ``characters``, its Galois orbit as its
powers, and its Bernoulli sums value by value over [1, f).  The
evaluation of ``hminus`` is redone with one value per unit, where
``hminus`` takes one per pair {j, -j} through the real subfield, its
precision k found one power of l at a time from k = 1, where ``hminus``
starts at a lower bound from bit lengths, and the row of x^s + x^(-s)
built per order from its own powers, where ``hminus`` slices one row for
all the orders; the
coefficients R_u - R_(n-u) of the orbit norms are sums of products, where
``hminus`` reads all the R_u of a long orbit off one product of packed
integers, and
the picks of that row are built entry by entry, where ``hminus`` slices
the row repeated.  The norm of an orbit is taken here at its own order d,
through quartets {+-j, +-j + d/2} when 4 | d, and down the 2-power tower
by one convolution P(x) P(-x) of n sums of products per step, where
``hminus`` halves every orbit on one packed integer and reads the orders
2, 6 and 10 in closed form.  The Galois
orbits of odd characters are also walked as exponent tuples, one
character built per orbit, and over the Sylow parts as ``hminus`` walks
them, on the table of every unit and with sums for every t, before the
fold at a -> f - a; the CRT primes of ``hminus`` are also found as before
its root search proved them, in steps of lambda(m) by sympy's primality
test, with one loop over the trial bases per prime-power part.  The
irregularity index i(p), from Bernoulli numbers by power sums mod p^2,
checks h^-(p) against Kummer's criterion.  The characters themselves
live here, exponent vectors on the generators of
``classnumber._unit_group`` (``unit_group``) read through one discrete-log
table per prime power: ``hminus`` needs only their orbits.
The exact cyclotomic numbers and Bernoulli values that the orbit products
stand for are here too, and the cyclotomic polynomials.  The unit
cokernel vtilde is recomputed the slow way too: discrete logs in every
factor field of F_p[zeta_n], the units of F_p[lambda_n] from CRT
generators, and the conjugation worked out as a matrix; once more as
the cokernel of the reduction map into the direct sum of the whole tori;
and through a Smith presentation of its relation matrix, as the package
computed it before it read the invariant factors off the minors.
The record layer's matrices are built, multiplied, normalised and tested
for +-id once more cell by cell, as the package did before it went row by
row, and cyclic factors are normalised by walking each carried gcd to the
bottom of the chain.  The K-theory data at m is assembled eagerly, every
class-group fact read before a branch is chosen, as the oracle of the
lazy reads of ``ktheory``; there each stored group becomes an involutive
module, and its antisymmetric set, difference set and Tate group come
from kernels, images and cokernels, where ``ktheory`` reads them off the
group and the sign of its involution.  The eigen-subgroups {x : xbar =
s*x} and norm-image subgroups {x + s*xbar} of any module, the module with
the trivial involution, and the order of the kernel-group ladder at 2^e
in closed form are here too, and so are the general subquotient <top> /
<bottom> and the Tate group of a matrix involution as one subquotient of
a kernel lattice, as the package presented it before it read the order
off two cokernels.  Smith normal form with its column transform too,
the determinant, the Smith-normal-form solver, the zero matrix and the
zero map, the zero tests of matrices and maps, direct sums of groups and
of modules (and the class-group module summed one part at a time),
corestriction, primary parts, the swap square, the least primitive root
modulo an odd prime power and the order of a unit up to sign live here
as well: only the tests use them.  So does verify as it ran before the
checks that read no degree were shared across degrees: every check
recomputed at each (n, m) from the deep structure at n.  ``clear_caches`` empties the
package's caches as the benchmark's worker does before a cold query.
"""

import random
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, count, product
from math import gcd, isqrt, lcm, prod
from operator import itemgetter, mul
from types import SimpleNamespace

from sympy import divisors, factorint, isprime, multiplicity, totient

from cycloclass.abelian import (
    AbHom,
    FinAbGroup,
    IntMatrix,
    _srem,
    cokernel,
    image,
    kernel,
    kernel_basis,
    present,
    snf,
    subgroup_generated,
)
from cycloclass.arith import InternalConsistencyError, \
    UnsupportedModulusError, modulus
from cycloclass.classnumber import (
    HMINUS_ONE,
    ODD_HMINUS_ONE,
    _crt_prime,
    _cyclic_subgroups,
    _local_conductor,
    _normalize_modulus,
    _odd_orbits,
    _teichmueller_lift,
    _unit_group,
    h_is_odd,
    hminus,
    hminus_is_one,
    known_class_group,
    odd_part,
)
from cycloclass.involutive import InvModule
from cycloclass.ktheory import (
    Knowledge,
    _a2_constraint,
    _class_part,
    d_divisibility_bound,
    nk1_vanishes,
    squarefree,
    stored_d_group,
    wh_rank,
    wh_structure,
)
from cycloclass.manifoldset import (
    MHCOB_TRIVIAL,
    MHS_TRIVIAL,
    ConsistencyRecord,
    a2k_order,
)
from cycloclass.record import Record
from cycloclass.residue import (
    _primes,
    _split_off,
    c_bound,
    order_mod,
    unit_quotient,
    vtilde,
)


def clear_caches():
    """Empty every cache of the loaded cycloclass modules, as
    ``perfbench/worker.py`` does before each query of a cold workload:
    each module attribute, not a class, that has ``cache_info``.  The
    store of conductor parts of ``classnumber`` is one of them, so h^- is
    recomputed from scratch after it."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "cycloclass"
                                  or name.startswith("cycloclass.")):
            continue
        for value in vars(module).values():
            if not isinstance(value, type) and hasattr(value, "cache_info"):
                value.cache_clear()


def add(g, x, y):
    return tuple((a + b) % d for a, b, d in zip(x, y, g.invariant_factors))


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


def factored_cyclic_factors(factors):
    """Invariant factors of a product of cyclic groups, the factoring way:
    each factor's prime powers are sorted into place prime by prime."""
    by_prime = {}
    for d in factors:
        if d < 1:
            raise ValueError("cyclic factors must be positive")
        for p, e in factorint(d).items():
            by_prime.setdefault(p, []).append(e)
    depth = max((len(v) for v in by_prime.values()), default=0)
    invariants = []
    for k in range(depth):
        d = 1
        for p, exps in by_prime.items():
            exps = sorted(exps, reverse=True)
            if k < len(exps):
                d *= p ** exps[k]
        invariants.append(d)
    return FinAbGroup(reversed(invariants))


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


def inverse_unimodular(m):
    """Exact inverse of a unimodular integer matrix, from its own SNF."""
    s, u, v, _ = oracle_snf(m)
    if s != cellwise_identity(m.rows):
        raise ValueError("matrix is not unimodular")
    return v @ u


def quotient(group, columns):
    """The quotient of ``group`` by the subgroup generated by ``columns``,
    as a Presentation in the coordinates of ``group``."""
    rel = columns.hstack(IntMatrix.diagonal(group.invariant_factors))
    return present(group.rank, rel)


def with_trivial(group):
    """``group`` with the identity as its involution."""
    return InvModule(group, AbHom.identity(group))


def signed_module(group, sign):
    """``group`` with the involution sign * id."""
    return InvModule(group, sign)


def involution_map(module):
    """The involution of ``module`` as a homomorphism: a sign s stands
    for s * id, built here as that matrix."""
    inv = module.involution
    return AbHom.scalar(module.group, inv) if isinstance(inv, int) else inv


def hom_sum(f, g):
    """f + g, for homomorphisms between the same two groups."""
    if (f.source, f.target) != (g.source, g.target):
        raise ValueError("homomorphism mismatch")
    return AbHom(f.source, f.target, f.matrix + g.matrix)


def shifted_involution(module, s):
    """The involution of ``module`` minus s * id, as a homomorphism."""
    return hom_sum(involution_map(module), AbHom.scalar(module.group, -s))


def eigen_set(module, sign):
    """The subgroup {x : xbar = sign * x}, with its inclusion: the kernel of
    (involution - sign * id)."""
    return kernel(shifted_involution(module, sign))


def norm_image_set(module, sign):
    """The subgroup {x + sign * xbar : x in the module}, with its inclusion.

    As x + sign * xbar = sign * (xbar + sign * x) and sign is a unit, this
    is the image of (involution + sign * id).
    """
    return image(shifted_involution(module, -sign))


def oracle_tate(module, n):
    """Tate cohomology in three steps: the eigen-set, the norm map
    corestricted into it, and the cokernel of that corestriction.  The
    norm map x -> x + sign * xbar is built here cell by cell."""
    sign = 1 if n % 2 == 0 else -1
    g = module.group
    norm = AbHom(g, g, IntMatrix(
        [[int(i == j) + sign * x for j, x in enumerate(row)]
         for i, row in enumerate(involution_map(module).matrix.data)],
        g.rank, g.rank))
    eigen, incl = eigen_set(module, sign)
    into_eigen = factor_through(norm, incl)
    quotient_group, _ = cokernel(into_eigen)
    return quotient_group


def subquotient(group, top, bottom):
    """The subquotient <top> / <bottom> of ``group``: (quotient, lift).

    ``top`` and ``bottom`` hold generators as columns in the coordinates of
    ``group``; column j of ``lift`` is a representative in <top> of the
    j-th generator of the quotient.  With D the relations of ``group``, one
    Smith normal form u @ [top | D] @ v == s gives the basis u_inv[:, i] *
    s_i of the lattice over <top>.  In that basis the lattice over <bottom>
    is u @ [bottom | D] with row i divided by s_i; a remainder means that
    <bottom> is not contained in <top>, and raises ValueError.

    >>> g = FinAbGroup([4, 4])
    >>> subquotient(g, IntMatrix([[1, 0], [1, 2]]), IntMatrix([[2], [2]]))
    (FinAbGroup([2, 2]), IntMatrix([[1, 0], [1, 2]]))
    """
    n = group.rank
    rel = IntMatrix.diagonal(group.invariant_factors)
    scales, u, u_inv = snf(top.hstack(rel))
    coords = []
    for d, row in zip(scales, (u @ bottom.hstack(rel)).data):
        if any(x % d for x in row):
            raise ValueError("the bottom subgroup is not inside the top one")
        coords.append([x // d for x in row])
    pres = present(n, IntMatrix(coords, n, bottom.cols + n))
    basis = IntMatrix([[x * d for x, d in zip(r, scales)] for r in u_inv.data],
                      n, n)
    lift = basis @ pres.lift
    return pres.group, IntMatrix.from_columns(
        [group.reduce(c) for c in lift.columns()], rows=n)


def kernel_lattice(f):
    """Columns spanning the lattice of source coordinates that f sends to 0."""
    r = f.source.rank
    basis = kernel_basis(
        f.matrix.hstack(IntMatrix.diagonal(f.target.invariant_factors)))
    return IntMatrix(basis.data[:r], r, basis.cols)


def subquotient_tate(module, n):
    """Tate cohomology as one subquotient, as the package computed it for a
    matrix involution before it counted: the kernel lattice of
    (involution - s) over the columns of (involution + s).  A sign
    involution is taken as its matrix (``involution_map``)."""
    s = 1 if n % 2 == 0 else -1
    quotient, _ = subquotient(module.group,
                              kernel_lattice(shifted_involution(module, s)),
                              shifted_involution(module, -s).matrix)
    return quotient


# ---------------------------------------------------------------------------
# linear algebra and module constructions only the tests use


def oracle_snf(m):
    """Smith normal form of an integer matrix.

    Returns ``(s, u, v, u_inv)`` with ``u @ m @ v == s``, where ``u`` and
    ``v`` are unimodular, ``u_inv`` is the inverse of ``u``, and ``s`` is
    diagonal with non-negative entries satisfying s1 | s2 | ... .  Each row
    operation on ``u`` is matched by the inverse column operation on
    ``u_inv``.  Pivots are chosen by minimal absolute value and rows/columns
    are fully reduced at each step, which keeps intermediate entries small
    at the sizes used here.  ``abelian.snf`` makes the same operations
    without ``v`` and returns this diagonal, ``u`` and ``u_inv``.
    """
    R, C = m.rows, m.cols
    a = [list(r) for r in m.data]
    u = [[int(i == j) for j in range(R)] for i in range(R)]
    v = [[int(i == j) for j in range(C)] for i in range(C)]
    u_inv = [[int(i == j) for j in range(R)] for i in range(R)]

    def row_add(i, j, q):  # row i += q * row j; col j -= q * col i of u_inv
        ai, aj = a[i], a[j]
        for k in range(C):
            ai[k] += q * aj[k]
        ui, uj = u[i], u[j]
        for k in range(R):
            ui[k] += q * uj[k]
        for r in u_inv:
            r[j] -= q * r[i]

    def col_add(i, j, q):  # col i += q * col j
        for r in a:
            r[i] += q * r[j]
        for r in v:
            r[i] += q * r[j]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]
        for r in u_inv:
            r[i], r[j] = r[j], r[i]

    def col_swap(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def row_neg(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]
        for r in u_inv:
            r[i] = -r[i]

    for t in range(min(R, C)):
        while True:
            # re-select a minimal-absolute-value pivot on every pass; this
            # keeps the reduction quotients small and bounds entry growth
            pivot = None
            best = None
            for i in range(t, R):
                for j in range(t, C):
                    x = a[i][j]
                    if x and (best is None or abs(x) < best):
                        best, pivot = abs(x), (i, j)
            if pivot is None:
                break
            if pivot[0] != t:
                row_swap(t, pivot[0])
            if pivot[1] != t:
                col_swap(t, pivot[1])
            p = a[t][t]
            clean = True
            for i in range(t + 1, R):
                if a[i][t]:
                    q = (a[i][t] - _srem(a[i][t], p)) // p
                    if q:
                        row_add(i, t, -q)
                    if a[i][t]:
                        clean = False
            for j in range(t + 1, C):
                if a[t][j]:
                    q = (a[t][j] - _srem(a[t][j], p)) // p
                    if q:
                        col_add(j, t, -q)
                    if a[t][j]:
                        clean = False
            if not clean:
                continue
            # force the pivot to divide the rest of the block
            culprit = None
            for i in range(t + 1, R):
                for j in range(t + 1, C):
                    if a[i][j] % p:
                        culprit = i
                        break
                if culprit is not None:
                    break
            if culprit is None:
                break
            row_add(t, culprit, 1)
        if a[t][t] < 0:
            row_neg(t)

    return (IntMatrix(a, R, C), IntMatrix(u, R, R), IntMatrix(v, C, C),
            IntMatrix(u_inv, R, R))


def det(m):
    """Exact determinant by fraction-free Bareiss elimination."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = [list(r) for r in m.data]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def solve(m, b):
    """One integral solution x of m @ x == b, or None if there is none."""
    return _SnfSolver(m).solve(b)


class _SnfSolver:
    """Reusable solver for m @ x = b with a fixed matrix m."""

    def __init__(self, m):
        self.m = m
        self.s, self.u, self.v, _ = oracle_snf(m)
        self.rank = sum(1 for i in range(min(m.rows, m.cols)) if self.s[i, i])

    def solve(self, b):
        c = self.u @ tuple(b)
        y = [0] * self.m.cols
        for i in range(self.m.rows):
            si = self.s[i, i] if i < min(self.m.rows, self.m.cols) else 0
            if i < self.rank:
                if c[i] % si:
                    return None
                y[i] = c[i] // si
            elif c[i]:
                return None
        return self.v @ tuple(y)


def zero_matrix(rows, cols):
    """The rows x cols zero matrix; either dimension may be 0."""
    return IntMatrix(((0,) * cols,) * rows, rows, cols)


def is_zero_matrix(m):
    return all(a == 0 for row in m.data for a in row)


def is_zero_hom(f):
    return is_zero_matrix(f.matrix)


def zero_hom(source, target):
    return AbHom(source, target, zero_matrix(target.rank, source.rank))


def iso_eq(g, h):
    """Isomorphism test; in invariant-factor form this is list equality."""
    return g.invariant_factors == h.invariant_factors


def factor_through(f, inclusion):
    """Corestrict f to a subgroup containing its image.

    Given f : A -> B and an inclusion S -> B with im(f) contained in S,
    returns the unique g : A -> S with inclusion . g == f.
    """
    if f.target != inclusion.target:
        raise ValueError("targets do not match")
    s_rank = inclusion.source.rank
    n = f.target.rank
    if s_rank == 0:
        if not is_zero_hom(f):
            raise ValueError("image is not contained in the subgroup")
        return zero_hom(f.source, inclusion.source)
    aug = inclusion.matrix.hstack(IntMatrix.diagonal(f.target.invariant_factors))
    solver = _SnfSolver(aug)
    cols = []
    for j in range(f.source.rank):
        z = solver.solve(f.matrix.column(j))
        if z is None:
            raise ValueError("image is not contained in the subgroup")
        cols.append(z[:s_rank])
    return AbHom(f.source, inclusion.source,
                 IntMatrix.from_columns(cols, rows=s_rank))


def primary_part(group, p):
    """The p-primary component, with its inclusion.

    >>> primary_part(FinAbGroup([12]), 2)[0] == FinAbGroup([4])
    True
    """
    p = int(p)
    if not isprime(p):
        raise ValueError(f"{p} is not prime")
    invariants = []
    cols = []
    for j, d in enumerate(group.invariant_factors):
        q = 1
        while d % p == 0:
            d //= p
            q *= p
        if q > 1:
            invariants.append(q)
            col = [0] * group.rank
            col[j] = d  # d is now prime to p, so d * e_j has exact order q
            cols.append(col)
    part = FinAbGroup(invariants)
    incl = AbHom(part, group, IntMatrix.from_columns(cols, rows=group.rank))
    return part, incl


def primary_part_module(module, p):
    """The p-primary component with the restricted involution."""
    part, incl = primary_part(module.group, p)
    restricted = factor_through(involution_map(module) @ incl, incl)
    return InvModule(part, restricted)


def direct_sum(groups):
    """Direct sum in invariant-factor form, with injections and projections."""
    groups = list(groups)
    n = sum(g.rank for g in groups)
    all_factors = [d for g in groups for d in g.invariant_factors]
    pres = present(n, IntMatrix.diagonal(all_factors))
    total = pres.group
    injections = []
    projections = []
    offset = 0
    for g in groups:
        emb = IntMatrix(tuple(tuple(int(i == offset + j) for j in range(g.rank))
                              for i in range(n)), n, g.rank)
        injections.append(AbHom(g, total, pres.pi @ emb))
        back = IntMatrix(tuple(tuple(int(offset + i == j) for j in range(n))
                               for i in range(g.rank)), g.rank, n)
        projections.append(AbHom(total, g, back @ pres.lift))
        offset += g.rank
    return total, injections, projections


def module_sum(m1, m2):
    """Direct sum of involutive modules, with block-diagonal involution."""
    total, (i1, i2), (p1, p2) = direct_sum([m1.group, m2.group])
    t1 = i1 @ involution_map(m1) @ p1
    t2 = i2 @ involution_map(m2) @ p2
    return InvModule(total, hom_sum(t1, t2))


def swap_square(module):
    """The square of a module with the swap-and-conjugate involution.

    On A + A the involution is (x, y) -> (ybar, xbar).  Its eigen-set for
    either sign is isomorphic to A via x -> (x, sign * xbar) and coincides
    with the norm-image set, so all Tate groups of the square vanish.
    """
    total, (i1, i2), (p1, p2) = direct_sum([module.group, module.group])
    inv = involution_map(module)
    t = hom_sum(i1 @ inv @ p2, i2 @ inv @ p1)
    return InvModule(total, t)


# ---------------------------------------------------------------------------
# the record layer cell by cell: the package builds, normalises and tests
# its matrices row by row, iterating in C; these are the per-cell loops it
# replaced, kept as they were


def cellwise_identity(n):
    return IntMatrix(tuple(tuple(int(i == j) for j in range(n))
                           for i in range(n)), n, n)


def cellwise_diagonal(entries):
    entries = tuple(int(e) for e in entries)
    n = len(entries)
    return IntMatrix(tuple(tuple(entries[i] if i == j else 0 for j in range(n))
                           for i in range(n)), n, n)


def cellwise_scale(m, c):
    c = int(c)
    return IntMatrix(tuple(tuple(c * a for a in r) for r in m.data),
                     m.rows, m.cols)


def cellwise_product(a, b):
    """a @ b for a matrix or a vector b."""
    if isinstance(b, IntMatrix):
        if a.cols != b.rows:
            raise ValueError("shape mismatch in matrix product")
        cols = tuple(tuple(r[j] for r in b.data) for j in range(b.cols))
        return IntMatrix(
            tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols)
                  for row in a.data),
            a.rows, b.cols)
    vec = tuple(int(x) for x in b)
    if a.cols != len(vec):
        raise ValueError("shape mismatch in matrix-vector product")
    return tuple(sum(x * y for x, y in zip(row, vec)) for row in a.data)


def cellwise_hom_matrix(source, target, matrix):
    """The matrix of ``AbHom(source, target, matrix)``, normalised entry by
    entry, or ValueError as ``AbHom`` raises it."""
    if matrix.rows != target.rank or matrix.cols != source.rank:
        raise ValueError("matrix shape does not match groups")
    ds, dt = source.invariant_factors, target.invariant_factors
    norm = []
    for i in range(target.rank):
        row = []
        for j in range(source.rank):
            x = matrix[i, j] % dt[i]
            if (ds[j] * x) % dt[i]:
                raise ValueError("matrix does not respect generator orders")
            row.append(x)
        norm.append(row)
    return IntMatrix(norm, target.rank, source.rank)


def walked_cyclic_factors(factors):
    """``FinAbGroup.from_cyclic_factors`` as it was: every carried gcd is
    merged all the way down the chain, even once it only shifts the chain
    up by one place."""
    chain = []
    for d in factors:
        d = int(d)
        if d < 1:
            raise ValueError("cyclic factors must be positive")
        if not chain or d % chain[-1] == 0:
            if d > 1:
                chain.append(d)
            continue
        for i in reversed(range(len(chain))):
            chain[i], d = lcm(chain[i], d), gcd(chain[i], d)
            if d == 1:
                break
        else:
            chain.insert(0, d)
    return FinAbGroup(chain)


def cellwise_scalar_sign(group, involution):
    """``involutive._scalar_sign`` comparing every cell with s * id."""
    data = involution.matrix.data
    for sign in (1, -1):
        if all(x == (sign % d if i == j else 0)
               for i, (row, d) in enumerate(zip(data, group.invariant_factors))
               for j, x in enumerate(row)):
            return sign
    return None


# ---------------------------------------------------------------------------
# Dirichlet characters, one at a time


@lru_cache(maxsize=None)
def unit_group(m):
    """``classnumber._unit_group(m)``, built once for the characters
    modulo m that are built one at a time."""
    return _unit_group(m)


@lru_cache(maxsize=None)
def unit_logs(m):
    """One dict per p^e || m, in the order of ``classnumber._unit_group``,
    mapping each unit residue mod p^e to its exponents on the generators
    of that factor."""
    tables = []
    for p, e, gens, _ in unit_group(m):
        q, logs = p ** e, {}
        for ks in product(*(range(o) for _, o in gens)):
            value = 1
            for (g, _), k in zip(gens, ks):
                value = value * pow(g, k, q) % q
            logs[value] = ks
        if len(logs) != q - q // p:
            raise InternalConsistencyError("unit group enumeration mismatch")
        tables.append(logs)
    return tuple(tables)


class DirichletCharacter(Record):
    """A character of (Z/m)^x, stored as exponents on fixed generators.

    chi(g_i) = exp(2 pi i * exps[i] / order_i), the generators being those
    of the prime-power factors of m in increasing order of p.  The local
    weights give the values as exponents of a primitive (order of chi)-th
    root of unity.
    """

    __slots__ = ("modulus", "exps", "order", "conductor", "parity", "_local")

    def __init__(self, m, exps):
        orders = modulus(m).orders
        if len(exps) != len(orders):
            raise ValueError("exponent vector does not match the generators")
        exps = tuple(int(k) % o for k, o in zip(exps, orders))
        order = lcm(*(o // gcd(o, k) for k, o in zip(exps, orders)))
        conductor, minus_one, local, i = 1, 0, [], 0
        for (p, e, gens, _), logs in zip(unit_group(m), unit_logs(m)):
            ks = exps[i:i + len(gens)]
            i += len(gens)
            if any(ks):
                conductor *= _local_conductor(p, e, ks)
                minus_one += ks[0]
                weights = tuple(k * order // o for k, (_, o) in zip(ks, gens))
                local.append((p ** e, weights, logs))
        # _local: (p^e, value exponent per generator exponent, logs) of
        # the nontrivial local factors, which alone determine the values
        super().__init__(int(m), exps, order, conductor,
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
            for exps in product(*(range(o) for o in modulus(m).orders))]


# ---------------------------------------------------------------------------
# minus class numbers, the slow way


def character_exponent(chi, a):
    """t with chi(a) = zeta_order^t, for a unit a mod m."""
    t = 0
    for q, weights, logs in chi._local:
        for w, k in zip(weights, logs[a % q]):
            t += w * k
    return t % chi.order


def value_exponent(chi, a):
    """t with chi(a) = zeta_order^t, or None when gcd(a, m) > 1."""
    if gcd(a, chi.modulus) != 1:
        return None
    return character_exponent(chi, a)


def primitive_value_exponent(chi, a):
    """Value exponent of the primitive character of the same conductor.

    Each nontrivial local factor depends only on a mod its own
    conductor, so a unit mod the conductor is read in the local logs
    directly, with no lift to a unit mod m.
    """
    if gcd(a, chi.conductor) != 1:
        return None
    return character_exponent(chi, a)


def power(chi, s):
    return DirichletCharacter(chi.modulus, tuple(e * s for e in chi.exps))


def bernoulli_sums(chi):
    """(f, sums): the conductor, and for each t the sum of the a in [1, f)
    at which the primitive character takes the value zeta_order^t."""
    f = chi.conductor
    sums = [0] * chi.order
    for a in range(1, f):
        t = primitive_value_exponent(chi, a)
        if t is not None:
            sums[t] += a
    return f, sums


def odd_orbits(m):
    """One (chi, f, sums) per Galois orbit of odd characters modulo m, with
    f and sums from ``bernoulli_sums``.

    The characters are walked as exponent tuples in ``characters`` order; a
    tuple is odd when its exponents on the generators carrying -1 have an
    odd sum.  The orbit {chi^j : j a unit mod d} of the first odd tuple not
    yet seen is marked as plain tuples, and only that first member is built
    as a DirichletCharacter.  The orbits must cover the phi(m)/2 odd
    characters, each once.
    """
    orders = modulus(m).orders
    signs, i = [], 0
    for _, _, gens, _ in unit_group(m):
        if gens:
            signs.append(i)
        i += len(gens)

    def odd(exps):
        return sum(exps[i] for i in signs) % 2 == 1

    seen, orbits = set(), []
    for exps in product(*(range(o) for o in orders)):
        if exps in seen or not odd(exps):
            continue
        chi = DirichletCharacter(m, exps)
        d = chi.order
        units = [j for j in range(1, d) if gcd(j, d) == 1]
        orbit = {tuple(j * k % o for k, o in zip(exps, orders))
                 for j in units}
        if len(orbit) != len(units) or not seen.isdisjoint(orbit) \
                or not all(map(odd, orbit)):
            raise InternalConsistencyError("orbit left the odd characters")
        seen |= orbit
        orbits.append((chi, *bernoulli_sums(chi)))
    if 2 * len(seen) != prod(orders):
        raise InternalConsistencyError(
            "the orbits do not cover half of the characters")
    return orbits


def full_unit_table(m, f):
    """(table, axes): every unit a in [1, f), ordered by its logarithms on
    the generators of ``_unit_group(m)`` reduced mod f, and the axes as
    (generator index, order mod f), in the order of the table: the table
    of ``classnumber._unit_table`` before the fold, with a in place of
    2a - f and both units of each pair {a, f - a}."""
    blocks, i = [], 0
    for p, e, gens, _ in unit_group(m):
        fp = gcd(f, p ** e)
        if fp > 1:
            orders = [fp - fp // p] if p > 2 else [2] if e == 2 else \
                [2, fp // 4]
            residues = [1]
            for (g, _), o in zip(gens, orders):
                powers = [1]
                for _ in range(o - 1):
                    powers.append(powers[-1] * g % fp)
                residues = [r * s % fp for r in residues for s in powers]
            rest = f // fp
            lift = rest * pow(rest, -1, fp)
            blocks.append(([*zip(range(i, i + len(gens)), orders)],
                           [r * lift for r in residues]))
        i += len(gens)
    blocks.sort(key=lambda block: block[0][-1][1])
    table = [0]
    for _, block in blocks:
        table = [a + b for a in table for b in block]
    return [a % f for a in table], [axis for axes, _ in blocks
                                    for axis in axes]


def full_orbits(m):
    """One (d, f, sums) per Galois orbit of odd characters modulo m, the
    c_t for every t < d: the walk of ``classnumber._odd_orbits`` over the
    Sylow parts of the character group before the fold, on
    ``full_unit_table``, in the same order of orbits."""
    factors = unit_group(m)
    orders = modulus(m).orders
    signs, i = [], 0
    for _, _, gens, _ in factors:
        if gens:
            signs.append(i)
        i += len(gens)

    parts = []
    for ell in factorint(lcm(*orders)):
        sizes = [ell ** multiplicity(ell, o) for o in orders]
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
            tables[f] = full_unit_table(m, f)
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


def search_conductor(chi):
    """The least f | m with chi trivial on the units that are 1 mod f."""
    m = chi.modulus
    for f in divisors(m):
        if all(value_exponent(chi, a) == 0 for a in range(1, m + 1)
               if gcd(a, m) == 1 and a % f == 1 % f):
            return f
    raise AssertionError("no conductor found")


def search_parity(chi):
    return 1 if value_exponent(chi, -1) == 0 else -1


def lifted_primitive_value_exponent(chi, f, a):
    """chi*(a) for the primitive character of conductor f, by lifting a to
    a unit mod m."""
    if gcd(a, f) != 1:
        return None
    a %= f
    while gcd(a, chi.modulus) != 1:
        a += f
    return value_exponent(chi, a)


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
    return det(IntMatrix.from_columns(cols, rows=n))


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
        orbit = {power(chi, s) for s in range(2, d) if gcd(s, d) == 1}
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
        return Fraction(cyclotomic_norm_int(ints, self.level), den ** n)

    def __eq__(self, other):
        return (isinstance(other, CycNumber) and self.level == other.level
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.level, self.coeffs))

    def __repr__(self):
        return f"CycNumber(level={self.level}, coeffs={self.coeffs})"


def b1(chi):
    """The first generalized Bernoulli value of a non-principal character,
    as an exact element of Q(zeta_order)."""
    if chi.order == 1:
        raise ValueError("principal characters are not accepted")
    f, sums = bernoulli_sums(chi)
    return CycNumber(chi.order, [Fraction(s, f) for s in sums])


def crt_step(exponent, bits=30):
    """F = lcm(exponent, 2) 2^a, a the least with F^2 >= 2^bits: the step
    of the CRT primes below 2^bits, so that F > sqrt(l)."""
    step = lcm(exponent, 2)
    while step * step < 2 ** bits:
        step *= 2
    return step


@lru_cache(maxsize=None)
def crt_prime(exponent, index, bits=62):
    """The index-th prime l below 2^bits with l = 1 (mod F), F =
    ``crt_step(exponent, bits)``, counting down from 2^bits in steps of F,
    and the first x^((l-1)/exponent) of order exponent modulo l, x = 2, 3,
    ...: by default primes of another size than those of
    ``classnumber.hminus``, found by sympy; with bits = 30, the primes of
    ``classnumber._crt_prime``, with a root found by a plain search."""
    step = crt_step(exponent, bits)
    top = 2 ** bits if index == 0 else crt_prime(exponent, index - 1, bits)[0]
    ell = (top - 2) // step * step + 1
    while not isprime(ell):
        ell -= step
    primes = factorint(exponent)
    for x in count(2):
        root = pow(x, (ell - 1) // exponent, ell)
        if all(pow(root, exponent // r, ell) != 1 for r in primes):
            return ell, root


@lru_cache(maxsize=None)
def crt_prime_per_part(exponent, index):
    """The CRT prime search of ``classnumber.hminus`` before its root search
    proved the primes: the index-th prime l below 2^30 with l = 1 (mod
    exponent), counting down in steps of exponent, by sympy's primality
    test, and the product over r^a || exponent of z = x^((l-1)/r^a) for the
    first x >= 2 with z^(r^(a-1)) != 1, one loop over the bases per part."""
    top = 2 ** 30 if index == 0 else crt_prime_per_part(exponent,
                                                        index - 1)[0]
    k = (top - 2) // exponent
    while not isprime(k * exponent + 1):
        k -= 1
    ell, root = k * exponent + 1, 1
    for r, a in factorint(exponent).items():
        part = r ** a
        for x in count(2):
            z = pow(x, (ell - 1) // part, ell)
            if pow(z, part // r, ell) != 1:
                root = root * z % ell
                break
    return ell, root


def primitive_root(q):
    """The smallest primitive root modulo an odd prime power q, each
    prime of q and of p - 1 factored afresh."""
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


def irregularity_index(p):
    """i(p): the number of even k <= p - 3 with p | B_k, for an odd prime
    p.  For those k, B_k is p-integral (von Staudt-Clausen) and
    sum_(a < p) a^k = p B_k (mod p^2), from Faulhaber's formula, so p | B_k
    exactly when the power sum vanishes mod p^2."""
    square = p * p
    squares = [a * a % square for a in range(1, p)]
    powers, index = squares, 0
    for _ in range(2, p - 2, 2):
        index += sum(powers) % square == 0
        powers = [x * y % square for x, y in zip(powers, squares)]
    return index


def cyclotomic_norm_int(coeffs, d, exponent=None):
    """Norm down to Q of sum_i coeffs[i] * zeta_d^i, for integer coeffs.

    Multimodular: the residues modulo primes l = 1 (mod exponent) are
    combined by CRT once the product M of the primes satisfies
    M^2 > 4 B^2 for the bound

        |N|^2 * d^(2 phi(d)) * phi(d)^phi(d) <= (d * sum_t q_t^2)^phi(d),
        q_t = d c_t - sum_s c_s,  d > 1.

    ``exponent`` is a multiple of d (default d); callers with many levels d
    dividing one exponent share its primes.
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
        ell, root = crt_prime(exponent, index)
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


def orbit_hminus(m):
    """Q * w * product over odd characters of (-B_1(chi)/2), one Galois
    orbit at a time: each orbit's norm is an exact integer with its own run
    of CRT primes, and the factors are multiplied as fractions."""
    m = _normalize_modulus(m)
    if m <= 2:
        return 1
    q_factor = 1 if len(modulus(m).factors) == 1 else 2
    w = 2 * m if m % 2 else m
    exponent = modulus(m).exponent

    total = Fraction(q_factor * w)
    remaining = {c for c in characters(m) if c.parity == -1}
    while remaining:
        chi = remaining.pop()
        d = chi.order
        orbit = {power(chi, s) for s in range(2, d) if gcd(s, d) == 1}
        if not orbit <= remaining:
            raise InternalConsistencyError("orbit left the odd characters")
        remaining -= orbit
        phi_d = len(orbit) + 1
        f, sums = bernoulli_sums(chi)
        norm = cyclotomic_norm_int(sums, d, exponent)
        total *= Fraction((-1) ** phi_d * norm, (2 * f) ** phi_d)

    if total.denominator != 1 or total <= 0:
        raise InternalConsistencyError(
            f"analytic minus class number for m={m} is not a positive "
            f"integer: {total}")
    return int(total)


def lambda_primes(m):
    """The primes of lambda(m), the exponent of (Z/m)^x, in increasing
    order, by sympy: the argument of ``classnumber._odd_orbits`` besides
    the unit group."""
    return tuple(int(r) for r in factorint(modulus(m).exponent))


def hminus_crt_primes(exponent):
    """``classnumber._crt_prime`` at an exponent, its primes by sympy."""
    return _crt_prime(exponent, tuple(int(r) for r in factorint(exponent)))


def folded_orbits(m):
    """``classnumber._odd_orbits`` at m, with no conductor stored."""
    orbits, _ = _odd_orbits(unit_group(m), lambda_primes(m), {})
    return orbits


def _qw(m):
    return (1 if len(modulus(m).factors) == 1 else 2) * \
        (2 * m if m % 2 else m)


def norm_bound(m):
    """(bound_sq, scale) of ``classnumber.hminus`` at a normalised m > 2:
    the modulus l^k must have l^(2k) * scale > bound_sq."""
    bound_sq, scale = 4 * _qw(m) ** 2, 1
    for d, f, folded in folded_orbits(m):
        phi_d = int(totient(d))
        bound_sq *= (d ** 3 // 2 * sum(c * c for c in folded)) ** phi_d
        scale *= (2 * d * f) ** (2 * phi_d) * phi_d ** phi_d
    return bound_sq, scale


def least_precision(ell, bound_sq, scale):
    """The least k >= 1 with l^(2k) * scale > bound_sq, one power of l at
    a time."""
    power, k = ell, 1
    while power * power * scale <= bound_sq:
        power, k = power * ell, k + 1
    return k


def cos_row(zeta, d, modulus):
    """zeta^s + zeta^(-s) mod modulus for s < d, zeta of order d, the first
    entry 1: the row of one order, from its own powers of zeta."""
    powers = [1] * d
    for t in range(1, d):
        powers[t] = powers[t - 1] * zeta % modulus
    return [1, *((powers[s] + powers[d - s]) % modulus
                 for s in range(1, d))]


def autocorrelation(a):
    """c_v = sum_t a_t a_(t + v) for v < len(a), one sum of products per
    v."""
    return [sum(map(mul, a, a[v:])) for v in range(len(a))]


def pick(row, start, step, count):
    """row[(start + step u) % len(row)] for u < count, entry by entry."""
    return [row[(start + step * u) % len(row)] for u in range(count)]


def halve(d, a):
    """``classnumber._halve`` one step at a time: while 4 | d, P(x) P(-x)
    mod x^n + 1, n = len(a), as n sums of products, its odd powers zero
    and its even powers the sums of half the length at order d/2."""
    while d % 4 == 0:
        n = len(a)
        twisted = [(-1) ** t * c for t, c in enumerate(a)]
        product = [0] * n
        for i, x in enumerate(a):
            for j, y in enumerate(twisted):
                if i + j < n:
                    product[i + j] += x * y
                else:
                    product[i + j - n] -= x * y
        if any(product[1::2]):
            raise InternalConsistencyError("P(x) P(-x) has an odd power")
        d, a = d // 2, product[0::2]
    return d, a


def norms(d, orbits, cos, modulus):
    """The product of the norms from Q(zeta_d) of the orbits of order d,
    mod modulus, at order d itself: a_0 at d = 2, one value per pair
    {j, -j} (``classnumber._norms``), and for 4 | d, d > 4, Re^2 - Ro^2
    per quartet {+-j, +-j + d/2}, Re and Ro the parts at even and odd u.
    Each b_u = R_u - R_(n-u) is one sum of n products, sum_t a_t a_(t + u)
    with a_(t + n) = -a_t, and each pick of the row is built entry by
    entry."""
    if d == 2:
        return prod(a for a, in orbits) % modulus
    n, size = d // 2, (d + 2) // 4
    pairs = []
    for a in orbits:
        twisted = a + [-c for c in a]
        pairs.append([sum(map(mul, a, twisted[u:u + n]))
                      for u in range(size)])
    value = 1
    if d % 4 or d == 4:
        for j in range(1, n):
            if gcd(j, d) == 1:
                picked = [cos[i % d] for i in range(0, j * size, j)]
                for b in pairs:
                    value = value * sum(map(mul, b, picked)) % modulus
    else:
        split = [(b[0::2], b[1::2]) for b in pairs]
        for j in range(1, d // 4):
            if gcd(j, d) == 1:
                even = [cos[i % d] for i in range(0, j * size, 2 * j)]
                odd = [cos[i % d] for i in range(j, j * size, 2 * j)]
                for b_even, b_odd in split:
                    e = sum(map(mul, b_even, even))
                    o = sum(map(mul, b_odd, odd))
                    value = value * (e * e - o * o) % modulus
    return value


def hminus_per_unit(m):
    """``classnumber.hminus`` with one value per unit: the orbits of
    ``_odd_orbits``, the primes of ``_crt_prime`` and the same modulus
    l^k * l_1 * l_2 * l_3, k found one power of l at a time, but each orbit
    of order d evaluated at every unit j mod d as the folded sum
    sum_(t < d/2) a_t zeta^(j t), except that for 4 | d the units j and
    j + d/2 share one pick of the powers and give (E + O)(E - O), E and O
    the parts at even and odd t."""
    m = _normalize_modulus(m)
    if m <= 2:
        return 1
    qw = _qw(m)
    exponent = modulus(m).exponent
    units, folds, denominator = {}, {}, 1
    for d, f, folded in folded_orbits(m):
        if d not in units:
            units[d] = [j for j in range(1, d) if gcd(j, d) == 1]
        denominator *= (-2 * f) ** len(units[d])
        folds.setdefault(d, []).append(
            (folded[0::2], folded[1::2]) if d % 4 == 0 else folded)

    ell, root = hminus_crt_primes(exponent)[0]
    power = ell ** least_precision(ell, *norm_bound(m))
    mod, lift = power, _teichmueller_lift(root, exponent, ell, power)
    for index in (1, 2, 3):
        prime, prime_root = hminus_crt_primes(exponent)[index]
        lift += mod * ((prime_root - lift) * pow(mod, -1, prime) % prime)
        mod *= prime
    value = qw * pow(denominator, -1, mod)
    for d, orbits in folds.items():
        zeta, row = pow(lift, exponent // d, mod), [1] * d
        for t in range(1, d):
            row[t] = row[t - 1] * zeta % mod
        half = d // 2
        if d % 4:
            for j in units[d]:
                pick = [row[i % d] for i in range(0, j * half, j)]
                for folded in orbits:
                    value = value * sum(map(mul, folded, pick)) % mod
        else:
            for j in units[d][:len(units[d]) // 2]:
                even = [row[i % d] for i in range(0, j * half, 2 * j)]
                odd = [row[i % d] for i in range(j, j * half, 2 * j)]
                for folded_even, folded_odd in orbits:
                    e = sum(map(mul, folded_even, even))
                    o = sum(map(mul, folded_odd, odd))
                    value = value * (e * e - o * o) % mod
    h, check = value % power, mod // power
    if 2 * h > power:
        h -= power
    if h <= 0 or value % check != h % check:
        raise InternalConsistencyError(
            f"per-unit minus class number for m={m} fails its check")
    return h


# ---------------------------------------------------------------------------
# residue rings and vtilde, the slow way
#
# polynomials over F_p: tuples of coefficients, lowest degree first


def _trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def pnormal(c, p):
    return _trim(v % p for v in c)


def padd(a, b, p):
    n = max(len(a), len(b))
    return _trim((( (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % p)
                 for i in range(n))


def psub(a, b, p):
    n = max(len(a), len(b))
    return _trim((( (a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p)
                 for i in range(n))


def pmul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _trim(v % p for v in out)


def pdivmod(a, b, p):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = pow(b[-1], -1, p)
    rem = list(a)
    quo = [0] * max(0, len(a) - len(b) + 1)
    for k in range(len(a) - len(b), -1, -1):
        coef = (rem[k + len(b) - 1] * inv_lead) % p
        if coef:
            quo[k] = coef
            for j, bj in enumerate(b):
                rem[k + j] = (rem[k + j] - coef * bj) % p
    return _trim(quo), _trim(rem)


def pmod(a, b, p):
    return pdivmod(a, b, p)[1]


def pmulmod(a, b, mod, p):
    return pmod(pmul(a, b, p), mod, p)


def ppowmod(a, e, mod, p):
    result = (1,)
    a = pmod(a, mod, p)
    while e:
        if e & 1:
            result = pmulmod(result, a, mod, p)
        a = pmulmod(a, a, mod, p)
        e >>= 1
    return result


def pgcd(a, b, p):
    while b:
        a, b = b, pmod(a, b, p)
    if a:
        inv_lead = pow(a[-1], -1, p)
        a = _trim((v * inv_lead) % p for v in a)
    return a


def pinvmod(a, mod, p):
    # extended Euclid in F_p[x]
    r0, r1 = pmod(a, mod, p), mod
    s0, s1 = (1,), ()
    while r1:
        q, r = pdivmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, psub(s0, pmul(q, s1, p), p)
    if len(r0) != 1:
        raise ZeroDivisionError("element is not invertible")
    c = pow(r0[0], -1, p)
    return _trim((v * c) % p for v in pmod(s0, mod, p))


def pcompose_mod(a, b, mod, p):
    """a(b(x)) mod (mod, p), by Horner."""
    result = ()
    for coef in reversed(a):
        result = pmulmod(result, b, mod, p)
        if coef % p:
            result = padd(result, (coef % p,), p)
    return result



@lru_cache(maxsize=None)
def lambda_min_poly_int(n):
    """Minimal polynomial over Z of lambda_n = zeta_n + zeta_n^(-1), n >= 3.

    Uses the palindromic structure of the cyclotomic polynomial:
    Phi_n(x) / x^(phi(n)/2) rewritten through x^k + x^(-k).
    """
    if n < 3:
        raise ValueError("lambda_n needs n >= 3")
    phi = cyclotomic_int(n)
    if phi != tuple(reversed(phi)):
        raise AssertionError("cyclotomic polynomial is not palindromic")
    d = (len(phi) - 1) // 2
    # v_k(y) represents x^k + x^(-k); v_0 = 2, v_1 = y, v_{k+1} = y v_k - v_{k-1}
    v_prev, v_cur = (2,), (0, 1)
    out = [0] * (d + 1)
    out[0] = phi[d]
    for k in range(1, d + 1):
        for i, c in enumerate(v_cur):
            out[i] += phi[d - k] * c
        if k < d:
            shifted = (0,) + v_cur  # y * v_k
            v_next = tuple(a - (v_prev[i] if i < len(v_prev) else 0)
                           for i, a in enumerate(shifted))
            v_prev, v_cur = v_cur, v_next
    if out[-1] != 1:
        raise AssertionError("lambda minimal polynomial is not monic")
    return tuple(out)


# ---------------------------------------------------------------------------
# equal-degree factorisation (all irreducible factors share degree f)


def equal_degree_factor(poly, f, p, rng):
    """Split a squarefree monic polynomial into its degree-f irreducibles."""
    target = (len(poly) - 1) // f
    work = [poly]
    done = []
    q = p ** f
    while work:
        g = work.pop()
        if len(g) - 1 == f:
            done.append(g)
            continue
        while True:
            a = _trim(tuple(rng.randrange(p) for _ in range(len(g) - 1)))
            if len(a) == 0 or len(a) - 1 == 0:
                continue
            d = pgcd(a, g, p)
            if 0 < len(d) - 1 < len(g) - 1:
                break
            if p == 2:
                t = a
                acc = a
                for _ in range(f - 1):
                    acc = pmulmod(acc, acc, g, p)
                    t = padd(t, acc, p)
                d = pgcd(t, g, p)
            else:
                b = ppowmod(a, (q - 1) // 2, g, p)
                d = pgcd(psub(b, (1,), p), g, p)
            if 0 < len(d) - 1 < len(g) - 1:
                break
        work.append(d)
        work.append(pdivmod(g, d, p)[0])
    if len(done) != target:
        raise AssertionError("equal-degree splitting produced a wrong count")
    return sorted(done)


# ---------------------------------------------------------------------------
# one finite-field factor of a residue ring


def _poly_to_int(c):
    out = 0
    for i, v in enumerate(c):
        if v:
            out |= 1 << i
    return out


def _int_to_poly(v):
    out = []
    i = 0
    while v:
        out.append(v & 1)
        v >>= 1
        i += 1
    return tuple(out)


class FactorField:
    """F_p[x]/(g) for one irreducible factor g of the cyclotomic modulus.

    Elements are coefficient tuples for odd p and bitmask integers for
    p = 2.  The unit group is cyclic of order p^deg(g) - 1 with a stored
    generator; dlog() is Pohlig-Hellman with baby-step giant-step in each
    prime-order subgroup.
    """

    def __init__(self, p, modulus, rng):
        self.p = p
        self.modulus = modulus
        self.degree = len(modulus) - 1
        self.unit_order = p ** self.degree - 1
        self._order_factors = {int(q): int(e)
                               for q, e in factorint(self.unit_order).items()}
        if p == 2:
            self._mod_int = _poly_to_int(modulus)
        self.generator = self._find_generator(rng)
        self._baby_tables = {}

    # -- raw arithmetic ----------------------------------------------------

    def embed(self, poly):
        """Reduce an F_p[x] coefficient tuple into this factor."""
        r = pmod(pnormal(poly, self.p), self.modulus, self.p)
        return _poly_to_int(r) if self.p == 2 else r

    def to_poly(self, a):
        return _int_to_poly(a) if self.p == 2 else a

    def one(self):
        return 1 if self.p == 2 else (1,)

    def is_zero(self, a):
        return (a == 0) if self.p == 2 else (len(a) == 0)

    def mul(self, a, b):
        if self.p != 2:
            return pmulmod(a, b, self.modulus, self.p)
        # carry-less multiply, then reduce
        acc = 0
        aa, bb = a, b
        while bb:
            if bb & 1:
                acc ^= aa
            aa <<= 1
            bb >>= 1
        m, dm = self._mod_int, self.degree
        top = acc.bit_length() - 1
        while top >= dm:
            acc ^= m << (top - dm)
            top = acc.bit_length() - 1
        return acc

    def pow(self, a, e):
        e %= self.unit_order
        result = self.one()
        while e:
            if e & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            e >>= 1
        return result

    def inv(self, a):
        if self.p != 2:
            return pinvmod(a, self.modulus, self.p)
        return self.pow(a, self.unit_order - 1)

    # -- the cyclic unit group ---------------------------------------------

    def _find_generator(self, rng):
        checks = [self.unit_order // q for q in self._order_factors]
        while True:
            cand = _trim(tuple(rng.randrange(self.p)
                               for _ in range(self.degree)))
            if not cand:
                continue
            a = _poly_to_int(cand) if self.p == 2 else cand
            if all(self.pow(a, e) != self.one() for e in checks):
                return a

    def _baby_table(self, base, ell):
        key = (base, ell)
        table = self._baby_tables.get(key)
        if table is None:
            m = isqrt(ell - 1) + 1
            table = {}
            v = self.one()
            for j in range(m):
                table.setdefault(v, j)
                v = self.mul(v, base)
            self._baby_tables[key] = (m, table)
        return self._baby_tables[key]

    def _dlog_prime_order(self, base, y, ell):
        """log_base(y) where base has prime order ell."""
        m, table = self._baby_table(base, ell)
        giant = self.pow(self.inv(base), m)
        v = y
        for i in range(m + 1):
            j = table.get(v)
            if j is not None:
                return (i * m + j) % ell
            v = self.mul(v, giant)
        raise InternalConsistencyError("discrete log failed in a factor field")

    def dlog(self, y):
        """log of y with respect to the stored generator, in Z/(unit order)."""
        if self.is_zero(y):
            raise ZeroDivisionError("dlog of a non-unit")
        n = self.unit_order
        residues = []
        moduli = []
        for q, e in self._order_factors.items():
            qe = q ** e
            g_q = self.pow(self.generator, n // qe)
            y_q = self.pow(y, n // qe)
            # lift digit by digit through the q-power tower
            g_prime = self.pow(g_q, qe // q)  # order q
            value = 0
            for k in range(e):
                t = self.pow(self.mul(y_q, self.inv(self.pow(g_q, value))),
                             qe // (q ** (k + 1)))
                digit = self._dlog_prime_order(g_prime, t, q)
                value += digit * (q ** k)
            residues.append(value)
            moduli.append(qe)
        # CRT
        result, modulus = 0, 1
        for r, m in zip(residues, moduli):
            delta = ((r - result) * pow(modulus, -1, m)) % m
            result += modulus * delta
            modulus *= m
        if self.pow(self.generator, result) != y:
            raise InternalConsistencyError("discrete log verification failed")
        return result


def order_mod_signed(a, n):
    """Order of a in (Z/n)^x / {+-1}: least k with a^k = +-1 mod n.

    With f the order of a, some a^k = -1 forces f | 2k and f not | k, so
    a^k = a^(f/2): the order is f/2 when a^(f/2) = -1, and f otherwise.
    """
    if n <= 2:
        return 1
    f = order_mod(a, n)
    return f // 2 if f % 2 == 0 and pow(a, f // 2, n) == n - 1 else f


# ---------------------------------------------------------------------------
# the full residue rings


class ResidueRingUnits:
    """The unit group of F_p[zeta_n] as a product of cyclic factor fields."""

    def __init__(self, p, n):
        p, n = int(p), int(n)
        if not isprime(p):
            raise ValueError(f"{p} is not prime")
        if n < 1 or gcd(p, n) != 1:
            raise ValueError(f"need gcd(p, n) = 1, got p={p}, n={n}")
        self.p = p
        self.n = n
        self.field_degree = order_mod(p, n)
        phi = int(totient(n))
        if phi % self.field_degree:
            raise InternalConsistencyError("field degree does not divide phi(n)")
        self.factor_count = phi // self.field_degree
        self.cyclotomic = pnormal(cyclotomic_int(n), p)

        rng = random.Random(1_000_003 * p + n)
        if self.factor_count == 1:
            polys = [self.cyclotomic]
        else:
            polys = equal_degree_factor(self.cyclotomic, self.field_degree, p, rng)
        self.factors = tuple(FactorField(p, g, rng) for g in polys)
        unit_order = self.factors[0].unit_order
        # F_2[zeta_1] has a trivial unit group; everything else is honest
        self.group = FinAbGroup([unit_order] * self.factor_count
                                if unit_order > 1 else [])
        self._idempotents = None

    @property
    def order(self):
        return self.group.order

    def project(self, coeffs):
        """Map an integer polynomial in zeta_n to unit-group coordinates."""
        poly = tuple(int(c) for c in coeffs)
        logs = []
        for field in self.factors:
            a = field.embed(poly)
            if field.is_zero(a):
                raise ZeroDivisionError("element is not a unit in the residue ring")
            logs.append(field.dlog(a))
        return tuple(logs) if self.group.rank else ()

    def element_polys(self, coords):
        """Factorwise field elements for the given unit coordinates."""
        return [field.pow(field.generator, k % field.unit_order)
                for field, k in zip(self.factors, coords)]

    def _crt_idempotents(self):
        if self._idempotents is None:
            p, big = self.p, self.cyclotomic
            idems = []
            for field in self.factors:
                h = pdivmod(big, field.modulus, p)[0]
                w = pinvmod(pmod(h, field.modulus, p), field.modulus, p)
                idems.append(pmod(pmul(h, w, p), big, p))
            self._idempotents = tuple(idems)
        return self._idempotents

    def combine(self, factor_elements):
        """CRT the per-factor elements into one polynomial mod Phi_n."""
        p, big = self.p, self.cyclotomic
        out = ()
        for field, a, e in zip(self.factors, factor_elements,
                               self._crt_idempotents()):
            out = padd(out, pmul(field.to_poly(a), e, p), p)
        return pmod(out, big, p)

    def conjugation(self):
        """The involution of the unit group induced by zeta -> zeta^(-1)."""
        p, big = self.p, self.cyclotomic
        x_inv = pmod(tuple([0] * (self.n - 1) + [1]), big, p) if self.n > 1 else (1,)
        cols = []
        for k in range(self.factor_count):
            coords = [0] * self.factor_count
            coords[k] = 1
            combined = self.combine(self.element_polys(coords))
            conjugated = pcompose_mod(combined, x_inv, big, p)
            cols.append([f2.dlog(f2.embed(conjugated)) for f2 in self.factors])
        return AbHom(self.group, self.group,
                     IntMatrix.from_columns(cols, rows=self.factor_count))

    def __repr__(self):
        return (f"ResidueRingUnits(p={self.p}, n={self.n}, "
                f"f={self.field_degree}, factors={self.factor_count})")


class LambdaUnits:
    """The unit group of the real subring F_p[lambda_n], embedded in the
    unit group of F_p[zeta_n]."""

    def __init__(self, p, n):
        self.p, self.n = int(p), int(n)
        self.ring = oracle_residue_units(p, n)
        p, n = self.p, self.n
        if n <= 2:
            # lambda is rational; the subring is everything
            self.field_degree = self.ring.field_degree
            self.factor_count = self.ring.factor_count
            self.group = self.ring.group
            self.embedding = AbHom.identity(self.group)
            return
        self.field_degree = order_mod_signed(p, n)
        half_phi = int(totient(n)) // 2
        if half_phi % self.field_degree:
            raise InternalConsistencyError(
                "real field degree does not divide phi(n)/2")
        self.factor_count = half_phi // self.field_degree

        psi = pnormal(lambda_min_poly_int(n), p)
        rng = random.Random(2_000_003 * p + n)
        if self.factor_count == 1:
            polys = [psi]
        else:
            polys = equal_degree_factor(psi, self.field_degree, p, rng)
        sub_fields = [FactorField(p, h, rng) for h in polys]
        if sub_fields[0].unit_order == 1:
            # the real subring meets the units trivially (e.g. F_2[lambda_3])
            self.group = FinAbGroup()
            self.embedding = AbHom(
                self.group, self.ring.group,
                zero_matrix(self.ring.group.rank, 0))
            return
        self.group = FinAbGroup([sub_fields[0].unit_order] * self.factor_count)

        # CRT generators of the subring's unit group, written as
        # polynomials in lambda, then evaluated at lambda inside each
        # factor of the big ring and discrete-logged.
        lam_polys = []
        for field in self.ring.factors:
            x_elt = field.embed((0, 1))
            lam = padd(field.to_poly(x_elt), field.to_poly(field.inv(x_elt)), p)
            lam_polys.append(lam)

        cols = []
        for h, kf in zip(polys, sub_fields):
            big_h = pdivmod(psi, h, p)[0]
            w = pinvmod(pmod(big_h, h, p), h, p)
            idem = pmod(pmul(big_h, w, p), psi, p)
            gen_poly = kf.to_poly(kf.generator)
            # 1 + idem * (generator - 1), equal to the generator in this
            # factor of the subring and 1 in the others
            c = padd((1,), pmul(idem, psub(gen_poly, (1,), p), p), p)
            c = pmod(c, psi, p)
            col = []
            for field, lam in zip(self.ring.factors, lam_polys):
                val = pcompose_mod(c, lam, field.modulus, p)
                col.append(field.dlog(field.embed(val)))
            cols.append(col)
        self.embedding = AbHom(self.group, self.ring.group,
                               IntMatrix.from_columns(
                                   cols, rows=self.ring.factor_count))
        img, _ = subgroup_generated(self.ring.group, self.embedding.matrix)
        if img.order != self.group.order:
            raise InternalConsistencyError(
                "lambda-unit embedding is not injective")

    @property
    def order(self):
        return self.group.order

    def __repr__(self):
        return (f"LambdaUnits(p={self.p}, n={self.n}, "
                f"f={self.field_degree}, factors={self.factor_count})")


class UnitQuotient:
    """F_p[zeta_n]^x / F_p[lambda_n]^x with its projection map."""

    def __init__(self, p, n):
        self.p, self.n = int(p), int(n)
        self.units = oracle_residue_units(p, n)
        self.lam = oracle_lambda_units(p, n)
        pres = quotient(self.units.group, self.lam.embedding.matrix)
        self.group = pres.group
        self.projection = AbHom(self.units.group, pres.group, pres.pi)
        self._pres = pres
        expected = self.units.order // self.lam.order
        if self.group.order != expected:
            raise InternalConsistencyError("unit quotient has the wrong order")

    def project(self, coeffs):
        """Class of an integer polynomial in zeta_n, in quotient coordinates."""
        return self.projection(self.units.project(coeffs))

    def conjugation(self):
        """Involution on the quotient induced by zeta -> zeta^(-1)."""
        conj = self.units.conjugation()
        mat = self.projection.matrix @ conj.matrix @ self._pres.lift
        return AbHom(self.group, self.group, mat)

    def __repr__(self):
        return f"UnitQuotient(p={self.p}, n={self.n}, group={self.group})"


@lru_cache(maxsize=None)
def oracle_residue_units(p, n):
    return ResidueRingUnits(p, n)


@lru_cache(maxsize=None)
def oracle_lambda_units(p, n):
    return LambdaUnits(p, n)


@lru_cache(maxsize=None)
def oracle_unit_quotient(p, n):
    return UnitQuotient(p, n)


def _coset_root(m, primes):
    """The root of unity r with 1 - zeta_r generating the non-real coset.

    For two odd primes it is 1 - zeta_m itself.  For m = 2pq the relevant
    field has odd conductor, so the generator comes from the odd part.  For
    m = 2p the unit group has no non-real coset and the column is redundant
    (but still a unit).
    """
    odd = [q for q in primes if q != 2]
    return prod(odd) if len(odd) == 2 and 2 in primes else m


@lru_cache(maxsize=None)
def psi_plus_presentation(m):
    """The reduction map of ``residue.vtilde`` as a homomorphism into the
    direct sum of the whole tori, each image an r_q-tuple of one
    coordinate; its cokernel is vtilde(m)."""
    primes = _primes(m)
    quots = [unit_quotient(q, m // q) for q in primes]
    target, injections, _ = direct_sum([uq.group for uq in quots])

    r = _coset_root(m, primes)
    zeta_vec = target.zero()
    u_vec = target.zero()
    for q, uq, inj in zip(primes, quots, injections):
        k = m // q
        beta = pow(q, -1, k)
        zeta, u = uq.images(beta % k, (beta * (m // r)) % k)
        zeta_vec = target.reduce(
            _addvec(zeta_vec, inj((zeta,) * uq.group.rank)))
        u_vec = target.reduce(_addvec(u_vec, inj((u,) * uq.group.rank)))
    source = FinAbGroup([m, 2 * m])
    matrix = IntMatrix.from_columns([zeta_vec, u_vec], rows=target.rank)
    return AbHom(source, target, matrix)


@lru_cache(maxsize=None)
def oracle_psi_plus_presentation(m):
    """The reduction map from the distinguished units of Z[zeta_m] into the
    direct sum of the unit quotients at each prime of m.

    The source is Z/m + Z/2m; the first generator is zeta_m, the second is
    1 - zeta_r for the coset root r (its image squares into the span of
    the first column, hence has order dividing 2m).  The cokernel of this
    map is vtilde(m).
    """
    primes = _primes(m)
    quots = [oracle_unit_quotient(q, m // q) for q in primes]
    target, injections, _ = direct_sum([uq.group for uq in quots])

    r = _coset_root(m, primes)
    zeta_vec = target.zero()
    u_vec = target.zero()
    for q, uq, inj in zip(primes, quots, injections):
        k = m // q
        beta = pow(q, -1, k)
        zeta_exp = beta % k
        u_exp = (beta * (m // r)) % k
        zeta_local = uq.project(_monomial(zeta_exp))
        u_local = uq.project(_one_minus_monomial(u_exp))
        zeta_vec = target.reduce(_addvec(zeta_vec, inj(zeta_local)))
        u_vec = target.reduce(_addvec(u_vec, inj(u_local)))
    source = FinAbGroup([m, 2 * m])
    matrix = IntMatrix.from_columns([zeta_vec, u_vec], rows=target.rank)
    return AbHom(source, target, matrix)


def _monomial(e):
    return tuple([0] * e + [1])


def _one_minus_monomial(e):
    if e == 0:
        raise InternalConsistencyError("1 - zeta^0 is not a unit")
    c = [0] * (e + 1)
    c[0] = 1
    c[e] = -1
    return tuple(c)


def _addvec(a, b):
    return tuple(u + v for u, v in zip(a, b))


@lru_cache(maxsize=None)
def oracle_vtilde(m):
    """The cokernel of the unit-reduction presentation at m.

    Trivial for m prime: the cyclotomic units already surject onto the
    residue field units there.
    """
    m = int(m)
    if m >= 2 and isprime(m):
        return FinAbGroup()
    group, _ = cokernel(oracle_psi_plus_presentation(m))
    return group


def vtilde_by_smith(m):
    """vtilde(m) as ``residue.vtilde`` computed it before it read the
    cokernel off the minors of the relations: the image columns beside the
    diagonal of the reached orders, presented through Smith normal form
    with its transforms, and the untouched factors added."""
    m = int(m)
    if m >= 2 and isprime(m):
        return FinAbGroup()
    primes = _primes(m)
    r = _coset_root(m, primes)
    rows, orders, untouched = [], [], []
    for q in primes:
        k = m // q
        uq = unit_quotient(q, k)
        beta = pow(q, -1, k)
        reached, rest = _split_off(uq.group.exponent, 2 * m)
        rows.append([c % reached for c in uq.images(
            beta % k, (beta * (m // r)) % k)])
        orders.append(reached)
        untouched += [rest] + [uq.group.exponent] * (uq.group.rank - 1)
    relations = IntMatrix(rows, len(rows), 2).hstack(
        cellwise_diagonal(orders))
    cokernel_group = present(len(rows), relations).group
    return FinAbGroup.from_cyclic_factors(
        cokernel_group.invariant_factors + tuple(untouched))


def vtilde_module(m):
    """vtilde(m) as an involutive module: conjugation inverts the norm-one
    tori, so the involution is negation."""
    return InvModule(vtilde(m), -1)


@lru_cache(maxsize=None)
def oracle_vtilde_module(m):
    """vtilde(m) as an involutive module, with the involution induced by
    conjugation on the residue rings (it works out to negation)."""
    m = int(m)
    if m >= 2 and isprime(m):
        return with_trivial(FinAbGroup())
    hom = oracle_psi_plus_presentation(m)
    primes = _primes(m)
    quots = [oracle_unit_quotient(q, m // q) for q in primes]
    target, injections, projections = direct_sum([uq.group for uq in quots])
    block = None
    for uq, inj, proj in zip(quots, injections, projections):
        piece = inj @ uq.conjugation() @ proj
        block = piece if block is None else hom_sum(block, piece)
    pres = quotient(target, hom.matrix)
    coker = pres.group
    inv = AbHom(coker, coker, pres.pi @ block.matrix @ pres.lift)
    return InvModule(coker, inv)


# ---------------------------------------------------------------------------
# the realisable automorphism count, one unit at a time


def loop_a2k_order(k, m):
    """2 m #{c in (Z/m)^x : c^k = +-1}, testing every c."""
    return 2 * m * sum(1 for c in range(1, m)
                       if gcd(c, m) == 1 and pow(c, k, m) in (1 % m, m - 1))


# ---------------------------------------------------------------------------
# Kervaire-Murthy orders


def km_order(n):
    """The order of km_v_module(n), without building it."""
    return 2 ** sum(i * 2 ** (n - i - 2) for i in range(1, n - 1))


def ladder_exponent(e):
    """log2 of the kernel-group ladder order at 2^e: the sum over
    2 <= k <= e of log2 |km_v_module(k - 1)| = 2^(k-2) - (k-1), in closed
    form."""
    return 2 ** (e - 1) - 1 - e * (e - 1) // 2


# ---------------------------------------------------------------------------
# the K-theory data assembled eagerly: every class-group fact at m read
# before any branch is chosen, as ktheory did before each branch read its
# own


def eager_k0_description(m, compute):
    """Every class-group fact at m that a_m and the Whitehead fields read."""
    return SimpleNamespace(
        m=m, h_minus_is_one=hminus_is_one(m), h_odd=h_is_odd(m, compute),
        d_fact=stored_d_group(m),
        class_parts={d: _class_part(d, compute) for d in divisors(m)
                     if d > 1})


def iterated_k0_module(m, compute):
    """The class-group module that ``ktheory._exact_k0_module`` describes
    by a group and a sign, with the stored modules summed one at a time;
    None when not pinned down."""
    data = eager_k0_description(m, compute)
    d_fact = data.d_fact
    if d_fact is None or d_fact.group is None:
        return None
    if data.h_minus_is_one:
        return signed_module(d_fact.group, d_fact.sign)
    parts = data.class_parts.values()
    if d_fact.group.order != 1 or \
            any(part.status != "exact" for part in parts):
        return None
    modules = [InvModule(part.group, -1)
               for _, part in sorted(data.class_parts.items())]
    total = modules[0] if modules else with_trivial(FinAbGroup())
    for extra in modules[1:]:
        total = module_sum(total, extra)
    return total


def eager_a_m(m, compute):
    """``ktheory.a_m`` read off the eager description, each Tate group
    through ``oracle_tate``."""
    data = eager_k0_description(m, compute)
    d_fact = data.d_fact
    d_parity = d_fact.parity_odd if d_fact is not None else None
    parts = data.class_parts
    if data.h_odd and d_parity:
        return Knowledge.exact(
            FinAbGroup(), "odd class number and odd kernel group")
    if data.h_odd and d_fact is not None and d_fact.group is not None:
        return Knowledge.exact(
            oracle_tate(signed_module(d_fact.group, d_fact.sign), 1),
            "odd class number; Tate group of the stored kernel group")
    if d_parity and all(part.status == "exact" for part in parts.values()):
        pieces = [d for _, part in sorted(parts.items())
                  for d in oracle_tate(InvModule(part.group, -1),
                                       1).invariant_factors]
        return Knowledge.exact(
            FinAbGroup.from_cyclic_factors(pieces),
            "odd kernel group; Tate groups of the stored class groups")
    return Knowledge.unknown(constraint=_a2_constraint(m),
                             source="kernel group or class group not pinned")


def eager_difference_witness(m, compute):
    """The difference-set witness with its own walk over the divisors,
    skipping those whose odd(h^-) = 1 is stored."""
    notes = []
    total = 1
    for d in divisors(m):
        if d == 1 or d in HMINUS_ONE or d in ODD_HMINUS_ONE:
            continue
        if compute:
            total *= odd_part(hminus(d))
            notes.append(f"odd part of the minus class number at {d}")
        else:
            notes.append(f"minus class number parity at {d} not stored")
    try:
        total *= d_divisibility_bound(m) if compute else 1
    except UnsupportedModulusError:
        notes.append("kernel-group channel skipped: unsupported divisor")
    return total, "; ".join(notes) if notes else "stored classifications"


def eager_wh_fields(m, compute):
    """``ktheory.wh_fields`` from the eager description."""
    rank = wh_rank(m)
    tate_knowledge = eager_a_m(m, compute)
    if not nk1_vanishes(m):
        infinite = Knowledge.infinite(
            "nonvanishing Nil summand (m is not square-free)")
        return rank, False, infinite, infinite, tate_knowledge
    module = iterated_k0_module(m, compute)
    if module is not None:
        source = "kernel group (class number one)" if hminus_is_one(m) \
            else "sum of the stored class groups (vanishing kernel group)"
        j = Knowledge.exact(eigen_set(module, -1)[0], source)
        i = Knowledge.exact(norm_image_set(module, -1)[0], source)
        return rank, True, j, i, tate_knowledge
    bound = Knowledge.bound(*eager_difference_witness(m, compute))
    return rank, True, bound, bound, tate_knowledge


def oracle_verify(n, m):
    """``manifoldset.verify(n, m)`` with every check run at (n, m), each
    against the deep structure at n: none is shared with another degree."""
    w = wh_structure(n, m, compute=True)
    checks = []

    def add(name, status, detail):
        checks.append((("name", name), ("status", status), ("detail", detail)))

    sf = squarefree(m)
    add("squarefree-vs-infinite", "confirmed" if sf == nk1_vanishes(m)
        else "inconsistent",
        f"square-free = {sf}, Nil summand vanishes = {nk1_vanishes(m)}")

    a2k = a2k_order(n // 2, m)
    add("automorphism-order-bound",
        "confirmed" if a2k < 2 * m * m else "inconsistent",
        f"|A_{n}({m})| = {a2k} < {2 * m * m}")

    if sf:
        h = hminus(m)
        # odd(h_m^-) * prod of odd unit-cokernel orders divides |I|
        witness, note = odd_part(h), None
        try:
            witness *= d_divisibility_bound(m)
        except UnsupportedModulusError:
            note = "kernel-group channel unsupported for this m"
        if m in MHS_TRIVIAL:
            if w.j_group.status == "exact" and w.j_group.group.is_trivial() \
                    and h == 1:
                add("set1-trivial-support", "confirmed",
                    "class number one and vanishing kernel group force J = 0")
            elif w.j_group.status == "exact":
                add("set1-trivial-support", "inconsistent",
                    f"listed trivial but J = {w.j_group.group}")
            else:
                add("set1-trivial-support", "no-data",
                    "J not exactly computable from stored facts")
        elif w.j_group.status == "exact":
            add("set1-nontrivial-witness",
                "confirmed" if not w.j_group.group.is_trivial()
                else "inconsistent", f"exact J = {w.j_group.group}")
        elif odd_part(h) > 1:
            add("set1-nontrivial-witness", "confirmed",
                f"odd(h^-) = {odd_part(h)} > 1 forces J != 0")
        else:
            add("set1-nontrivial-witness",
                "confirmed" if witness > 1 else "no-data",
                f"divisibility witness {witness}"
                + (f" ({note})" if note else ""))

        if m in MHCOB_TRIVIAL:
            if w.i_group.status == "exact" and w.i_group.group.is_trivial():
                add("set2-trivial-support", "confirmed",
                    "stored data gives I = 0 exactly")
            elif w.i_group.status == "exact":
                add("set2-trivial-support", "inconsistent",
                    f"listed trivial but I = {w.i_group.group}")
            else:
                add("set2-trivial-support", "no-data",
                    "I not exactly computable from stored facts")
        elif w.i_group.status == "exact":
            add("set2-nontrivial-witness",
                "confirmed" if not w.i_group.group.is_trivial()
                else "inconsistent", f"exact I = {w.i_group.group}")
        elif witness > 1:
            add("set2-nontrivial-witness", "confirmed",
                f"divisibility witness {witness} > 1"
                + (f" ({note})" if note else ""))
        else:
            group = known_class_group(m)
            if group is not None and any(
                    d % 4 == 0 for d in group.invariant_factors):
                add("set2-nontrivial-witness", "confirmed",
                    "the stored class group has nontrivial double")
            else:
                add("set2-nontrivial-witness", "no-data",
                    "no stored witness channel applies")

        if w.i_group.status == "exact":
            order = w.i_group.group.order
            add("i-order-divisibility",
                "confirmed" if order % witness == 0 else "inconsistent",
                f"witness {witness} vs |I| = {order}"
                + (f" ({note})" if note else ""))

        try:
            bound = c_bound(m)
        except UnsupportedModulusError:
            bound = None
        if bound is not None:
            order = vtilde(m).order
            add("c-bound-divides-cokernel",
                "confirmed" if order % bound == 0 else "inconsistent",
                f"c = {bound}, cokernel order {order}")
    else:
        add("set1-set2-infinite", "confirmed",
            "m is not square-free, matching the infinite verdicts")

    if w.tate_group.status == "exact":
        group = w.tate_group.group
        elementary = all(d == 2 for d in group.invariant_factors)
        add("tate-elementary", "confirmed" if elementary else "inconsistent",
            f"H = {group}")
        if sf and w.j_group.status == "exact" and w.i_group.status == "exact":
            expected = w.j_group.group.order // w.i_group.group.order
            add("tate-vs-j-i", "confirmed" if group.order == expected
                else "inconsistent",
                f"|H| = {group.order}, |J|/|I| = {expected}")
    else:
        add("tate-elementary", "no-data", "Tate group not exactly known")

    consistent = all(dict(c)["status"] != "inconsistent" for c in checks)
    return ConsistencyRecord(n, m, consistent, tuple(checks))
