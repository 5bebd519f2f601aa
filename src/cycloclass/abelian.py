"""Finite abelian groups presented by integer matrices.

Everything in this module is exact.  Matrices carry arbitrary-precision
integer entries, groups are normalised to invariant-factor form the moment
they are constructed, and every structural computation reduces to Smith
normal form: kernels, images and generated subgroups are instances of one
subquotient <top> / <bottom> (``subquotient``), and cokernels present the
target modulo the image (``present``).  All values are immutable after
construction and safe to share between threads.
"""

from __future__ import annotations

from math import gcd, lcm, prod
import itertools

from .record import Record


class IntMatrix(Record):
    """An immutable integer matrix.  Empty shapes (0 x n, n x 0) are legal."""

    __slots__ = ("data", "rows", "cols")

    def __init__(self, data, rows=None, cols=None):
        data = tuple(tuple(int(x) for x in row) for row in data)
        if rows is None:
            rows = len(data)
        if cols is None:
            cols = len(data[0]) if data else 0
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ValueError("ragged or mis-sized matrix data")
        super().__init__(data, rows, cols)

    @classmethod
    def identity(cls, n):
        return cls(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), n, n)

    @classmethod
    def zero(cls, rows, cols):
        return cls(tuple((0,) * cols for _ in range(rows)), rows, cols)

    @classmethod
    def diagonal(cls, entries):
        entries = tuple(int(e) for e in entries)
        n = len(entries)
        return cls(tuple(tuple(entries[i] if i == j else 0 for j in range(n))
                         for i in range(n)), n, n)

    @classmethod
    def from_columns(cls, columns, rows=None):
        columns = tuple(tuple(int(x) for x in c) for c in columns)
        if rows is None:
            rows = len(columns[0]) if columns else 0
        return cls(tuple(tuple(c[i] for c in columns) for i in range(rows)),
                   rows, len(columns))

    def __getitem__(self, key):
        i, j = key
        return self.data[i][j]

    def row(self, i):
        return self.data[i]

    def column(self, j):
        return tuple(r[j] for r in self.data)

    def columns(self):
        return [self.column(j) for j in range(self.cols)]

    def transpose(self):
        return IntMatrix(tuple(self.column(j) for j in range(self.cols)),
                         self.cols, self.rows)

    def hstack(self, other):
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        return IntMatrix(tuple(a + b for a, b in zip(self.data, other.data)),
                         self.rows, self.cols + other.cols)

    def __matmul__(self, other):
        if isinstance(other, IntMatrix):
            if self.cols != other.rows:
                raise ValueError("shape mismatch in matrix product")
            cols = other.transpose().data
            return IntMatrix(
                tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                      for row in self.data),
                self.rows, other.cols)
        # matrix * vector
        vec = tuple(int(x) for x in other)
        if self.cols != len(vec):
            raise ValueError("shape mismatch in matrix-vector product")
        return tuple(sum(a * b for a, b in zip(row, vec)) for row in self.data)

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return IntMatrix(tuple(tuple(a + b for a, b in zip(r1, r2))
                               for r1, r2 in zip(self.data, other.data)),
                         self.rows, self.cols)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return IntMatrix(tuple(tuple(-a for a in r) for r in self.data),
                         self.rows, self.cols)

    def scale(self, c):
        c = int(c)
        return IntMatrix(tuple(tuple(c * a for a in r) for r in self.data),
                         self.rows, self.cols)

    def is_zero(self):
        return all(all(a == 0 for a in r) for r in self.data)

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self.data]!r})"


def _srem(a, b):
    """Symmetric remainder of a mod b, in (-|b|/2, |b|/2]."""
    r = a % abs(b)
    if 2 * r > abs(b):
        r -= abs(b)
    return r


def snf(m):
    """Smith normal form of an integer matrix.

    Returns ``(s, u, v, u_inv)`` with ``u @ m @ v == s``, where ``u`` and
    ``v`` are unimodular, ``u_inv`` is the inverse of ``u``, and ``s`` is
    diagonal with non-negative entries satisfying s1 | s2 | ... .  Each row
    operation on ``u`` is matched by the inverse column operation on
    ``u_inv``.  Pivots are chosen by minimal absolute value and rows/columns
    are fully reduced at each step, which keeps intermediate entries small
    at the sizes used here.
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


def kernel_basis(m):
    """A basis, as matrix columns, of the integer kernel lattice of m."""
    s, _, v, _ = snf(m)
    rank = sum(1 for i in range(min(m.rows, m.cols)) if s[i, i])
    cols = [v.column(j) for j in range(rank, m.cols)]
    return IntMatrix.from_columns(cols, rows=m.cols)


class FinAbGroup(Record):
    """Z/d1 x ... x Z/dr in invariant-factor form, d1 | d2 | ... | dr, di >= 2.

    The trivial group is ``FinAbGroup()``.  Generators are the canonical
    basis vectors; elements are tuples reduced modulo the orders.
    """

    __slots__ = ("invariant_factors",)

    def __init__(self, invariant_factors=()):
        fs = tuple(int(d) for d in invariant_factors)
        for d in fs:
            if d < 2:
                raise ValueError("invariant factors must be >= 2")
        for a, b in itertools.pairwise(fs):
            if b % a:
                raise ValueError(f"{fs} is not a divisibility chain")
        super().__init__(fs)

    @classmethod
    def from_cyclic_factors(cls, factors):
        """Normalise an arbitrary product of cyclic groups, factoring nothing.

        Z/a + Z/d = Z/gcd(a, d) + Z/lcm(a, d), so each factor is merged into
        the chain from the top down, carrying the gcd until it becomes 1; a
        multiple of the top just extends the chain.

        >>> FinAbGroup.from_cyclic_factors([2, 3]) == FinAbGroup([6])
        True
        """
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
        return cls(chain)

    @property
    def rank(self):
        return len(self.invariant_factors)

    @property
    def order(self):
        return prod(self.invariant_factors)

    @property
    def exponent(self):
        return self.invariant_factors[-1] if self.invariant_factors else 1

    def is_trivial(self):
        return not self.invariant_factors

    def reduce(self, vec):
        return tuple(x % d for x, d in zip(vec, self.invariant_factors))

    def zero(self):
        return (0,) * self.rank

    def elements(self):
        """Iterate over all elements.  Meant for small groups and oracles."""
        return itertools.product(*(range(d) for d in self.invariant_factors))

    def __repr__(self):
        return f"FinAbGroup({list(self.invariant_factors)!r})"

    def __str__(self):
        if not self.invariant_factors:
            return "0"
        return " x ".join(f"Z/{d}" for d in self.invariant_factors)


class AbHom(Record):
    """A homomorphism between finite abelian groups.

    Column j of ``matrix`` is the image of the j-th source generator in
    target coordinates.  Entries are normalised modulo the target orders,
    so equality of homomorphisms is entrywise matrix equality.
    """

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source, target, matrix):
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
        super().__init__(source, target,
                         IntMatrix(norm, target.rank, source.rank))

    @classmethod
    def identity(cls, group):
        return cls(group, group, IntMatrix.identity(group.rank))

    @classmethod
    def zero(cls, source, target):
        return cls(source, target, IntMatrix.zero(target.rank, source.rank))

    def __call__(self, element):
        return self.target.reduce(self.matrix @ tuple(element))

    def __matmul__(self, other):
        """Composition: (f @ g)(x) == f(g(x))."""
        if other.target != self.source:
            raise ValueError("homomorphisms do not compose")
        return AbHom(other.source, self.target, self.matrix @ other.matrix)

    def __add__(self, other):
        if (self.source, self.target) != (other.source, other.target):
            raise ValueError("homomorphism mismatch")
        return AbHom(self.source, self.target, self.matrix + other.matrix)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return AbHom(self.source, self.target, -self.matrix)

    def is_zero(self):
        return self.matrix.is_zero()

    def is_identity(self):
        return (self.source == self.target
                and self == AbHom.identity(self.source))

    def __repr__(self):
        return f"AbHom({self.source!r} -> {self.target!r}, {self.matrix!r})"


class Presentation(Record):
    """A quotient Z^n / L in normal form, remembering the change of basis.

    ``group`` is the quotient in invariant-factor form, ``pi`` maps ambient
    coordinates to group coordinates, and ``lift`` sends each group
    generator to an ambient representative.
    """

    __slots__ = ("group", "pi", "lift")


def present(n_ambient, relation_columns):
    """Normalise the quotient Z^n / (column lattice), which must be finite."""
    s, u, _, u_inv = snf(relation_columns)
    diag = [s[i, i] for i in range(min(s.rows, s.cols))]
    if len(diag) < n_ambient or 0 in diag:
        raise ValueError("presented quotient is infinite")
    keep = [i for i in range(n_ambient) if diag[i] != 1]
    group = FinAbGroup([diag[i] for i in keep])
    pi = IntMatrix(tuple(u.row(i) for i in keep), len(keep), n_ambient)
    lift = IntMatrix.from_columns([u_inv.column(i) for i in keep], rows=n_ambient)
    return Presentation(group, pi, lift)


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
    s, u, _, u_inv = snf(top.hstack(rel))
    scales = [s[i, i] for i in range(n)]
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


def cokernel(f):
    """Cokernel of a homomorphism: (group, projection from f.target)."""
    rel = f.matrix.hstack(IntMatrix.diagonal(f.target.invariant_factors))
    pres = present(f.target.rank, rel)
    return pres.group, AbHom(f.target, pres.group, pres.pi)


def kernel_lattice(f):
    """Columns spanning the lattice of source coordinates that f sends to 0."""
    r = f.source.rank
    basis = kernel_basis(
        f.matrix.hstack(IntMatrix.diagonal(f.target.invariant_factors)))
    return IntMatrix(basis.data[:r], r, basis.cols)


def kernel(f):
    """Kernel of a homomorphism: (group, inclusion into f.source)."""
    return subgroup_generated(f.source, kernel_lattice(f))


def subgroup_generated(group, columns):
    """Subgroup of ``group`` generated by the given ambient columns.

    Returns (subgroup, inclusion).
    """
    sub, lift = subquotient(group, columns, IntMatrix.zero(group.rank, 0))
    return sub, AbHom(sub, group, lift)


def image(f):
    """Image of a homomorphism: (group, inclusion into f.target)."""
    return subgroup_generated(f.target, f.matrix)


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
