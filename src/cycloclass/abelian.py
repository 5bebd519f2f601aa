"""Finite abelian groups presented by integer matrices.

Everything in this module is exact.  Matrices carry arbitrary-precision
integer entries, groups are normalised to invariant-factor form the moment
they are constructed, and every structural computation reduces to Smith
normal form and its row transform: cokernels present the target modulo
the image (``present``), a generated subgroup is the lattice of its
generators and the relations, presented modulo the relations
(``subgroup_generated``), and kernels and images are generated subgroups,
a kernel lattice read off the row transform of the transpose
(``kernel_basis``).  All values are immutable after construction and safe
to share between threads.
"""

from __future__ import annotations

from math import gcd, lcm, prod
from operator import add, itemgetter, mul
import itertools

from .record import Record


class IntMatrix(Record):
    """An immutable integer matrix.  Empty shapes (0 x n, n x 0) are legal.

    Rows are built and combined whole: ``map``, ``sum`` and slicing
    iterate over the entries of a row in C, and a product adds whole rows
    of its right factor, one for each nonzero entry of a left row.
    """

    __slots__ = ("data", "rows", "cols")

    def __init__(self, data, rows=None, cols=None):
        data = tuple(tuple(map(int, row)) for row in data)
        if rows is None:
            rows = len(data)
        if cols is None:
            cols = len(data[0]) if data else 0
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ValueError("ragged or mis-sized matrix data")
        super().__init__(data, rows, cols)

    @classmethod
    def diagonal(cls, entries):
        # row i is the zero row with entry i put in: slices, not cells
        entries = tuple(entries)
        zeros = (0,) * len(entries)
        return cls(zeros[:i] + (e,) + zeros[i + 1:]
                   for i, e in enumerate(entries))

    @classmethod
    def from_columns(cls, columns, rows=None):
        columns = tuple(tuple(map(int, c)) for c in columns)
        if rows is None:
            rows = len(columns[0]) if columns else 0
        return cls(tuple(tuple(map(itemgetter(i), columns))
                         for i in range(rows)), rows, len(columns))

    def __getitem__(self, key):
        i, j = key
        return self.data[i][j]

    def row(self, i):
        return self.data[i]

    def column(self, j):
        return tuple(map(itemgetter(j), self.data))

    def columns(self):
        return [self.column(j) for j in range(self.cols)]

    def transpose(self):
        return IntMatrix(tuple(map(self.column, range(self.cols))),
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
            product = []
            for row in self.data:
                out = [0] * other.cols
                for q, right in zip(row, other.data):
                    if q:
                        out = [x + q * y for x, y in zip(out, right)]
                product.append(out)
            return IntMatrix(product, self.rows, other.cols)
        # matrix * vector
        vec = tuple(map(int, other))
        if self.cols != len(vec):
            raise ValueError("shape mismatch in matrix-vector product")
        return tuple(sum(map(mul, row, vec)) for row in self.data)

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return IntMatrix(tuple(tuple(map(add, r1, r2))
                               for r1, r2 in zip(self.data, other.data)),
                         self.rows, self.cols)

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self.data]!r})"


def _srem(a, b):
    """Symmetric remainder of a mod b, in (-|b|/2, |b|/2]."""
    r = a % abs(b)
    if 2 * r > abs(b):
        r -= abs(b)
    return r


def snf(m):
    """Smith normal form of an integer matrix, with its row transform.

    Returns ``(diagonal, u, u_inv)``: ``u`` is unimodular, ``u_inv`` is its
    inverse, and ``u @ m @ v`` is diagonal for some unimodular ``v``, with
    the min(rows, cols) non-negative entries ``diagonal``, s1 | s2 | ... .
    ``v`` is not built: the column operations touch only the working
    matrix, and a caller that needs a column transform of m reads the row
    transform of ``m.transpose()`` (``kernel_basis``).  ``u_inv`` is held
    by its columns, so the column operation on it that matches a row
    operation on ``u`` is a row update too.  Every update skips the zero
    entries of the row it adds.  Pivots are chosen by minimal absolute
    value and rows/columns are fully reduced at each step, which keeps
    intermediate entries small at the sizes used here.
    """
    R, C = m.rows, m.cols
    a = [list(r) for r in m.data]
    u = [[int(i == j) for j in range(R)] for i in range(R)]
    u_inv_cols = [r[:] for r in u]

    def add(rows, i, j, q):  # rows[i] += q * rows[j]
        ri = rows[i]
        for k, x in enumerate(rows[j]):
            if x:
                ri[k] += q * x

    def row_add(i, j, q):  # row i += q * row j; col j -= q * col i of u_inv
        add(a, i, j, q)
        add(u, i, j, q)
        add(u_inv_cols, j, i, -q)

    for t in range(min(R, C)):
        while True:
            # re-select a minimal-absolute-value pivot on every pass; this
            # keeps the reduction quotients small and bounds entry growth.
            # The first minimal entry in row-major order is taken, so the
            # search can stop at the first unit
            best = None
            for i in range(t, R):
                for j, x in enumerate(a[i][t:], t):
                    if x and (best is None or abs(x) < best):
                        best, pi, pj = abs(x), i, j
                        if best == 1:
                            break
                if best == 1:
                    break
            if best is None:
                break
            for rows in (a, u, u_inv_cols):
                rows[t], rows[pi] = rows[pi], rows[t]
            if pj != t:
                for r in a:
                    r[t], r[pj] = r[pj], r[t]
            p = a[t][t]
            for i in range(t + 1, R):
                if a[i][t]:
                    q = (a[i][t] - _srem(a[i][t], p)) // p
                    if q:
                        row_add(i, t, -q)
            for j in range(t + 1, C):
                if a[t][j]:
                    q = (a[t][j] - _srem(a[t][j], p)) // p
                    if q:
                        for r in a:
                            if r[t]:
                                r[j] -= q * r[t]
            if any(r[t] for r in a[t + 1:]) or any(a[t][t + 1:]):
                continue
            if abs(p) == 1:  # a unit divides the rest of the block
                break
            # force the pivot to divide the rest of the block
            culprit = next((i for i in range(t + 1, R)
                            if any(map(p.__rmod__, a[i][t + 1:]))), None)
            if culprit is None:
                break
            row_add(t, culprit, 1)
        if a[t][t] < 0:
            for rows in (a, u, u_inv_cols):
                rows[t] = [-x for x in rows[t]]

    return (tuple(a[i][i] for i in range(min(R, C))), IntMatrix(u, R, R),
            IntMatrix.from_columns(u_inv_cols, R))


def kernel_basis(m):
    """A basis, as matrix columns, of the integer kernel lattice of m.

    A column transform v of m is the row transform u of m.transpose(),
    transposed, so the rows of that u past the rank span the kernel.
    """
    diagonal, u, _ = snf(m.transpose())
    return IntMatrix.from_columns(u.data[sum(map(bool, diagonal)):],
                                  rows=m.cols)


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
        multiple of the top just extends the chain.  A carried gcd that
        divides chain[i] and is divisible by chain[i - 1] would only shift
        the chain below it up one place, so it is inserted at i at once.
        The factors are merged in increasing order, where a carried gcd
        meets few factors it does not divide.

        >>> FinAbGroup.from_cyclic_factors([2, 3]) == FinAbGroup([6])
        True
        """
        chain = []
        for d in sorted(map(int, factors)):
            if d < 1:
                raise ValueError("cyclic factors must be positive")
            if d == 1:
                continue
            if not chain or d % chain[-1] == 0:
                chain.append(d)
                continue
            for i in reversed(range(len(chain))):
                if chain[i] % d == 0 and (i == 0 or d % chain[i - 1] == 0):
                    chain.insert(i, d)
                    break
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

    def two_torsion(self):
        """{x : 2x = 0} = (Z/2)^k, k the number of even invariant factors;
        G/2G is isomorphic to it."""
        return FinAbGroup([2] * sum(d % 2 == 0
                                    for d in self.invariant_factors))

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
        ds = source.invariant_factors
        # row i is reduced mod d_i (d.__rmod__(x) is x % d), and its entry
        # x in column j must satisfy d_j * x == 0 mod d_i
        norm = [tuple(map(d.__rmod__, row))
                for row, d in zip(matrix.data, target.invariant_factors)]
        if any(any(map(d.__rmod__, map(mul, ds, row)))
               for row, d in zip(norm, target.invariant_factors)):
            raise ValueError("matrix does not respect generator orders")
        super().__init__(source, target,
                         IntMatrix(norm, target.rank, source.rank))

    @classmethod
    def identity(cls, group):
        return cls.scalar(group, 1)

    @classmethod
    def scalar(cls, group, c):
        """Multiplication by c on ``group``: c mod d_i on the diagonal."""
        return cls(group, group, IntMatrix.diagonal([c] * group.rank))

    def __call__(self, element):
        return self.target.reduce(self.matrix @ tuple(element))

    def __matmul__(self, other):
        """Composition: (f @ g)(x) == f(g(x))."""
        if other.target != self.source:
            raise ValueError("homomorphisms do not compose")
        return AbHom(other.source, self.target, self.matrix @ other.matrix)

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
    diag, u, u_inv = snf(relation_columns)
    if len(diag) < n_ambient or 0 in diag:
        raise ValueError("presented quotient is infinite")
    keep = [i for i in range(n_ambient) if diag[i] != 1]
    group = FinAbGroup([diag[i] for i in keep])
    pi = IntMatrix(tuple(u.row(i) for i in keep), len(keep), n_ambient)
    lift = IntMatrix.from_columns([u_inv.column(i) for i in keep], rows=n_ambient)
    return Presentation(group, pi, lift)


def cokernel(f):
    """Cokernel of a homomorphism: (group, projection from f.target)."""
    rel = f.matrix.hstack(IntMatrix.diagonal(f.target.invariant_factors))
    pres = present(f.target.rank, rel)
    return pres.group, AbHom(f.target, pres.group, pres.pi)


def kernel(f):
    """Kernel of a homomorphism: (group, inclusion into f.source)."""
    r = f.source.rank
    basis = kernel_basis(
        f.matrix.hstack(IntMatrix.diagonal(f.target.invariant_factors)))
    return subgroup_generated(f.source,
                              IntMatrix(basis.data[:r], r, basis.cols))


def subgroup_generated(group, columns):
    """Subgroup of ``group`` generated by the given ambient columns.

    Returns (subgroup, inclusion).  With D the relations of ``group``, u @
    [columns | D] @ v == s gives the basis u_inv[:, i] * s_i of the lattice
    L of the columns and D, and L / D is presented by u @ D / s.
    """
    n = group.rank
    factors = group.invariant_factors
    scales, u, u_inv = snf(columns.hstack(IntMatrix.diagonal(factors)))
    pres = present(n, IntMatrix([[x * d // s for x, d in zip(row, factors)]
                                 for s, row in zip(scales, u.data)], n, n))
    basis = IntMatrix([[x * s for x, s in zip(r, scales)] for r in u_inv.data],
                      n, n)
    lift = basis @ pres.lift
    return pres.group, AbHom(pres.group, group, IntMatrix.from_columns(
        [group.reduce(c) for c in lift.columns()], rows=n))


def image(f):
    """Image of a homomorphism: (group, inclusion into f.target)."""
    return subgroup_generated(f.target, f.matrix)

