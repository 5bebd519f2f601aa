"""Finite abelian groups with involution and their C2 Tate cohomology.

An involutive module packages a finite abelian group with a homomorphic
involution x -> xbar.  Its Tate group in the parity of s = +-1 is
ker(xbar - s*x) / im(xbar + s*x), both read off the one map xbar - t*x at
t = s and t = -s.  When the involution is +1 or -1 times the identity the
Tate group is the 2-torsion of the group, read off the invariant factors;
every other involution goes through Smith normal form on augmented
relation matrices.  The eigen-subgroups {x : xbar = s*x} and norm-image
subgroups {x + s*xbar} themselves, and element enumeration, are test
oracles.
"""

from __future__ import annotations

from .abelian import AbHom, kernel_lattice, subquotient
from .record import Record


def _scalar_sign(group, involution):
    """The sign s = +-1 with involution == s * id, or None when there is none.

    Reads the normalised matrix row by row: row i is s mod d_i on the
    diagonal and zero elsewhere, that is, its diagonal entry is s mod d_i
    (never 0, as d_i >= 2) and the other rank - 1 entries are 0.  On an
    elementary abelian 2-group both signs fit, and 1 is returned.
    """
    data = involution.matrix.data
    off_diagonal = group.rank - 1
    for sign in (1, -1):
        if all(row[i] == sign % d and row.count(0) == off_diagonal
               for i, (row, d) in enumerate(zip(data, group.invariant_factors))):
            return sign
    return None


class InvModule(Record):
    """A finite abelian group with a homomorphic involution.

    The involution is validated eagerly: it must be a self-map squaring to
    the identity (hence an automorphism).  A scalar involution +-id squares
    to the identity by itself, so only other involutions are squared.
    """

    __slots__ = ("group", "involution")

    def __init__(self, group, involution):
        if involution.source != group or involution.target != group:
            raise ValueError("involution must be an endomorphism of the group")
        if _scalar_sign(group, involution) is None and \
                not (involution @ involution).is_identity():
            raise ValueError("involution squared is not the identity")
        super().__init__(group, involution)

    @classmethod
    def with_negation(cls, group):
        return cls(group, AbHom.scalar(group, -1))

    def conjugate(self, element):
        return self.involution(element)

    def __repr__(self):
        return f"InvModule({self.group!r}, {self.involution.matrix!r})"


def _shifted_map(module, t):
    """The endomorphism x -> xbar - t * x."""
    return module.involution - AbHom.scalar(module.group, t)


def tate(module, n):
    """Tate cohomology of C2 acting through the involution, in degree n.

    With s = (-1)^n the result is ker(involution - s) / im(involution + s),
    the eigen-subgroup of s over the norm image x + s * xbar, and depends
    only on n mod 2.  For an involution +-id it is G/2G or the 2-torsion of
    G, so (Z/2)^k in both degrees, k the number of even invariant factors
    (``FinAbGroup.two_torsion``).  Any other involution takes one
    subquotient of the kernel lattice of (involution - s) by the columns
    of (involution + s).

    >>> from cycloclass.abelian import FinAbGroup
    >>> m = InvModule.with_negation(FinAbGroup([3, 12, 24]))
    >>> tate(m, 0), tate(m, 1)
    (FinAbGroup([2, 2]), FinAbGroup([2, 2]))
    """
    if _scalar_sign(module.group, module.involution) is not None:
        return module.group.two_torsion()
    s = 1 if n % 2 == 0 else -1
    quotient, _ = subquotient(module.group,
                              kernel_lattice(_shifted_map(module, s)),
                              _shifted_map(module, -s).matrix)
    return quotient
