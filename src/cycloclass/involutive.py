"""Finite abelian groups with involution and their C2 Tate cohomology.

An involutive module packages a finite abelian group with a homomorphic
involution x -> xbar.  The operations here compute the eigen-subgroups
{x : xbar = e*x}, the norm-image subgroups {x + e*xbar}, and their quotient
(the Tate cohomology in the parity matching e).  When the involution is +1
or -1 times the identity the Tate group is read off the invariant factors;
every other involution goes through Smith normal form on augmented relation
matrices.  Element enumeration is never used outside the test oracles.
"""

from __future__ import annotations

import enum

from .abelian import (
    AbHom,
    FinAbGroup,
    kernel,
    kernel_lattice,
    subgroup_generated,
    subquotient,
)
from .record import Record


class Sign(enum.IntEnum):
    """The sign (-1)^n that threads through every eigen-set definition.

    Kept as its own type so call sites spell the parity out instead of
    passing bare integers around.
    """

    PLUS = 1
    MINUS = -1

    @classmethod
    def for_degree(cls, n):
        """(-1)^n."""
        return cls.PLUS if n % 2 == 0 else cls.MINUS


def _scalar_sign(group, involution):
    """The sign s with involution == s * id, or None when there is none.

    Reads the normalised matrix row by row: row i is s mod d_i on the
    diagonal and zero elsewhere, that is, its diagonal entry is s mod d_i
    (never 0, as d_i >= 2) and the other rank - 1 entries are 0.  On an
    elementary abelian 2-group both signs fit, and PLUS is returned.
    """
    data = involution.matrix.data
    off_diagonal = group.rank - 1
    for sign in Sign:
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
    def with_trivial(cls, group):
        return cls(group, AbHom.identity(group))

    @classmethod
    def with_negation(cls, group):
        return cls(group, AbHom.scalar(group, -1))

    @property
    def order(self):
        return self.group.order

    def conjugate(self, element):
        return self.involution(element)

    def __repr__(self):
        return f"InvModule({self.group!r}, {self.involution.matrix!r})"


def _shifted_map(module, sign):
    """The endomorphism x -> xbar - sign * x."""
    g = module.group
    return module.involution - AbHom.scalar(g, int(sign))


def eigen_set(module, sign):
    """The subgroup {x : xbar = sign * x}, with its inclusion.

    This is the kernel of (involution - sign * id).
    """
    return kernel(_shifted_map(module, sign))


def _norm_map(module, sign):
    """The endomorphism x -> x + sign * xbar."""
    g = module.group
    return AbHom.identity(g) + \
        AbHom(g, g, module.involution.matrix.scale(int(sign)))


def norm_image_set(module, sign):
    """The subgroup {x + sign * xbar : x in the module}, with its inclusion."""
    return subgroup_generated(module.group, _norm_map(module, sign).matrix)


def tate(module, n):
    """Tate cohomology of C2 acting through the involution, in degree n.

    The result is eigen_set(module, (-1)^n) / norm_image_set(module, (-1)^n)
    and depends only on n mod 2.  For an involution s * id with s = +-1 it
    is G/2G or the 2-torsion of G, so (Z/2)^k in both degrees, k the number
    of even invariant factors.  Any other involution takes one subquotient
    of the kernel lattice of (involution - sign) by the columns of
    (1 + sign * involution).

    >>> m = InvModule.with_negation(FinAbGroup([3, 12, 24]))
    >>> tate(m, 0), tate(m, 1)
    (FinAbGroup([2, 2]), FinAbGroup([2, 2]))
    """
    if _scalar_sign(module.group, module.involution) is not None:
        return FinAbGroup([2] * sum(1 for d in module.group.invariant_factors
                                    if d % 2 == 0))
    sign = Sign.for_degree(n)
    quotient, _ = subquotient(module.group,
                              kernel_lattice(_shifted_map(module, sign)),
                              _norm_map(module, sign).matrix)
    return quotient

