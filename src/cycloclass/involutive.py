"""Finite abelian groups with involution and their C2 Tate cohomology.

An involutive module packages a finite abelian group with a homomorphic
involution x -> xbar.  The operations here compute the eigen-subgroups
{x : xbar = e*x}, the norm-image subgroups {x + e*xbar}, and their quotient
(the Tate cohomology in the parity matching e), all by Smith normal form on
augmented relation matrices.  Element enumeration is never used outside the
test oracles.
"""

from __future__ import annotations

import enum

from .abelian import (
    AbHom,
    IntMatrix,
    direct_sum as group_direct_sum,
    factor_through,
    kernel,
    kernel_lattice,
    primary_part,
    subgroup_generated,
    subquotient,
)


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

    def flip(self):
        return Sign.MINUS if self is Sign.PLUS else Sign.PLUS


class InvModule:
    """A finite abelian group with a homomorphic involution.

    The involution is validated eagerly: it must be a self-map squaring to
    the identity (hence an automorphism).
    """

    __slots__ = ("group", "involution")

    def __init__(self, group, involution):
        if involution.source != group or involution.target != group:
            raise ValueError("involution must be an endomorphism of the group")
        if not (involution @ involution).is_identity():
            raise ValueError("involution squared is not the identity")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "involution", involution)

    def __setattr__(self, name, value):
        raise AttributeError("InvModule is immutable")

    @classmethod
    def with_trivial(cls, group):
        return cls(group, AbHom.identity(group))

    @classmethod
    def with_negation(cls, group):
        return cls(group, AbHom(group, group,
                                IntMatrix.identity(group.rank).scale(-1)))

    @property
    def order(self):
        return self.group.order

    def conjugate(self, element):
        return self.involution(element)

    def __eq__(self, other):
        return (isinstance(other, InvModule) and self.group == other.group
                and self.involution == other.involution)

    def __hash__(self):
        return hash((self.group, self.involution))

    def __repr__(self):
        return f"InvModule({self.group!r}, {self.involution.matrix!r})"


def _shifted_map(module, sign):
    """The endomorphism x -> xbar - sign * x."""
    g = module.group
    return module.involution - AbHom(g, g, IntMatrix.identity(g.rank).scale(int(sign)))


def eigen_set(module, sign):
    """The subgroup {x : xbar = sign * x}, with its inclusion.

    This is the kernel of (involution - sign * id).
    """
    return kernel(_shifted_map(module, sign))


def _norm_map(module, sign):
    """The endomorphism x -> x + sign * xbar."""
    g = module.group
    return AbHom(g, g, IntMatrix.identity(g.rank)) + \
        AbHom(g, g, module.involution.matrix.scale(int(sign)))


def norm_image_set(module, sign):
    """The subgroup {x + sign * xbar : x in the module}, with its inclusion."""
    return subgroup_generated(module.group, _norm_map(module, sign).matrix)


def tate(module, n):
    """Tate cohomology of C2 acting through the involution, in degree n.

    The result is eigen_set(module, (-1)^n) / norm_image_set(module, (-1)^n),
    taken in one step as the subquotient of the kernel lattice of
    (involution - sign) by the columns of (1 + sign * involution); it
    depends only on n mod 2.
    """
    sign = Sign.for_degree(n)
    quotient, _ = subquotient(module.group,
                              kernel_lattice(_shifted_map(module, sign)),
                              _norm_map(module, sign).matrix)
    return quotient


def direct_sum(m1, m2):
    """Direct sum of involutive modules, with block-diagonal involution."""
    total, (i1, i2), (p1, p2) = group_direct_sum([m1.group, m2.group])
    t1 = i1 @ m1.involution @ p1
    t2 = i2 @ m2.involution @ p2
    return InvModule(total, t1 + t2)


def swap_square(module):
    """The square of a module with the swap-and-conjugate involution.

    On A + A the involution is (x, y) -> (ybar, xbar).  Its eigen-set for
    either sign is isomorphic to A via x -> (x, sign * xbar) and coincides
    with the norm-image set, so all Tate groups of the square vanish.
    """
    total, (i1, i2), (p1, p2) = group_direct_sum([module.group, module.group])
    t = (i1 @ module.involution @ p2) + (i2 @ module.involution @ p1)
    return InvModule(total, t)


def primary_part_module(module, p):
    """The p-primary component with the restricted involution."""
    part, incl = primary_part(module.group, p)
    restricted = factor_through(module.involution @ incl, incl)
    return InvModule(part, restricted)
