"""Finite abelian groups with involution and their C2 Tate cohomology.

An involutive module packages a finite abelian group G with a homomorphic
involution x -> xbar.  Its Tate group ker(xbar - s*x) / im(xbar + s*x),
s = +-1, is killed by 2 (x + s*xbar = 2x on the kernel) and has Herbrand
quotient 1 (Serre, Local Fields, VIII 4), so it is (Z/2)^k whatever the
degree, 2^k = |coker(xbar - x)| |coker(xbar + x)| / |G|.  Each cokernel
order is the product of a Smith diagonal, that of the relations
[xbar - t | D] at t = +-1, D the diagonal of the invariant factors.  An
involution +1 or -1 times the identity is held as that sign, and k is the
number of even invariant factors.  The eigen-subgroups, norm images, their
subquotient and element enumeration are test oracles.
"""

from math import prod

from .abelian import FinAbGroup, IntMatrix, snf
from .arith import InternalConsistencyError
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

    The involution is an ``AbHom`` or the int s = +-1, which stands for
    s * id.  Both forms give one record: a matrix equal to +-id is stored
    as its sign, and on a group of exponent at most 2, where -id == id,
    the sign is 1.  A matrix is validated eagerly: it must be a self-map
    squaring to the identity (hence an automorphism).
    """

    __slots__ = ("group", "involution")

    def __init__(self, group, involution):
        if isinstance(involution, int):
            if involution not in (1, -1):
                raise ValueError("a scalar involution is 1 or -1")
            involution = 1 if group.exponent <= 2 else involution
        elif involution.source != group or involution.target != group:
            raise ValueError("involution must be an endomorphism of the group")
        else:
            # _scalar_sign answers 1 on a group of exponent at most 2 too
            sign = _scalar_sign(group, involution)
            if sign is None and not (involution @ involution).is_identity():
                raise ValueError("involution squared is not the identity")
            involution = involution if sign is None else sign
        super().__init__(group, involution)

    def conjugate(self, element):
        if isinstance(self.involution, int):
            return self.group.reduce([self.involution * x for x in element])
        return self.involution(element)

    def __repr__(self):
        inv = self.involution
        return (f"InvModule({self.group!r}, "
                f"{inv if isinstance(inv, int) else inv.matrix!r})")


def tate(module, n):
    """Tate cohomology of C2 acting through the involution, in degree n.

    With s = (-1)^n it is ker(involution - s) / im(involution + s), killed
    by 2 and of Herbrand quotient 1 (Serre, Local Fields, VIII 4), so it is
    (Z/2)^k whatever n is: 2^k = |coker(xbar - x)| |coker(xbar + x)| / |G|,
    as |ker f| = |coker f| for an endomorphism f of G.  The order of
    coker(xbar - t) is the product of the Smith diagonal of the r x 2r
    relations [xbar - t | D], D the diagonal of the invariant factors of
    G, so an explicit involution takes two Smith normal forms.  For an
    involution +-id, k is the number of even invariant factors of G.

    >>> m = InvModule(FinAbGroup([3, 12, 24]), -1)
    >>> tate(m, 0), tate(m, 1)
    (FinAbGroup([2, 2]), FinAbGroup([2, 2]))
    """
    if isinstance(module.involution, int):
        return module.group.two_torsion()
    group = module.group
    relations = IntMatrix.diagonal(group.invariant_factors)
    count = 1
    for t in (1, -1):
        shifted = module.involution.matrix + IntMatrix.diagonal(
            [-t] * group.rank)
        count *= prod(snf(shifted.hstack(relations))[0])
    count, rest = divmod(count, group.order)
    if rest or count.bit_count() != 1:
        raise InternalConsistencyError(
            f"Tate group order {count} (remainder {rest}) is not a power of 2")
    return FinAbGroup([2] * (count.bit_length() - 1))
