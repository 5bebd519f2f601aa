"""Assembly of the involutive K-theory data for cyclic groups.

This layer combines the exact residue-ring and class-number computations
with the published structural facts (kernel groups and class groups, each a
group G whose involution is s * id, s = +-1, and parity tables) into
tri-state knowledge: a group is reported as exactly known, bounded by a
divisibility witness, infinite, or unknown.  The sets J and I and the Tate
group are read off G and s, with no module built.  Nothing is ever silently
coerced to a number the sources do not support.
"""

from __future__ import annotations

from functools import lru_cache

from .abelian import FinAbGroup
from .arith import UnsupportedModulusError, divisors, factorint, isprime
from .involutive import InvModule
from .classnumber import h_is_odd, hminus, hminus_is_one, \
    known_class_group, odd_part
from .record import Record
from .residue import vtilde


class ScopeError(ValueError):
    """Raised when a query falls outside the even-dimension scope."""


def squarefree(m):
    return all(e == 1 for e in factorint(int(m)).values())


def wh_rank(m):
    """Free rank of the Whitehead group of a cyclic group of order m."""
    m = int(m)
    if m < 2:
        raise ValueError("cyclic group order must be at least 2")
    return m // 2 + 1 - len(divisors(m))


def nk1_vanishes(m):
    """Whether the Nil summand vanishes: exactly the square-free m."""
    return squarefree(m)


#: the highest level km_v_module builds.  The module has r = 2^(N-2) - 1
#: generators and its involution is a dense r x r matrix, four times larger
#: at each level: building the module and its Tate group takes about
#: 0.002 s at N = 9, 0.008 s at N = 10 and 0.03 s at N = 11 in-process, and
#: `cycloclass tate --km 9 --degree 1` answers in 0.10-0.12 s cold, on a
#: 2-core x86-64 host (Python 3.11).  The value stays 9, so no level
#: changes its exit code.
KM_LEVEL_CEILING = 9


def km_v_module(n):
    """The Kervaire-Murthy module at level 2^(n+1): the direct sum of
    (Z/2^i)^(2^(n-i-2)) for 1 <= i <= n-2, with the involution acting by
    negation.  Empty for 0 <= n <= 2; a negative level raises ValueError,
    and levels above KM_LEVEL_CEILING raise ScopeError before anything is
    built."""
    n = int(n)
    if n < 0:
        raise ValueError(f"N = {n}: the Kervaire-Murthy level must be >= 0")
    if n > KM_LEVEL_CEILING:
        raise ScopeError(
            f"N = {n}: the level-2^(N+1) module has 2^(N-2) - 1 generators; "
            f"levels above {KM_LEVEL_CEILING} are not built")
    factors = []
    for i in range(1, n - 1):
        factors.extend([2 ** i] * (2 ** (n - i - 2)))
    return InvModule.with_negation(FinAbGroup.from_cyclic_factors(factors))


# ---------------------------------------------------------------------------
# tri-state knowledge about groups


class Knowledge(Record):
    """What is known about one finite (or not) abelian group.

    ``status`` is "exact", "bound", "infinite" or "unknown"; ``divisor`` is
    a proven divisor of the order.  ``module`` is always None.
    """

    # ``module`` stays though always None: every report's repr embeds the
    # slot, and perfbench checks digests of those reprs
    __slots__ = ("status", "group", "module", "divisor", "constraint",
                 "source")

    def __init__(self, status, group=None, module=None, divisor=None,
                 constraint=None, source=""):
        super().__init__(status, group, module, divisor, constraint, source)

    @classmethod
    def exact(cls, group, source):
        return cls(status="exact", group=group, source=source)

    @classmethod
    def bound(cls, divisor, source, constraint=None):
        return cls(status="bound", divisor=int(divisor), source=source,
                   constraint=constraint)

    @classmethod
    def infinite(cls, source):
        return cls(status="infinite", source=source)

    @classmethod
    def unknown(cls, constraint=None, source=""):
        return cls(status="unknown", constraint=constraint, source=source)

    def to_dict(self):
        out = {"status": self.status}
        if self.group is not None:
            out["invariant_factors"] = list(self.group.invariant_factors)
            out["order"] = self.group.order
        if self.divisor is not None:
            out["order_divisor"] = self.divisor
        if self.constraint:
            out["constraint"] = self.constraint
        if self.source:
            out["source"] = self.source
        return out


# ---------------------------------------------------------------------------
# stored kernel-group facts


class DGroupFact(Record):
    """Stored knowledge about the kernel group of one cyclic group ring.

    ``group``, when known exactly, has the involution ``sign`` * id, sign
    = +-1; ``parity_odd`` says whether the order is odd, where known.
    """

    __slots__ = ("group", "sign", "parity_odd", "source")

    def __init__(self, group=None, sign=None, parity_odd=None, source=""):
        super().__init__(group, sign, parity_odd, source)


def _exact_d(group, sign, source):
    return DGroupFact(group, sign, group.order % 2 == 1, source)


def stored_d_group(m):
    """Published (or forced) kernel-group data for Z C_m; None when absent.

    The entries at 15 and 21 are published computations, and both are
    confirmed here: the unit cokernels at those levels have the matching
    orders, which pins the group and (at 21) forces the negation action.
    No value is stored at 42: the published order there is irreconcilable
    with the subnormal series over the divisors of 42 once the unit
    cokernel at 42 is computed, so the honest answer is "unknown".
    """
    m = int(m)
    if m >= 2 and isprime(m):
        return _exact_d(FinAbGroup(), -1, "kernel group of a prime vanishes")
    if m in (6, 10, 14):
        return _exact_d(FinAbGroup(), -1, "published vanishing list")
    if m == 15:
        return _exact_d(FinAbGroup([2]), 1,
                        "published: order 2, trivial action")
    if m == 21:
        return _exact_d(FinAbGroup([4]), -1,
                        "published: order 4; negation forced by the unit "
                        "cokernel having nontrivial double")
    fact = factorint(m)
    if len(fact) == 1:
        (p, e), = fact.items()
        if p == 2:
            if e <= 3:
                return _exact_d(FinAbGroup(), -1,
                                "two-power ladder: trivial levels")
            if e == 4:
                return _exact_d(FinAbGroup([2]), -1, "two-power ladder")
            # the ladder order is 2^(2^(e-1) - 1 - e(e-1)/2), whose exponent
            # is 5 at e = 5 and grows with e: the order is even
            return DGroupFact(parity_odd=False,
                              source="two-power ladder orders")
        # odd prime power: a p-group, so odd order
        return DGroupFact(parity_odd=True,
                          source="kernel group of a p-group is a p-group")
    return None


def d_divisibility_bound(m):
    """prod over composite divisors d of m of odd(|vtilde(d)|): a divisor of
    the order of the difference set of the kernel group."""
    m = int(m)
    if not squarefree(m):
        raise UnsupportedModulusError(f"m = {m} must be square-free")
    total = 1
    for d in divisors(m):
        if d <= 2 or isprime(d):
            continue
        total *= odd_part(vtilde(d).order)
    return total


# ---------------------------------------------------------------------------
# the class groups at the divisors of m


def _class_part(d, compute):
    """Knowledge about the ideal class group at one divisor.  An exact part
    is all in the minus part, so its involution is negation."""
    d = int(d)
    if d <= 2 or hminus_is_one(d):
        return Knowledge.exact(
            FinAbGroup(), "class number one" if d > 2 else "rational field")
    group = known_class_group(d)
    if group is not None:
        return Knowledge.exact(
            group, "published class group, all of it in the minus part")
    if compute:
        return Knowledge.bound(odd_part(hminus(d)),
                               "odd part of the computed minus class number")
    return Knowledge.unknown(source="class group structure not stored")


def _class_parts(m, compute):
    """(d, Knowledge) of the class group at each divisor d > 1 of m."""
    return [(d, _class_part(d, compute)) for d in divisors(m) if d > 1]


def _class_sum(parts):
    """The direct sum of the groups of exact class parts."""
    return FinAbGroup.from_cyclic_factors(
        d for _, part in parts for d in part.group.invariant_factors)


# ---------------------------------------------------------------------------
# the Tate group of the class group


def _a2_constraint(m):
    fact = factorint(int(m))
    if len(fact) == 1 and 2 in fact:
        e = fact[2]
        return (f"order(A_{2 ** e}) * order(A_{2 ** (e + 1)}) >= "
                f"2^(2^{e - 2} - 1); same with e-1 in place of e")
    return None


def a_m(m, compute=False):
    """Tate cohomology (degree one) of the reduced projective class group.

    Branches: trivial when both the class number and the kernel-group
    order are odd; computed from the kernel group alone when the class
    number is odd; from the class groups alone when the kernel group has
    odd order; unknown (with any applicable order constraints) otherwise.
    """
    m = int(m)
    if m < 2:
        raise ScopeError(f"m = {m}: the cyclic order must be at least 2")
    h_odd = h_is_odd(m, compute)
    d_fact = stored_d_group(m)
    d_parity = d_fact.parity_odd if d_fact is not None else None

    if h_odd and d_parity:
        return Knowledge.exact(
            FinAbGroup(), "odd class number and odd kernel group")
    if h_odd and d_fact is not None and d_fact.group is not None:
        # Tate cohomology of C2 is killed by 2: the odd part adds nothing,
        # and a group under +-id has its 2-torsion as its Tate group
        return Knowledge.exact(
            d_fact.group.two_torsion(),
            "odd class number; Tate group of the stored kernel group")
    if d_parity:
        parts = _class_parts(m, compute)
        if all(part.status == "exact" for _, part in parts):
            return Knowledge.exact(
                _class_sum(parts).two_torsion(),
                "odd kernel group; Tate groups of the stored class groups")
    return Knowledge.unknown(constraint=_a2_constraint(m),
                             source="kernel group or class group not pinned")


# ---------------------------------------------------------------------------
# the Whitehead-group structure over the circle


class WhStructure(Record):
    """The involutive structure of the Whitehead group of the product of
    the infinite cyclic group with a cyclic group, in even degrees."""

    __slots__ = ("m", "n", "free_rank", "nk1_zero", "j_group", "i_group",
                 "tate_group")

    def __init__(self, m, n, free_rank, nk1_zero, j_group, i_group,
                 tate_group):
        super().__init__(m, n, free_rank, nk1_zero, j_group, i_group,
                         tate_group)

    def to_dict(self):
        return {
            "m": self.m,
            "n": self.n,
            "free_rank": self.free_rank,
            "nk1_zero": self.nk1_zero,
            "j_group": self.j_group.to_dict(),
            "i_group": self.i_group.to_dict(),
            "tate_group": self.tate_group.to_dict(),
        }


def _exact_k0_module(m, parts):
    """(group, sign, source) of the class group at m, its involution
    sign * id, when fully pinned down, else None; ``parts`` are the class
    parts at the divisors of m."""
    d_fact = stored_d_group(m)
    if d_fact is None or d_fact.group is None:
        return None
    if hminus_is_one(m):
        # class-number one: the class group collapses onto the kernel group
        return d_fact.group, d_fact.sign, "kernel group (class number one)"
    if d_fact.group.is_trivial() and \
            all(part.status == "exact" for _, part in parts):
        # every exact class part is a published class group under negation
        # or the trivial group, so their sum is one negation module
        return (_class_sum(parts), -1,
                "sum of the stored class groups (vanishing kernel group)")
    return None


def _j_and_i(group, sign):
    """J = {x : xbar = -x} and I = {x - xbar} under the involution
    sign * id: G and 2G under negation, the 2-torsion and 0 under the
    identity."""
    if sign == -1:
        return group, FinAbGroup([d if d % 2 else d // 2
                                  for d in group.invariant_factors if d > 2])
    return group.two_torsion(), FinAbGroup()


def _difference_witness(m, compute, parts):
    """A proven divisor of the order of the difference set of the class
    group at square-free m, multiplying the class-number and kernel-group
    channels; ``parts`` are the class parts at the divisors of m."""
    notes = []
    total = 1
    for d, part in parts:
        if part.status == "bound":
            total *= part.divisor
            notes.append(f"odd part of the minus class number at {d}")
        elif part.status == "unknown":
            notes.append(f"minus class number parity at {d} not stored")
    try:
        total *= d_divisibility_bound(m) if compute else 1
    except UnsupportedModulusError:
        notes.append("kernel-group channel skipped: unsupported divisor")
    return total, "; ".join(notes) if notes else "stored classifications"


def wh_structure(n, m, compute=False):
    """The even-degree structure: the antisymmetric set, the difference
    set, and the Tate group, each exact, bounded, or infinite, at any n."""
    n, m = int(n), int(m)
    if n % 2:
        raise ScopeError("only even degrees are in scope")
    if m < 2:
        raise ScopeError("the cyclic order must be at least 2")
    return WhStructure(m, n, *_wh_fields(m, bool(compute)))


@lru_cache(maxsize=None)
def _wh_fields(m, compute):
    """(free_rank, nk1_zero, j_group, i_group, tate_group) at m: the one
    cache of this layer, shared by every degree and every later query."""
    rank = wh_rank(m)
    tate_knowledge = a_m(m, compute)

    if not nk1_vanishes(m):
        infinite = Knowledge.infinite(
            "nonvanishing Nil summand (m is not square-free)")
        return rank, False, infinite, infinite, tate_knowledge

    parts = _class_parts(m, compute)
    pinned = _exact_k0_module(m, parts)
    if pinned is not None:
        group, sign, source = pinned
        j, i = _j_and_i(group, sign)
        return (rank, True, Knowledge.exact(j, source),
                Knowledge.exact(i, source), tate_knowledge)

    bound = Knowledge.bound(*_difference_witness(m, compute, parts))
    return rank, True, bound, bound, tate_knowledge
