"""Assembly of the involutive K-theory data for cyclic groups.

This layer combines the exact residue-ring and class-number computations
with the published structural facts (kernel groups, class groups with known
involution, parity tables) into tri-state knowledge: a group is reported as
exactly known, bounded by a divisibility witness, infinite, or unknown.
Nothing is ever silently coerced to a number the sources do not support.
"""

from __future__ import annotations

from functools import lru_cache

from .abelian import FinAbGroup
from .arith import divisors, factorint, isprime
from .involutive import InvModule, Sign, eigen_set, norm_image_set, tate
from . import classnumber
from .classnumber import hminus, hp_is_odd, odd_part
from .record import Record
from .residue import UnsupportedModulusError, vtilde


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
#: at each level: building the module and its Tate group takes about 0.02 s
#: at N = 9, 0.07 s at N = 10 and 0.3 s at N = 11 in-process, and
#: `cycloclass tate --km 9 --degree 1` answers in 0.2 s cold, on a 2-core
#: x86-64 host (Python 3.11).  The value stays 9, so no level changes its
#: exit code.
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
    a proven divisor of the order.
    """

    __slots__ = ("status", "group", "module", "divisor", "constraint",
                 "source")

    def __init__(self, status, group=None, module=None, divisor=None,
                 constraint=None, source=""):
        super().__init__(status, group, module, divisor, constraint, source)

    @classmethod
    def exact(cls, group, source, module=None):
        return cls(status="exact", group=group, module=module, source=source)

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

    @property
    def order(self):
        return self.group.order if self.group is not None else None

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

    ``kind`` is "exact" or "order"; ``two_exponent`` gives a known order
    2^two_exponent.
    """

    __slots__ = ("kind", "module", "two_exponent", "parity_odd", "source")

    def __init__(self, kind, module=None, two_exponent=None, parity_odd=None,
                 source=""):
        super().__init__(kind, module, two_exponent, parity_odd, source)

    @property
    def order(self):
        """The order when known, computed only when read."""
        if self.module is not None:
            return self.module.order
        if self.two_exponent is not None:
            return 2 ** self.two_exponent
        return None


def _exact_d(invariants, involution, source):
    group = FinAbGroup.from_cyclic_factors(invariants)
    if involution == "trivial":
        module = InvModule.with_trivial(group)
    elif involution == "negation":
        module = InvModule.with_negation(group)
    else:
        raise ValueError(involution)
    return DGroupFact(kind="exact", module=module,
                      parity_odd=group.order % 2 == 1, source=source)


#: the kernel-group ladder over powers of two has computable orders; the
#: group structure is only pinned up to level 16
def _two_power_d_exponent(e):
    """log2 of the ladder order at 2^e: the sum over 2 <= k <= e of
    log2 |km_v_module(k - 1)| = 2^(k-2) - (k-1), in closed form."""
    return 2 ** (e - 1) - 1 - e * (e - 1) // 2


@lru_cache(maxsize=None)
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
        return DGroupFact(kind="exact",
                          module=InvModule.with_trivial(FinAbGroup()),
                          parity_odd=True,
                          source="kernel group of a prime vanishes")
    if m in (6, 10, 14):
        return DGroupFact(kind="exact",
                          module=InvModule.with_trivial(FinAbGroup()),
                          parity_odd=True,
                          source="published vanishing list")
    if m == 15:
        return _exact_d([2], "trivial", "published: order 2, trivial action")
    if m == 21:
        return _exact_d([4], "negation",
                        "published: order 4; negation forced by the unit "
                        "cokernel having nontrivial double")
    fact = factorint(m)
    if len(fact) == 1:
        (p, e), = fact.items()
        if p == 2:
            if e <= 3:
                return DGroupFact(kind="exact",
                                  module=InvModule.with_trivial(FinAbGroup()),
                                  parity_odd=True,
                                  source="two-power ladder: trivial levels")
            if e == 4:
                return _exact_d([2], "negation", "two-power ladder")
            exponent = _two_power_d_exponent(e)
            return DGroupFact(kind="order", two_exponent=exponent,
                              parity_odd=exponent == 0,
                              source="two-power ladder orders")
        # odd prime power: a p-group, so odd order
        return DGroupFact(kind="order", parity_odd=True,
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
# per-m description of the reduced projective class group


class K0Description(Record):
    """Tri-state description of the class-group data entering K-theory.

    ``h_odd`` is the parity of the class number; ``class_parts`` maps each
    divisor to its Knowledge, a fresh empty dict when not given.
    """

    __slots__ = ("m", "h_minus_is_one", "h_odd", "d_fact", "class_parts")

    def __init__(self, m, h_minus_is_one, h_odd, d_fact, class_parts=None):
        super().__init__(m, h_minus_is_one, h_odd, d_fact,
                         {} if class_parts is None else class_parts)

    def all_class_parts_exact(self):
        return all(k.status == "exact" for k in self.class_parts.values())


def _h_parity(m, compute):
    """Parity of h_m (equal to the parity of the minus part)."""
    m = int(m)
    if classnumber.hminus_is_one(m):
        return True
    if m in classnumber.ODD_HMINUS_ONE:
        return False           # minus part a nontrivial power of two
    fact = factorint(classnumber._normalize_modulus(m))
    if len(fact) == 1:
        (p, e), = fact.items()
        if p <= 509:
            return hp_is_odd(p)
    if compute:
        return hminus(m) % 2 == 1
    return None


def _class_part(d, compute):
    """Knowledge about the ideal class group at one divisor, with involution."""
    d = int(d)
    if d <= 2 or classnumber.hminus_is_one(d):
        module = InvModule.with_trivial(FinAbGroup())
        return Knowledge.exact(
            module.group, "class number one" if d > 2 else "rational field",
            module=module)
    rec = classnumber.class_record(d, compute=False)
    if rec.known_class_group is not None and rec.known_plus_trivial:
        module = InvModule.with_negation(rec.known_class_group)
        return Knowledge.exact(
            module.group, "published class group, all of it in the minus part",
            module=module)
    if compute:
        return Knowledge.bound(odd_part(hminus(d)),
                               "odd part of the computed minus class number")
    return Knowledge.unknown(source="class group structure not stored")


@lru_cache(maxsize=None)
def k0_description(m, compute=False):
    m = int(m)
    return K0Description(
        m=m,
        h_minus_is_one=classnumber.hminus_is_one(m),
        h_odd=_h_parity(m, compute),
        d_fact=stored_d_group(m),
        class_parts={d: _class_part(d, compute) for d in divisors(m)
                     if d > 1},
    )


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
    if int(m) < 2:
        raise ScopeError(f"m = {m}: the cyclic order must be at least 2")
    return _a_m_cached(int(m), bool(compute))


@lru_cache(maxsize=None)
def _a_m_cached(m, compute):
    data = k0_description(m, compute=compute)
    d_fact = data.d_fact
    d_parity = d_fact.parity_odd if d_fact is not None else None

    if data.h_odd and d_parity:
        return Knowledge.exact(
            FinAbGroup(), "odd class number and odd kernel group")
    if data.h_odd and d_fact is not None and d_fact.kind == "exact":
        # Tate cohomology of C2 is killed by 2: the odd part adds nothing
        return Knowledge.exact(
            tate(d_fact.module, 1),
            "odd class number; Tate group of the stored kernel group",
            module=None)
    if d_parity and data.all_class_parts_exact():
        pieces = []
        for d, part in sorted(data.class_parts.items()):
            pieces.extend(tate(part.module, 1).invariant_factors)
        return Knowledge.exact(
            FinAbGroup.from_cyclic_factors(pieces),
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


def _exact_k0_module(data):
    """The class group as an involutive module, when fully pinned down."""
    if data.h_minus_is_one and data.d_fact is not None \
            and data.d_fact.kind == "exact":
        # class-number one: the class group collapses onto the kernel group
        return data.d_fact.module, "kernel group (class number one)"
    if data.d_fact is not None and data.d_fact.kind == "exact" \
            and data.d_fact.order == 1 and data.all_class_parts_exact():
        modules = [part.module for _, part in sorted(data.class_parts.items())]
        total = modules[0] if modules else InvModule.with_trivial(FinAbGroup())
        from .involutive import direct_sum as module_sum
        for extra in modules[1:]:
            total = module_sum(total, extra)
        return total, "sum of the stored class groups (vanishing kernel group)"
    return None, None


def _difference_witness(m, compute):
    """A proven divisor of the order of the difference set of the class
    group, multiplying the class-number and kernel-group channels."""
    parts = []
    total = 1
    for d in divisors(m):
        if d == 1:
            continue
        if classnumber.odd_hminus_is_one(d):
            continue
        if compute:
            total *= odd_part(hminus(d))
            parts.append(f"odd part of the minus class number at {d}")
        else:
            parts.append(f"minus class number parity at {d} not stored")
    try:
        dbound = d_divisibility_bound(m) if compute else 1
    except UnsupportedModulusError:
        dbound = 1
        parts.append("kernel-group channel skipped: unsupported divisor")
    total *= dbound
    return total, "; ".join(parts) if parts else "stored classifications"


@lru_cache(maxsize=None)
def wh_structure(n, m, compute=False):
    """The even-degree structure: the antisymmetric set, the difference
    set, and the Tate group, each exact, bounded, or infinite."""
    n, m = int(n), int(m)
    if n % 2:
        raise ScopeError("only even degrees are in scope")
    if m < 2:
        raise ScopeError("the cyclic order must be at least 2")
    rank = wh_rank(m)
    tate_knowledge = a_m(m, compute=compute)

    if not nk1_vanishes(m):
        src = "nonvanishing Nil summand (m is not square-free)"
        return WhStructure(m=m, n=n, free_rank=rank, nk1_zero=False,
                           j_group=Knowledge.infinite(src),
                           i_group=Knowledge.infinite(src),
                           tate_group=tate_knowledge)

    data = k0_description(m, compute=compute)
    module, source = _exact_k0_module(data)
    if module is not None:
        j, _ = eigen_set(module, Sign.MINUS)
        i, _ = norm_image_set(module, Sign.MINUS)
        return WhStructure(m=m, n=n, free_rank=rank, nk1_zero=True,
                           j_group=Knowledge.exact(j, source),
                           i_group=Knowledge.exact(i, source),
                           tate_group=tate_knowledge)

    witness, witness_source = _difference_witness(m, compute)
    j = Knowledge.bound(witness, witness_source)
    i = Knowledge.bound(witness, witness_source)
    return WhStructure(m=m, n=n, free_rank=rank, nk1_zero=True,
                       j_group=j, i_group=i, tate_group=tate_knowledge)
