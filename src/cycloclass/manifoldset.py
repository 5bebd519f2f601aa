"""The headline classifier for the three manifold sets of a circle-lens
product in even dimensions.

For even n = 2k >= 4 and m >= 2 this decides, per set, between trivial,
finite and infinite, and attaches cardinality bounds or divisibility
witnesses.  Verdicts come from the classification theorems (complete
lists over m); the ingredient layer recomputes class numbers, unit
cokernels and Tate groups as an independent verification channel, and any
contradiction between the two is reported, never silently resolved.
"""

from __future__ import annotations

from math import gcd, prod

from .arith import UnsupportedModulusError, factorint
from .classnumber import hminus, known_class_group, odd_part
from .ktheory import (
    ScopeError,
    d_divisibility_bound,
    nk1_vanishes,
    squarefree,
    wh_structure,
)
from .record import Record
from .residue import c_bound, vtilde


#: complete list of m with a single simple homotopy type in the homotopy class
MHS_TRIVIAL = frozenset({2, 3, 5, 6, 7, 10, 11, 13, 14, 17, 19})

#: same for the h-cobordant refinement
MHCOB_TRIVIAL = MHS_TRIVIAL | {15, 29}


def a2k_order(k, m):
    """Order of the realisable automorphism group: 2 m #{c : c^k = +-1}.

    The units c with c^k = 1 number the product over p^e || m of the k-th
    roots of unity mod p^e.  Those with c^k = -1 are a coset of them when
    -1 is a k-th power, which for m > 2 doubles the count.
    """
    k, m = int(k), int(m)
    if k < 1 or m < 2:
        raise ValueError("need k >= 1 and m >= 2")
    roots, minus_one_is_power = 1, True
    for p, e in factorint(m).items():
        if p == 2:
            # (Z/2^e)^x is <-1> x <5> for e >= 3 and <-1> for e = 2, so -1
            # is a k-th power iff k is odd (or e = 1, where -1 = 1)
            cyclic = (2, 2 ** (e - 2)) if e >= 3 else (2 ** (e - 1),)
            minus_one_is_power &= e == 1 or k % 2 == 1
        else:
            # cyclic of order phi; -1 = g^(phi/2) is a k-th power iff
            # gcd(k, phi) divides phi/2
            phi = (p - 1) * p ** (e - 1)
            cyclic = (phi,)
            minus_one_is_power &= (phi // 2) % gcd(k, phi) == 0
        roots *= prod(gcd(k, d) for d in cyclic)
    count = 2 * roots if m > 2 and minus_one_is_power else roots
    return 2 * m * count


class SetVerdict(Record):
    """Verdict for one manifold set, with optional cardinality data.

    ``verdict`` is "trivial", "finite" or "infinite"; ``lower`` and
    ``upper`` bound the cardinality when present, and ``witness`` divides
    the order of the controlling group.
    """

    __slots__ = ("verdict", "lower", "upper", "witness", "note")

    def __init__(self, verdict, lower=None, upper=None, witness=None,
                 note=""):
        super().__init__(verdict, lower, upper, witness, note)

    def to_dict(self):
        out = {"verdict": self.verdict}
        if self.lower is not None:
            out["lower"] = self.lower
        if self.upper is not None:
            out["upper"] = self.upper
        if self.witness is not None:
            out["witness"] = self.witness
        if self.note:
            out["note"] = self.note
        return out


class ManifoldSetReport(Record):
    """The verdicts for the three manifold sets at (n = 2k, m)."""

    __slots__ = ("n", "k", "m", "mhs", "mhcob", "mhs_hcob", "a2k_order",
                 "ingredients", "provenance")

    def __init__(self, n, k, m, mhs, mhcob, mhs_hcob, a2k_order, ingredients,
                 provenance):
        super().__init__(n, k, m, mhs, mhcob, mhs_hcob, a2k_order, ingredients,
                         provenance)

    def to_json_dict(self):
        return {
            "n": self.n,
            "m": self.m,
            "mhs": self.mhs.to_dict(),
            "mhcob": self.mhcob.to_dict(),
            "mhs_hcob": self.mhs_hcob.to_dict(),
            "a2k_order": self.a2k_order,
            "ingredients": self.ingredients.to_dict(),
            "provenance": self.provenance,
        }


def _check_degree(n):
    n = int(n)
    if n % 2 or n < 4:
        raise ScopeError(f"n = {n}: only even n >= 4 is classified")
    return n


def _check_scope(n, m):
    n, m = _check_degree(n), int(m)
    if m < 2:
        raise ScopeError(f"m = {m}: the cyclic order must be at least 2")
    return n, m


def _sandwich(order, m, note=""):
    """Bounds (strict lower / inclusive upper) from an exact group order."""
    if order == 1:
        return SetVerdict("trivial", lower=1, upper=1, note=note)
    lower = max(2, order // (2 * m * m) + 1)
    return SetVerdict("finite", lower=lower, upper=order, note=note)


def _finite_verdict(knowledge, m, trivial_by_rule):
    """Verdict for one of the first two sets on square-free m."""
    if trivial_by_rule:
        return SetVerdict("trivial", lower=1, upper=1)
    if knowledge.status == "exact":
        if knowledge.group.order == 1:
            # the rule says nontrivial; never let ingredient data silently
            # override it (verify() will surface the contradiction)
            return SetVerdict("finite", lower=2,
                              note="rule and ingredient data disagree")
        return _sandwich(knowledge.group.order, m)
    witness = knowledge.divisor if knowledge.status == "bound" else None
    return SetVerdict("finite", lower=2, witness=witness,
                      note="size bounded by divisibility only")


def classify(n, m, deep=False):
    """Rule-derived verdicts for the three manifold sets at (n, m).

    With deep=True the ingredient layer recomputes the analytic inputs,
    and the provenance records whether they agree: "ingredient-verified"
    means no check of verify() is inconsistent; some may be "no-data".
    """
    n, m = _check_scope(n, m)
    k = n // 2
    ingredients = wh_structure(n, m, compute=deep)

    if not squarefree(m):
        mhs = SetVerdict("infinite")
        mhcob = SetVerdict("infinite")
    else:
        mhs = _finite_verdict(ingredients.j_group, m, m in MHS_TRIVIAL)
        mhcob = _finite_verdict(ingredients.i_group, m, m in MHCOB_TRIVIAL)

    tate_knowledge = ingredients.tate_group
    if tate_knowledge.status == "exact":
        mhs_hcob = _sandwich(tate_knowledge.group.order, m)
    else:
        mhs_hcob = SetVerdict("finite",
                              note="finite for every m; size not pinned down"
                              + (f"; {tate_knowledge.constraint}"
                                 if tate_knowledge.constraint else ""))

    provenance = "rule-derived"
    if deep:
        record = _verify(n, m, ingredients)
        provenance = "ingredient-verified" if record.consistent else "inconsistent"

    return ManifoldSetReport(n=n, k=k, m=m, mhs=mhs, mhcob=mhcob,
                             mhs_hcob=mhs_hcob, a2k_order=a2k_order(k, m),
                             ingredients=ingredients, provenance=provenance)


# ---------------------------------------------------------------------------
# the independent verification channel


class ConsistencyRecord(Record):
    """The outcome of verify(n, m): each check as a tuple of
    (key, value) pairs."""

    __slots__ = ("n", "m", "consistent", "checks")

    def __init__(self, n, m, consistent, checks):
        super().__init__(n, m, consistent, checks)

    def to_dict(self):
        return {"n": self.n, "m": self.m, "consistent": self.consistent,
                "checks": [dict(c) for c in self.checks]}


def _i_witness(m):
    """odd(h_m^-) * prod of odd unit-cokernel orders: divides |I|."""
    witness = odd_part(hminus(m))
    try:
        witness *= d_divisibility_bound(m)
    except UnsupportedModulusError:
        return witness, "kernel-group channel unsupported for this m"
    return witness, None


def verify(n, m):
    """Recompute the ingredients behind classify(n, m) and cross-check.

    Contradictions are reported as inconsistent checks, never resolved
    silently.  A missing stored fact or witness makes a check "no-data".
    An h^- above HMINUS_PHI_CEILING, at m or at a divisor, raises
    UnsupportedModulusError instead where it is read: always at a
    square-free m, elsewhere only when the branch of a_m reads it.
    """
    n, m = _check_scope(n, m)
    return _verify(n, m, wh_structure(n, m, compute=True))


def _verify(n, m, w):
    """verify(n, m) against w, the computed (deep) ingredients at m."""
    checks = []

    def add(name, status, detail):
        checks.append((("name", name), ("status", status), ("detail", detail)))

    sf = squarefree(m)
    add("squarefree-vs-infinite", "confirmed" if sf == nk1_vanishes(m)
        else "inconsistent",
        f"square-free = {sf}, Nil summand vanishes = {nk1_vanishes(m)}")

    k = n // 2
    a2k = a2k_order(k, m)
    add("automorphism-order-bound",
        "confirmed" if a2k < 2 * m * m else "inconsistent",
        f"|A_{n}({m})| = {a2k} < {2 * m * m}")

    if sf:
        h = hminus(m)
        witness, note = _i_witness(m)
        # first set: triviality must match the vanishing of J
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
        else:
            if w.j_group.status == "exact":
                status = "confirmed" if not w.j_group.group.is_trivial() \
                    else "inconsistent"
                add("set1-nontrivial-witness", status,
                    f"exact J = {w.j_group.group}")
            elif odd_part(h) > 1:
                add("set1-nontrivial-witness", "confirmed",
                    f"odd(h^-) = {odd_part(h)} > 1 forces J != 0")
            else:
                add("set1-nontrivial-witness",
                    "confirmed" if witness > 1 else "no-data",
                    f"divisibility witness {witness}"
                    + (f" ({note})" if note else ""))

        # second set against I
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
        else:
            if w.i_group.status == "exact":
                status = "confirmed" if not w.i_group.group.is_trivial() \
                    else "inconsistent"
                add("set2-nontrivial-witness", status,
                    f"exact I = {w.i_group.group}")
            elif witness > 1:
                add("set2-nontrivial-witness", "confirmed",
                    f"divisibility witness {witness} > 1"
                    + (f" ({note})" if note else ""))
            else:
                group = known_class_group(m)
                if group is not None and any(
                        d % 4 == 0 for d in group.invariant_factors):
                    # the involution is negation, so doubling the stored
                    # class group lands inside the difference set
                    add("set2-nontrivial-witness", "confirmed",
                        "the stored class group has nontrivial double")
                else:
                    add("set2-nontrivial-witness", "no-data",
                        "no stored witness channel applies")

        # the divisibility invariant where I is exact
        if w.i_group.status == "exact":
            order = w.i_group.group.order
            add("i-order-divisibility",
                "confirmed" if order % witness == 0 else "inconsistent",
                f"witness {witness} vs |I| = {order}"
                + (f" ({note})" if note else ""))

        # recompute the published divisor bound against the unit cokernel
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

    # third set: always finite; cross-check the Tate group when exact
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
    return ConsistencyRecord(n=n, m=m, consistent=consistent,
                             checks=tuple(checks))


def sweep(n, m_values, deep=False):
    """classify() across a range of m, deterministically ordered.

    An n out of scope raises ScopeError before any m.  Per-m scope errors,
    an unsupported modulus among them, are (m, error) entries instead.
    """
    _check_degree(n)
    reports = []
    for m in sorted(set(int(v) for v in m_values)):
        try:
            reports.append(classify(n, m, deep=deep))
        except (ScopeError, UnsupportedModulusError) as err:
            reports.append((m, err))
    return reports
