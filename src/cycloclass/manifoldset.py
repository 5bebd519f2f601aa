"""The headline classifier for the three manifold sets of a circle-lens
product in even dimensions.

For even n = 2k >= 4 and m >= 2 this decides, per set, between trivial,
finite and infinite, and attaches cardinality bounds or divisibility
witnesses.  Verdicts come from the classification theorems (complete
lists over m); the ingredient layer recomputes class numbers, unit
cokernels and Tate groups as an independent verification channel, and any
contradiction between the two is reported, never silently resolved.
"""

from functools import lru_cache
from math import gcd

from .arith import UnsupportedModulusError, modulus
from .classnumber import hminus, known_class_group, odd_part
from .ktheory import (
    ScopeError,
    WhStructure,
    kernel_channel,
    squarefree,
    wh_fields,
)
from .record import Record
from .residue import c_bound, vtilde


#: complete list of m with a single simple homotopy type in the homotopy class
MHS_TRIVIAL = frozenset({2, 3, 5, 6, 7, 10, 11, 13, 14, 17, 19})

#: same for the h-cobordant refinement
MHCOB_TRIVIAL = MHS_TRIVIAL | {15, 29}


def a2k_order(k, m):
    """Order of the realisable automorphism group: 2 m #{c : c^k = +-1}.

    The units with c^k = 1 number gcd(k, o) per cyclic factor Z/o of
    (Z/m)^x (``modulus(m).orders``); for m > 2 those with c^k = -1 double
    that when -1, of order 2 in the first factor at each p^e || m, is a
    k-th power: iff gcd(k, o) | o/2 for all o (at 2^e the Z/2 asks k odd).
    """
    k, m = int(k), int(m)
    if k < 1 or m < 2:
        raise ValueError("need k >= 1 and m >= 2")
    count, minus = 1, m > 2
    for o in modulus(m).orders:
        g = gcd(k, o)
        count *= g
        minus = minus and o // 2 % g == 0
    return 4 * m * count if minus else 2 * m * count


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


def _sandwich(order, m):
    """Bounds (strict lower / inclusive upper) from an exact group order."""
    if order == 1:
        return SetVerdict("trivial", lower=1, upper=1)
    lower = max(2, order // (2 * m * m) + 1)
    return SetVerdict("finite", lower=lower, upper=order)


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


def _verdicts(m, nk1_zero, j_group, i_group, tate_group):
    """(mhs, mhcob, mhs_hcob) at m from the Whitehead-group fields, which
    read no degree."""
    if not nk1_zero:
        mhs = mhcob = SetVerdict("infinite")
    else:
        mhs = _finite_verdict(j_group, m, m in MHS_TRIVIAL)
        mhcob = _finite_verdict(i_group, m, m in MHCOB_TRIVIAL)
    if tate_group.status == "exact":
        mhs_hcob = _sandwich(tate_group.group.order, m)
    else:
        mhs_hcob = SetVerdict("finite",
                              note="finite for every m; size not pinned down"
                              + (f"; {tate_group.constraint}"
                                 if tate_group.constraint else ""))
    return mhs, mhcob, mhs_hcob


def classify(n, m, deep=False):
    """Rule-derived verdicts for the three manifold sets at (n, m).

    With deep=True the ingredient layer recomputes the analytic inputs,
    and the provenance records whether they agree: "ingredient-verified"
    means no check of verify() is inconsistent; some may be "no-data".
    The ingredients, the verdicts and the checks that read no degree come
    from the one description of m (``_described``), built once and shared
    by every even n; a deep call builds only the structure at n and
    a2k_order, whose bound decides the provenance with the stored
    consistency of the other checks.  That bound, a2k < 2m^2, holds by
    definition (see verify), so the provenance reads only the stored
    consistency in effect.  A non-deep call builds the verdicts from the
    fields with the same helper, ``_verdicts``, at each call.
    """
    n, m = _check_scope(n, m)
    k = n // 2
    a2k = a2k_order(k, m)
    if deep:
        fields, verdicts, _, consistent = _described(m, True)
        provenance = "ingredient-verified" \
            if consistent and a2k < 2 * m * m else "inconsistent"
    else:
        fields = _described(m, False)
        verdicts = _verdicts(m, *fields[1:])
        provenance = "rule-derived"
    return ManifoldSetReport(n, k, m, *verdicts, a2k,
                             WhStructure(m, n, *fields), provenance)


# ---------------------------------------------------------------------------
# the independent verification channel


class ConsistencyRecord(Record):
    """The outcome of verify(n, m): each check as a tuple of
    (key, value) pairs."""

    __slots__ = ("n", "m", "consistent", "checks")

    def to_dict(self):
        return {"n": self.n, "m": self.m, "consistent": self.consistent,
                "checks": [dict(c) for c in self.checks]}


def _i_witness(m, channel):
    """odd(h_m^-) * prod of odd unit-cokernel orders (channel): divides |I|."""
    witness = odd_part(hminus(m))
    if channel is None:
        return witness, "kernel-group channel unsupported for this m"
    return witness * channel, None


def verify(n, m):
    """Recompute the ingredients behind classify(n, m) and cross-check.

    Contradictions are reported as inconsistent checks, never resolved
    silently.  A missing stored fact or witness makes a check "no-data".
    The check "squarefree-vs-infinite" is definitional, not independent:
    the Nil summand vanishes exactly at the square-free m, and
    ``nk1_vanishes`` is ``squarefree``, so it is always confirmed.  The
    check "automorphism-order-bound" is definitional too: a2k_order(k, m)
    = 2m #{c : c^k = +-1} <= 2m phi(m) < 2m^2 for every k >= 1 and
    m >= 2, so it is always confirmed.
    An h^- above HMINUS_PHI_CEILING, at m or at a divisor, raises
    UnsupportedModulusError instead where it is read: always at a
    square-free m, elsewhere only when the branch of a_m reads it.
    Only "automorphism-order-bound" reads n: every other check runs once
    per m, in the description shared with classify(deep=True) at every
    even n.
    """
    n, m = _check_scope(n, m)
    _, _, checks, consistent = _described(m, True)
    return _record(n, m, a2k_order(n // 2, m), checks, consistent)


@lru_cache(maxsize=None)
def _described(m, deep):
    """The description of m, the one cache of this layer, shared by
    classify and verify at every even n.  When deep it is (fields,
    verdicts, checks, consistent): the five Whitehead-group fields, the
    three verdicts that ``_verdicts`` builds from them, the checks of
    verify that read no degree, and whether none of them is inconsistent.
    Without deep it is the fields tuple itself, so a long non-deep sweep
    holds no more than the fields, and classify builds the verdicts at
    each call.  The witnesses of the fields and of the checks share a
    kernel channel."""
    if not deep:
        return wh_fields(m, False)
    channels = {}

    def kernel(m):
        if m not in channels:
            channels[m] = kernel_channel(m)
        return channels[m]

    fields = wh_fields(m, True, kernel)
    checks = _degree_free_checks(m, kernel, *fields[1:])
    return (fields, _verdicts(m, *fields[1:]), checks,
            all(dict(c)["status"] != "inconsistent" for c in checks))


def _record(n, m, a2k, checks, consistent):
    """verify(n, m) from the degree-free checks at m and a2k_order at n,
    whose bound check goes second."""
    bounded = a2k < 2 * m * m
    bound = (("name", "automorphism-order-bound"),
             ("status", "confirmed" if bounded else "inconsistent"),
             ("detail", f"|A_{n}({m})| = {a2k} < {2 * m * m}"))
    return ConsistencyRecord(n, m, consistent and bounded,
                             (checks[0], bound, *checks[1:]))


def _degree_free_checks(m, kernel, nk1_zero, j_group, i_group,
                        tate_group):
    """Every check of verify at m but the automorphism-order bound,
    against the computed (deep) ingredients at m."""
    checks = []

    def add(name, status, detail):
        checks.append((("name", name), ("status", status), ("detail", detail)))

    sf = squarefree(m)
    add("squarefree-vs-infinite", "confirmed" if sf == nk1_zero
        else "inconsistent",
        f"square-free = {sf}, Nil summand vanishes = {nk1_zero}")

    if sf:
        h = hminus(m)
        witness, note = _i_witness(m, kernel(m))
        # first set: triviality must match the vanishing of J
        if m in MHS_TRIVIAL:
            if j_group.status == "exact" and j_group.group.is_trivial() \
                    and h == 1:
                add("set1-trivial-support", "confirmed",
                    "class number one and vanishing kernel group force J = 0")
            elif j_group.status == "exact":
                add("set1-trivial-support", "inconsistent",
                    f"listed trivial but J = {j_group.group}")
            else:
                add("set1-trivial-support", "no-data",
                    "J not exactly computable from stored facts")
        else:
            if j_group.status == "exact":
                status = "confirmed" if not j_group.group.is_trivial() \
                    else "inconsistent"
                add("set1-nontrivial-witness", status,
                    f"exact J = {j_group.group}")
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
            if i_group.status == "exact" and i_group.group.is_trivial():
                add("set2-trivial-support", "confirmed",
                    "stored data gives I = 0 exactly")
            elif i_group.status == "exact":
                add("set2-trivial-support", "inconsistent",
                    f"listed trivial but I = {i_group.group}")
            else:
                add("set2-trivial-support", "no-data",
                    "I not exactly computable from stored facts")
        else:
            if i_group.status == "exact":
                status = "confirmed" if not i_group.group.is_trivial() \
                    else "inconsistent"
                add("set2-nontrivial-witness", status,
                    f"exact I = {i_group.group}")
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
        if i_group.status == "exact":
            order = i_group.group.order
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
    if tate_group.status == "exact":
        group = tate_group.group
        elementary = all(d == 2 for d in group.invariant_factors)
        add("tate-elementary", "confirmed" if elementary else "inconsistent",
            f"H = {group}")
        if sf and j_group.status == "exact" and i_group.status == "exact":
            expected = j_group.group.order // i_group.group.order
            add("tate-vs-j-i", "confirmed" if group.order == expected
                else "inconsistent",
                f"|H| = {group.order}, |J|/|I| = {expected}")
    else:
        add("tate-elementary", "no-data", "Tate group not exactly known")

    return tuple(checks)


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
