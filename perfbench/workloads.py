"""The three workloads: their query populations and the seeded samples.

A query is a JSON list: ``[kind, *args]`` for the in-process workloads
(see worker._evaluate) and a ``cycloclass`` argv for cli-cold.  The
population of each workload is fixed; the seed only picks the sample and
its order.  hminus-range samples by strata of the per-query times
measured at the reference commit (stored next to the answers in
expected/), so that every seed gets the same mix of cheap and costly
queries and the spread from seed to seed stays small.  See README.md for
why each workload exists.
"""

import json
import random
from pathlib import Path

EXPECTED = Path(__file__).resolve().parent / "expected"

WORKLOADS = ("cli-cold", "hminus-range", "paper-tables")

# Far from every per-query time measured at the reference commit, so that no
# query misses it at that commit (see README.md).
DEADLINE_S = {"cli-cold": 30.0, "hminus-range": 30.0, "paper-tables": 30.0}

# Workloads whose worker empties the program's lru_caches before each
# query: an hminus-range query then costs what its modulus costs, whatever
# the seed put before it, as when its reference time was stored.
COLD = ("hminus-range",)

# Untraced passes per run.  Every query's latency is its median over the
# passes, so the count is fixed: two commits compared take the median over
# the same number of samples, however fast each is.  The passes of a run
# take 16-21 s at the reference commit.
PASSES = {"cli-cold": 1, "hminus-range": 3, "paper-tables": 2}

# Functions each workload calls directly: a traced run that records no
# call to one of them has missed calls, and fails.
ENTRY = {
    "cli-cold": ("cli.run",),
    "hminus-range": ("classnumber.hminus",),
    "paper-tables": ("residue.c_bound", "residue.vtilde",
                     "classnumber.hminus", "involutive.tate",
                     "manifoldset.sweep", "manifoldset.verify"),
}

# Functions each workload reaches at the reference commit; one that records no
# calls is listed in the run record as not reached.
REACHED = {
    "cli-cold": ENTRY["cli-cold"],
    "hminus-range": ("classnumber.hminus", "classnumber.characters",
                     "abelian.IntMatrix.det"),
    "paper-tables": ENTRY["paper-tables"] + (
        "manifoldset.classify", "ktheory.wh_structure", "ktheory.a_m",
        "ktheory.d_divisibility_bound", "involutive.eigen_set",
        "involutive.norm_image_set", "classnumber.characters",
        "residue.residue_units", "residue.lambda_units",
        "residue.unit_quotient", "residue.psi_plus_presentation",
        "residue.FactorField.dlog", "abelian.snf", "abelian.cokernel",
        "abelian.kernel", "abelian.subgroup_generated",
        "abelian.IntMatrix.det"),
}


def _factor(n):
    out, p = [], 2
    while p * p <= n:
        while n % p == 0:
            out.append(p)
            n //= p
        p += 1
    return out + ([n] if n > 1 else [])


def unit_reduction_moduli(low, high):
    """Square-free m = pq, 2p or 2pq: where vtilde is implemented."""
    out = []
    for m in range(low, high + 1):
        f = _factor(m)
        odd = [p for p in f if p != 2]
        if len(set(f)) != len(f):
            continue
        if (len(odd) == 2 and 2 not in f) or (len(odd) in (1, 2) and 2 in f
                                              and len(f) > 1):
            out.append(m)
    return out


def c_bound_supported(m):
    return m == 30 or len(_factor(m)) == 2


# -- populations -------------------------------------------------------------

CLI_FAMILIES = {
    "hminus": [["hminus", "--m", str(m)] for m in range(2, 121)],
    "cbound": [["cbound", "--m", str(m)]
               for m in unit_reduction_moduli(6, 100) if c_bound_supported(m)],
    "vtilde": [["vtilde", "--m", str(m)]
               for m in unit_reduction_moduli(6, 60)],
    "am": [["am", "--m", str(m)] for m in range(2, 61)],
    "a2k": [["a2k", "--k", str(k), "--m", str(m)]
            for k in range(1, 5) for m in range(2, 101)],
    "tate": [["tate", "--km", str(n), "--degree", str(d)]
             for n in range(3, 8) for d in (0, 1)],
    "classify": [["classify", "--n", str(n), "--m", str(m)]
                 for n in (4, 6, 8) for m in range(2, 101)],
    "verify": [["verify", "--n", str(n), "--m", str(m)]
               for n in (4, 6) for m in range(2, 41)],
    "sweep": [["sweep", "--n", str(n), "--m-min", str(a), "--m-max",
               str(a + 9)] for n in (4, 6, 8) for a in range(2, 51)],
}

# the distinct invocations of one pass, by family; each is issued twice,
# so half of the pass replays from the cache
CLI_SLOTS = ("hminus", "cbound", "vtilde", "am", "a2k", "tate", "classify",
             "verify", "sweep", "hminus", "classify", "a2k")

HMINUS_MODULI = [m for m in range(100, 261) if m % 4 != 2]
# The 14 costliest moduli are in every sample, so the tail of a pass (the
# 11th slowest of 61 queries) falls among the same moduli for every seed,
# with room for their times to swap order.
HMINUS_PICKS = 60
HMINUS_FIXED = 14


def paper_queries():
    """What the paper publishes, in order, with its natural reuse: one
    query per table, the hminus list cut into twenty blocks by m mod 20,
    so that the blocks cost about the same."""
    c_moduli = [2 * p for p in (11, 13, 17, 19, 29)]
    c_moduli += [p * q for p, q in ((3, 5), (3, 7), (3, 11), (5, 7), (3, 13))]
    qs = [["c_bound", *c_moduli, 30], ["vtilde", 21]]
    qs += [["hminus", *(m for m in range(2, 201) if m % 20 == r)]
           for r in range(20)]
    qs += [["tate_km", n] for n in range(3, 10)]
    qs += [["sweep_deep", n] for n in (4, 6, 8)]
    qs += [["verify", n, *range(2, 61)] for n in (4, 6, 8)]
    return qs


def population(name):
    if name == "cli-cold":
        return [q for family in CLI_FAMILIES.values() for q in family]
    if name == "hminus-range":
        return [["hminus", m] for m in HMINUS_MODULI]
    if name == "paper-tables":
        return paper_queries()
    raise ValueError(f"unknown workload {name!r}")


def load_expected(name):
    with open(EXPECTED / f"{name}.json", encoding="utf-8") as handle:
        return json.load(handle)["queries"]


# -- samples -----------------------------------------------------------------


def _cost_strata(queries, cost, count, fixed=0):
    """Split queries into `count` strata by their reference-commit cost.

    A query costing more than an equal share of the total, or among the
    `fixed` costliest, is a stratum of its own, so it is in every sample
    and the total cost of a sample hardly depends on the seed; the rest,
    ranked by cost, is cut into strata of equal size, so the sample's
    latency quantiles hardly depend on it either.
    """
    ranked = sorted(queries, key=lambda q: -cost(q))
    share = sum(cost(q) for q in ranked) / count
    heavy = 0
    while heavy < count - 1 and (heavy < fixed or
                                 cost(ranked[heavy]) > share):
        heavy += 1
    rest = ranked[heavy:]
    parts = count - heavy
    return [[q] for q in ranked[:heavy]] + [
        rest[i * len(rest) // parts:(i + 1) * len(rest) // parts]
        for i in range(parts)]


def _cli_sequence(rng):
    distinct = []
    for family in CLI_SLOTS:
        choice = rng.choice(CLI_FAMILIES[family])
        while choice in distinct:
            choice = rng.choice(CLI_FAMILIES[family])
        distinct.append(choice)
    rng.shuffle(distinct)
    sequence, issued = [], []
    while distinct or issued:
        if distinct and (not issued or rng.random() < 0.5):
            query = distinct.pop()
            issued.append(query)
        else:
            query = issued.pop(rng.randrange(len(issued)))
        sequence.append(query)
    return sequence


def generate(name, seed):
    """The query list of one pass: a pure function of name and seed."""
    rng = random.Random(f"{name}/{seed}")
    if name == "cli-cold":
        return _cli_sequence(rng)
    if name == "paper-tables":
        return paper_queries()  # fixed inputs: the seed is unused
    expected = load_expected(name)

    def cost(query):
        return expected[json.dumps(query)]["seed_s"]

    # every pass opens with the same query, which also pays the
    # interpreter's first-call costs, so they land on no sampled query
    lead, *rest = population(name)
    strata = _cost_strata(rest, cost, HMINUS_PICKS, fixed=HMINUS_FIXED)
    picks = [rng.choice(stratum) for stratum in strata]
    rng.shuffle(picks)
    return [lead] + picks
