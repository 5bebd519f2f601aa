"""The byte pins of cycloclass, each held once, and their replay.

A pin is an answer kept byte for byte: the SHA-256 of a long text, or
the stdout, stderr and exit code of one command line.  Each group pairs
its pins with the replay that recomputes them in process; the cli-cold,
hminus-range and paper-tables answers of ``perfbench/expected`` and the
argparse pins of ``argparse_pins.json`` are read there, not copied.  A
pin may also be a rule of the process around the CLI: the group
``process`` runs each of its command lines in a child under one
condition (a full disk or a closed stdout, buffered or not, a closed
stream, a reader that stops early, SIGINT, a cache without its digest
modules, no sympy), as the console script runs it, and pins the exit
code and the streams it can read.  Its cases include the fail-fast
refusals of a modulus that rho cannot split, a torus above its ceiling
and a modulus past the digit limit, each held and run here only.
``PYTHONPATH=src python tests/pins.py``, or ``python tests/pins.py``
against an installed package, takes no options, needs only the standard
library, replays every group in about 25 s, the children of ``process``
while the other groups run in process, prints one line per group and
exits 1 naming each pin that differs.  ``tests/test_pins.py`` replays
the groups under pytest, those in ``SLOW`` under ``-m slow``; a test of
one process rule reads its case through ``process_case``, so that each
child runs once in a session.
"""

import hashlib
import json
import os
import random
import signal
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from itertools import product
from pathlib import Path

import cycloclass
from cycloclass.abelian import IntMatrix
from cycloclass.arith import modulus
from cycloclass.classnumber import _conductor_parts, _crt_prime, hminus
from cycloclass.cli import answer
from cycloclass.involutive import tate
from cycloclass.ktheory import km_v_module
from cycloclass.manifoldset import classify, sweep, verify
from cycloclass.residue import c_bound, vtilde

TESTS = Path(__file__).resolve().parent
EXPECTED = TESTS.parent / "perfbench" / "expected"


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


#: the SHA-256 of the lines "m h^-(m)" over the normalised m of each key:
#: to 300 both the exact quotient and the modular pass; down the 2-power
#: tower, every orbit halves to an order e with phi(e) <= 8 but those of
#: order 54 at 3457 = 27 * 2^7 + 1
HMINUS_LINES = {
    range(1, 301):
        "fa9195c8cb763db1aebac14ab3017e97e6b853fd63ecd2f4ba8492e430c24e77",
    (257, 769, 1153, 3457, 4096):
        "598c58fd2849a0b2819838fba8d993fb774123deb27a127c1cd386eb3811312b",
}

#: the same over the 1,529 normalised m <= 2039
HMINUS_LINES_TO_2039 = {
    range(1, 2040):
        "1188f9e5650730c27d99527d26da5b901dea21ce291db271509b79d1359be221",
}

#: the SHA-256 of str(h^-(m)), 358 digits at 1009 and 877 at 2039, as the
#: orbit and per-unit oracles give them; 3457 and 4096 are in the tower;
#: 2311, 1025 digits, folds the five Sylow parts of lambda = 2 3 5 7 11
HMINUS_DIGESTS = {
    1009: "aa5cc30f460e7b5fb288d1d96ca5638303d4153d9f7e72f7b129957f7c3c85ef",
    2039: "29ef480c7b33b95f923641e587e6222556985278f3a262e0e54f66220f1481eb",
    2311: "b95a1df25296c23bacac62565a98f294ae677b60f0195ecafac3a104d032a955",
    3457: "98e30a4712b9442cf85f2b53504bc8d8f5de72fccc5d7b8f95ccab5297a300fe",
    4096: "9b31df5d93f709e8e6bf066fbc11372462690d651dbf202c67a9fa0d549b8abf",
}

#: the same near the ceiling, as ``oracles.hminus_per_unit`` gives it, to
#: catch an algebra slip that the check primes see alike: the safe primes
#: (3947 costs most), 41^2, 61^2, and 3, 4 times 1019 and 1999
CEILING_DIGESTS = {
    1523: "dc3b403aee6fa5996d01e336e698289f51d4a8ffe8d642fbf547db229084efc9",
    2999: "505934befbd9309dd34ce8b8b8f3b382addcfc0fa723c51346bc5f4cdd0714e5",
    3863: "3b2bc7c8a565d99a82ba59aa30b4228d37ab00c9618a7032e76fd48f295a7ac1",
    3947: "458d13c79373b8dea0240453daad7ba25458726657da33862f50a3324f25bedb",
    1681: "8fb168a489f69bfc9bedf866b9946a3cb7a8e6c24b43e0c00e6a3a66573df650",
    3721: "8bacbcac1c13b0e8c2d4e094efec4cbed591dacd4b10d7f619126457e1d49bd2",
    3057: "572a7aac3ede4119b9c73e6346e544bbf7ce8ff948f40d2a931b738ccc0af9c1",
    4076: "79d137566229d3cf5174a8614c6291e4f88cb043faf1f78b7093686e15478df3",
    5997: "5c4e60c6f81e39f23813efe88525f31c88f2c718fab23777ea9a72b4887d8217",
    7996: "893ba0d82f64d81203842869d4af4b374ebd6af2306779559d133d11069b41e3",
}

#: the moduli of ``CEILING_DIGESTS`` that are 3 and 4 times a prime, each
#: evaluated after that prime and the other, from caches emptied: the part
#: of h^- at the prime is then read from the store of conductor parts,
#: where the evaluation at the prime put it as an exact quotient
SHARED_PRIMES = (1019, 1999)
SHARED_DIGESTS = {m: CEILING_DIGESTS[m] for m in (3057, 4076, 5997, 7996)}

#: the SHA-256 of the lines "exponent l root", four per exponent, of the
#: CRT primes and roots of the 813 exponents lambda(m), phi(m) <= the key:
#: none of their scans below 2^30 meets a candidate the bases leave open
CRT_DIGESTS = {
    4000: "141c51d6827564857ecf0b6173e39c4427799c785829ef3c9dfcb640d920a15a",
}

#: the SHA-256 of the stdout of each command line, which exits 0 with
#: nothing on stderr; the JSON rows carry the J and I groups that ktheory
#: reads off each stored group and the sign of its involution
SWEEP_DIGESTS = {
    "sweep --n 4 --m-min 2 --m-max 1000":
        "b49815870067ebf5fcec7086e564b1cfc334d14099c2325076f510dcd7bb6d0b",
    "--format json sweep --n 4 --m-min 2 --m-max 2000":
        "8fa9fc0ed4615a101238a67d580158c712419639516d11a52620b60fecd3bb90",
    "--format json sweep --n 6 --m-min 2 --m-max 2000":
        "f07548807ec4891bf9218f454fc325e68e55e3fedcdfb3bff7781110d06be423",
}

#: rank-1024 groups, the costliest inputs tried at the rank ceiling of
#: tate --invariants: 1024 factors 2, 1024 factors 2^64, and the factors
#: 3 * 2^(k mod 60) for k < 1024
_RANK_1024 = (",".join(["2"] * 1024), ",".join([str(2 ** 64)] * 1024),
              ",".join(str(3 * 2 ** (k % 60)) for k in range(1024)))

#: the SHA-256 of the exit code, a newline, the stdout and the stderr of
#: each command line in turn, the template of the key filled in with each
#: of its arguments: the unit cokernel and the c bound at every m <= 2000,
#: refusals included, and the Tate groups, with the default negation, of
#: the Kervaire-Murthy modules through the level ceiling and of the
#: rank-1024 groups
OUTPUT_DIGESTS = {
    ("vtilde --m {}", range(1, 2001)):
        "aaddb4a8c6259f7afdc52bcfafe164b8b604baa96711d7b79b1f79c05236b909",
    ("--format json vtilde --m {}", range(1, 2001)):
        "d8d51fd9b6a8811e1707e52c4d850bc4f97677bd1d95bcc18072377edf0961cc",
    ("cbound --m {}", range(1, 2001)):
        "669929b4502ae27c1619e180302170d39af3bbcb8bf2816097f85318e4499f53",
    ("--format json cbound --m {}", range(1, 2001)):
        "9c5ca83e878e7074fc48a90b5da1a46f898f5eee45d538171dc886737fd4aa83",
    ("tate --km {} --degree {}", tuple(product(range(10), (0, 1)))):
        "27a876a96c5769d9cade7856d881327d56059cdf2c450ffe306038e70bc61ddf",
    ("tate --invariants {} --degree {}", tuple(product(_RANK_1024, (0, 1)))):
        "900dd1302b174b4997a03356cde8bf401b6e6bcb0e792e729468e2ab2434f075",
}

#: the SHA-256 of the JSON lines of classify(n, m, deep=True) and
#: verify(n, m), in turn, for each n and m of the key: classify runs the
#: checks of verify on its own ingredients.  The keys cover the degrees
#: 4, 6 and 8 that the paper tabulates, and 10; every degree reads the
#: one description of m that the degrees before it built
DEEP_DIGESTS = {
    ((4, 6), range(2, 301)):
        "91e0690a156f2e003d2fbc5f3a23ad142a3f275fc802d284c2ab88a75648c68d",
    ((8, 10), range(2, 301)):
        "fd80f6caf0e71e664c7a6161e8e9614ea1478b4fcc36af0308f565bd1b7047f4",
}

#: the prime 2^64 + 13, and a 131-bit prime whose P - 1 = 2 q r has two
#: 66-bit prime factors, which rho does not split within its budget
ABOVE_2_64 = 2 ** 64 + 13
LARGE_PRIME = 2991691817533806448592860327231431648383

_RULE_DERIVED = """\
n = 4, m = {m}  (automorphism group order {a2k})
  simple homotopy types in the homotopy class:   finite >= 2 (order divisible by 1)
  simple homotopy types among h-cobordant ones:  finite >= 2 (order divisible by 1)
  homotopy types modulo s.h.e. and h-cobordism:  finite
  provenance: rule-derived
"""

_ABOVE_CEILING = ("out of scope: m = {m}: phi(m) >= sqrt(m/2) is above 4000, "
                  "the largest degree whose minus class number is "
                  "evaluated\n")

#: the checks that read no degree are shared by every even n; the
#: automorphism-order bound is rebuilt at each n
_VERIFY_65 = """\
consistent
  [confirmed   ] squarefree-vs-infinite: square-free = True, Nil summand vanishes = True
  [confirmed   ] automorphism-order-bound: |A_{n}(65)| = {a2k} < 8450
  [confirmed   ] set1-nontrivial-witness: divisibility witness 2873
  [confirmed   ] set2-nontrivial-witness: divisibility witness 2873 > 1
  [confirmed   ] c-bound-divides-cokernel: c = 22984, cokernel order 22984
  [no-data     ] tate-elementary: Tate group not exactly known
"""

#: classify --deep hands its ingredients to the checks of verify
_DEEP_130 = """\
n = {n}, m = 130  (automorphism group order {a2k})
  simple homotopy types in the homotopy class:   finite >= 2 (order divisible by 736706807403125)
  simple homotopy types among h-cobordant ones:  finite >= 2 (order divisible by 736706807403125)
  homotopy types modulo s.h.e. and h-cobordism:  finite
  provenance: ingredient-verified
"""

_TWOS_64 = ",".join(["2"] * 64)
_PAIR_SWAP_64 = ";".join(",".join(str(int(j == i ^ 1)) for j in range(64))
                         for i in range(64))


def _involution_arg(rows):
    """The --involution argument of a matrix on (Z/2)^r, entries mod 2."""
    return ";".join(",".join(str(x % 2) for x in row) for row in rows)


def _dense_conjugate(rows, seed):
    """P rows P^-1, P a unimodular matrix of rank * rank random row
    additions, seeded: the same module as ``rows``, with about half its
    entries odd."""
    rank, rng = len(rows), random.Random(seed)
    p = [[int(i == j) for j in range(rank)] for i in range(rank)]
    p_inv = [row[:] for row in p]
    for _ in range(rank * rank):
        # row i of p += c * row j, column j of p_inv -= c * column i
        i, j = rng.sample(range(rank), 2)
        c = rng.choice((-1, 1))
        p[i] = [x + c * y for x, y in zip(p[i], p[j])]
        for row in p_inv:
            row[j] -= c * row[i]
    return (IntMatrix(p) @ IntMatrix(rows) @ IntMatrix(p_inv)).data


#: the generators of (Z/2)^64 swapped in pairs below 32 and fixed above:
#: a free module of rank 16 over the group ring of C2 plus a trivial
#: module (Z/2)^32, so both Tate groups are (Z/2)^32
_SWAP_AND_FIX_64 = [[int(j == i ^ 1) if i < 32 else int(i == j)
                     for j in range(64)] for i in range(64)]
_TWOS_32 = " x ".join(["Z/2"] * 32) + "\n"

#: (stdout, stderr, exit code) of each command line: at 2^64 + 13 and
#: LARGE_PRIME classify and a2k factor no m - 1; J, I and Tate groups not
#: all 0 at 15 and 21; explicit involutions in both degrees: (Z/2)^64 with
#: its generators swapped in pairs, the swap below 32 and the identity
#: above, and a dense conjugate of that, and 1 + (-1) on (Z/4)^2
QUERIES = {
    f"classify --n 4 --m {ABOVE_2_64}": (
        _RULE_DERIVED.format(m=ABOVE_2_64, a2k=147573952589676413032),
        "", 0),
    f"cbound --m {ABOVE_2_64}": (
        "", f"out of scope: m = {ABOVE_2_64}: no unit-index reduction is "
        "implemented for 1 odd prime factors without the factor 2\n", 2),
    f"am --m {ABOVE_2_64}": ("", _ABOVE_CEILING.format(m=ABOVE_2_64), 2),
    f"vtilde --m {ABOVE_2_64}": ("0\n", "", 0),
    f"classify --n 4 --m {LARGE_PRIME}": (
        _RULE_DERIVED.format(
            m=LARGE_PRIME, a2k=11966767270135225794371441308925726593532),
        "", 0),
    f"a2k --k 2 --m {LARGE_PRIME}": (
        "11966767270135225794371441308925726593532\n", "", 0),
    f"am --m {LARGE_PRIME}": ("", _ABOVE_CEILING.format(m=LARGE_PRIME), 2),
    "am --m 8192": ("unknown: order(A_8192) * order(A_16384) >= "
                    "2^(2^11 - 1); same with e-1 in place of e\n", "", 0),
    "verify --n 4 --m 65": (_VERIFY_65.format(n=4, a2k=1040), "", 0),
    "verify --n 8 --m 65": (_VERIFY_65.format(n=8, a2k=2080), "", 0),
    "classify --n 4 --m 130 --deep": (_DEEP_130.format(n=4, a2k=2080), "", 0),
    "classify --n 8 --m 130 --deep": (_DEEP_130.format(n=8, a2k=4160), "", 0),
    "classify --n 4 --m 15 --deep --format json": (
        '{"a2k_order": 120, "ingredients": {"free_rank": 4, "i_group": '
        '{"invariant_factors": [], "order": 1, "source": "kernel group '
        '(class number one)", "status": "exact"}, "j_group": '
        '{"invariant_factors": [2], "order": 2, "source": "kernel group '
        '(class number one)", "status": "exact"}, "m": 15, "n": 4, '
        '"nk1_zero": true, "tate_group": {"invariant_factors": [2], '
        '"order": 2, "source": "odd class number; Tate group of the '
        'stored kernel group", "status": "exact"}}, "m": 15, "mhcob": '
        '{"lower": 1, "upper": 1, "verdict": "trivial"}, "mhs": '
        '{"lower": 2, "upper": 2, "verdict": "finite"}, "mhs_hcob": '
        '{"lower": 2, "upper": 2, "verdict": "finite"}, "n": 4, '
        '"provenance": "ingredient-verified"}\n', "", 0),
    "classify --n 4 --m 21 --deep --format json": (
        '{"a2k_order": 168, "ingredients": {"free_rank": 7, "i_group": '
        '{"invariant_factors": [2], "order": 2, "source": "kernel group '
        '(class number one)", "status": "exact"}, "j_group": '
        '{"invariant_factors": [4], "order": 4, "source": "kernel group '
        '(class number one)", "status": "exact"}, "m": 21, "n": 4, '
        '"nk1_zero": true, "tate_group": {"invariant_factors": [2], '
        '"order": 2, "source": "odd class number; Tate group of the '
        'stored kernel group", "status": "exact"}}, "m": 21, "mhcob": '
        '{"lower": 2, "upper": 2, "verdict": "finite"}, "mhs": '
        '{"lower": 2, "upper": 4, "verdict": "finite"}, "mhs_hcob": '
        '{"lower": 2, "upper": 2, "verdict": "finite"}, "n": 4, '
        '"provenance": "ingredient-verified"}\n', "", 0),
    "tate --km 9 --degree 1": (" x ".join(["Z/2"] * 127) + "\n", "", 0),
    f"tate --invariants {_TWOS_64} --involution {_PAIR_SWAP_64} --degree 1":
        ("0\n", "", 0),
    **{f"tate --invariants 4,4 --involution 1,0;0,-1 --degree {n}":
       ("Z/2 x Z/2\n", "", 0) for n in (0, 1)},
    **{f"tate --invariants {_TWOS_64} --involution {arg} --degree {n}":
       (_TWOS_32, "", 0)
       for arg in (_involution_arg(_SWAP_AND_FIX_64),
                   _involution_arg(_dense_conjugate(_SWAP_AND_FIX_64, 6464)))
       for n in (0, 1)},
}


#: (exit code, stdout, stderr) of --help and of malformed argvs under this
#: interpreter, with COLUMNS=80, as the parser that read every argv with
#: argparse gave them (``argparse_pins.json``)
ARGPARSE = {
    tuple(pin["argv"]): (pin["exit"], pin["stdout"], pin["stderr"])
    for pin in json.loads((TESTS / "argparse_pins.json").read_text(
        encoding="utf-8"))["pins"]
    if "%d.%d" % sys.version_info[:2] in pin["python"]}

#: the interpreter code of a library import and of a plain cached query,
#: a miss and then a hit, whose loaded modules pins of PROCESS hold
LIBRARY_IMPORT = ("from cycloclass.classnumber import hminus; "
                  "assert hminus(78) == hminus(39) == 2")
CACHED_QUERY = ("from cycloclass.cli import answer; "
                "argv = '--cache F hminus --m 39'.split(); "
                "assert answer(argv) == answer(argv) == (0, '2\\n', '')")

#: every family of queries in one interpreter, each exiting 0
FAMILIES = ("from cycloclass.cli import answer; "
            "assert all(answer(line.split())[0] == 0 for line in ("
            "'hminus --m 39', 'cbound --m 58', 'vtilde --m 21', "
            "'am --m 29', 'a2k --k 2 --m 12', 'tate --km 5 --degree 1', "
            "'classify --n 4 --m 30', 'verify --n 4 --m 21', "
            "'sweep --n 4 --m-min 2 --m-max 11'))")

_RANK_1025 = ",".join(["2"] * 1025)
_ODD_N = "out of scope: n = 5: only even n >= 4 is classified\n"
_FULL = "output not written: [Errno 28] No space left on device\n"
_CLOSED = "output not written: stdout is closed\n"

#: two 31-digit primes, whose product Pollard-Brent rho does not split
#: within its budget
UNFACTORED = 3000000000000000000000000000262000000000000000000000000005187
_RHO = (f"out of scope: cannot factor {UNFACTORED}: Pollard-Brent rho "
        f"found no factor of {UNFACTORED} within 4194304 steps\n")

#: a modulus past the interpreter's limit of 4300 digits, under which the
#: argv is parsed: only the computation lifts it
SEVENS = "7" * 4400


def _torus(p, bits):
    return (f"out of scope: the norm-one torus of F_2[zeta_{p}] has about "
            f"{bits} bits; tori above 262144 bits are not built\n")


def _power_of_two(m):
    return (f"n = 4, m = {m}  (automorphism group order {8 * m})\n"
            "  simple homotopy types in the homotopy class:   infinite\n"
            "  simple homotopy types among h-cobordant ones:  infinite\n"
            "  homotopy types modulo s.h.e. and h-cobordism:  finite\n"
            "  provenance: rule-derived\n")


#: (exit code, stdout, stderr) of a command line run in a child under a
#: condition of CONDITIONS, None for a stream that the condition takes
#: from the replay: the refusals of a modulus rho cannot factor, each
#: waiting out its budget (first, so that the longest children start
#: first), an answer that stdout cannot take, buffered or not, a closed
#: stream, a reader that closes stdout before the first byte, one that
#: stops after one byte, one that hashes every byte, SIGINT into a text
#: sweep, the other refusals, answers near the torus ceiling and at large
#: powers of two, a cache path that is a directory, a cache file read
#: back, the cache without its digest modules (its file neither read nor
#: written), the prime 2^64 + 13 without sympy, and --help, the = form, a
#: missing option and a modulus past the digit limit, which argparse
#: reads.  "modules loaded by" runs interpreter code, not a command line,
#: and prints the modules of _WATCHED that are then loaded
PROCESS = {
    **{("", f"{command} --m {UNFACTORED}"): (2, "", _RHO)
       for command in ("classify --n 4", "am", "verify --n 4", "vtilde",
                       "cbound", "a2k --k 2")},
    **{(buffering + redirect, line): (code, None, err)
       for buffering in ("", "unbuffered ")
       for redirect, line, code, err in (
           ("> /dev/full", "hminus --m 39", 1, _FULL),
           ("> /dev/full", "classify --n 5 --m 3", 2, _ODD_N),
           (">&-", "hminus --m 39", 1, _CLOSED))},
    **{(closed, line): (code, out, None)
       for closed in ("2>&-", "2| closed by its reader")
       for line, code, out in (("hminus", 1, ""),
                               ("classify --n 5 --m 3", 2, ""),
                               ("hminus --m 39", 0, "2\n"))},
    **{("| closed by its reader", line): (0, None, "")
       for line in ("hminus --m 39",
                    "--format json sweep --n 4 --m-min 2 --m-max 400")},
    ("| head -c 1", "--format json sweep --n 4 --m-min 2 --m-max 400"):
        (0, "[", ""),
    ("| sha256sum", "--format json sweep --n 4 --m-min 2 --m-max 2000"):
        (0, SWEEP_DIGESTS["--format json sweep --n 4 --m-min 2 --m-max 2000"],
         ""),
    ("SIGINT after 1 s", "sweep --n 4 --m-min 2 --m-max 3000"):
        (130, "", "interrupted\n"),
    ("", "classify --n 5 --m 3"): (2, "", _ODD_N),
    ("", "classify --n 4 --m 4003 --deep"):
        (2, "", "out of scope: m = 4003: phi(m) = 4002 is above 4000, the "
         "largest degree whose minus class number is evaluated\n"),
    ("", f"tate --invariants {_RANK_1025} --degree 1"):
        (2, "", "out of scope: the invariants normalise to 1025 factors; "
         "ranks above 1024 are not built\n"),
    # the order of 2 mod 1000000007 is 500000003; 34747 * 34757 has two
    # tori of about 2^18 bits each, whose orders no Smith normal form may
    # take as entries
    ("", "cbound --m 2000000014"): (2, "", _torus(1000000007, 500000003)),
    ("", "vtilde --m 2000000014"): (2, "", _torus(1000000007, 500000003)),
    ("", "vtilde --m 20000006"): (2, "", _torus(10000003, 4615380)),
    ("| sha256sum", "vtilde --m 1207701479"): (
        0, "8a18dbe6cc6a5393887a5a86363ab4109183846277503acf16c9474fc57dd21e",
        ""),
    # the kernel-group ladder at 2^e has order 2^(2^(e-1) - 1 - e(e-1)/2);
    # only its exponent is built
    **{("", f"classify --n 4 --m {2 ** e}"): (0, _power_of_two(2 ** e), "")
       for e in (30, 40)},
    ("", "--cache . hminus --m 39"):
        (0, "2\n", "cache not written: . is not a regular file\n"),
    **{(condition, "--cache F hminus --m 39"): (0, "2\n", "")
       for condition in ("", "after a miss", "without _blake2",
                         "after a miss without _blake2")},
    **{(condition, "--cache F hminus --m 39"):
       (0, "2\n", "cache not written: no digest module: import of _hashlib "
        "halted; None in sys.modules\n")
       for condition in ("without _blake2 and _hashlib",
                         "after a miss, without _blake2 and _hashlib")},
    # the prime 2^64 + 13 takes the thirteen-base strong test
    **{("without sympy", line): (code, out, err)
       for line, (out, err, code) in QUERIES.items()
       if line.endswith(f" --m {ABOVE_2_64}")},
    ("modules loaded by", "import cycloclass"): (0, "cycloclass\n", ""),
    ("modules loaded by", LIBRARY_IMPORT): (
        0, "cycloclass cycloclass.abelian cycloclass.arith "
        "cycloclass.classnumber cycloclass.record\n", ""),
    **{("modules loaded by", code): (
        0, "cycloclass cycloclass.abelian cycloclass.arith "
        "cycloclass.classnumber cycloclass.cli cycloclass.involutive "
        "cycloclass.ktheory cycloclass.manifoldset cycloclass.record "
        "cycloclass.residue\n", "") for code in (CACHED_QUERY, FAMILIES)},
    ("", "hminus --m=39"): (0, "2\n", ""),
    **{("", " ".join(argv)): ARGPARSE[argv]
       for argv in (("--help",), ("hminus",)) if argv in ARGPARSE},
    **{("", f"{command} --m {SEVENS}"):
       (1, "", f"usage error: argument --m: invalid int value: '{SEVENS}'\n")
       for command in ("a2k --k 2", "vtilde", "hminus")
       if hasattr(sys, "get_int_max_str_digits")},
}

#: each child's deadline in seconds, from its own start
DEADLINE = 10

#: the child of a command line: the console script's own call, after the
#: ``prelude`` of its condition
_MAIN = "import sys; {prelude}from cycloclass.cli import main; sys.exit(main())"

#: the child of "modules loaded by": the code, then every module loaded
#: under these top-level names, none of which an interpreter loads at
#: start
_WATCHED = ("cycloclass", "argparse", "hashlib", "_hashlib", "json", "sympy")
_MODULES = f"""\
import sys
{{code}}
print(*sorted(name for name in sys.modules
              if name.split(".")[0] in {_WATCHED!r}))
"""


def child_env(src=None):
    """os.environ with ``src`` (the package's own by default) ahead of
    PYTHONPATH, no default cache, stdout buffered as a user's is, and
    argparse's help 80 columns wide."""
    env = {name: value for name, value in os.environ.items()
           if name not in ("CYCLOCLASS_CACHE", "PYTHONUNBUFFERED")}
    src = str(src or os.path.dirname(os.path.dirname(cycloclass.__file__)))
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + path if path else "")
    env["COLUMNS"] = "80"
    return env


#: the environment of every child of the replay, taken once, before any
#: group runs: the argparse group sets and removes COLUMNS in process
#: while the children of main() start
_ENV = child_env()


def _child(argv, cwd, prelude="", redirect="", act=None, code=None,
           flags=()):
    """(exit code, stdout, stderr) of a child run with ``argv`` in ``cwd``:
    the command line after ``prelude``, or the interpreter ``code``, the
    interpreter given ``flags``.  The shell ``redirect`` is applied to it,
    and ``act(proc)`` acts on it as it runs, returning the stdout it read,
    if any.  A stream that the redirect takes, or that ``act`` closes,
    reads None.  A child past its DEADLINE is killed, and the text says
    so."""
    command = [sys.executable, *flags, "-c",
               code or _MAIN.format(prelude=prelude), *argv]
    if redirect:
        command = ["sh", "-c", f'exec "$0" "$@" {redirect}', *command]
    proc = subprocess.Popen(
        command, cwd=cwd, env=_ENV,
        stdout=subprocess.DEVNULL if redirect[:1] == ">" else subprocess.PIPE,
        stderr=subprocess.DEVNULL if redirect[:1] == "2" else subprocess.PIPE)
    deadline = threading.Timer(DEADLINE, proc.kill)
    deadline.start()
    try:
        read = act(proc) if act else None
        unread = [stream is None or stream.closed
                  for stream in (proc.stdout, proc.stderr)]
        streams = proc.communicate()
    finally:
        deadline.cancel()
        proc.kill()
        proc.wait()
    if proc.returncode == -signal.SIGKILL:
        return f"killed at its {DEADLINE} s deadline"
    out, err = (None if skip else data.decode()
                for skip, data in zip(unread, streams))
    return proc.returncode, out if read is None else read, err


def _head(proc):
    """A reader that takes one byte of stdout and closes it."""
    byte = proc.stdout.read(1)
    proc.stdout.close()
    return byte.decode()


def _sha256sum(proc):
    """A reader to the end, which keeps the SHA-256 of what it read."""
    return hashlib.sha256(proc.stdout.read()).hexdigest()


def _close_stdout(proc):
    proc.stdout.close()


def _close_stderr(proc):
    proc.stderr.close()


def _interrupt(proc):
    time.sleep(1)
    proc.send_signal(signal.SIGINT)


#: a child of a process that ignores SIGINT (one started with & by a shell
#: without job control) would inherit that, and Python would keep ignoring
#: it; a user's shell in the foreground leaves Python its own handler
_SIGINT = "import signal; signal.signal(signal.SIGINT, " \
    "signal.default_int_handler); "


def _blocking(*names):
    """The prelude that makes the modules ``names`` unimportable."""
    return "".join(f"sys.modules[{name!r}] = None; " for name in names)


def _files(cwd):
    """{name: (inode, mtime)} of the files in ``cwd``."""
    return {path.name: (path.stat().st_ino, path.stat().st_mtime_ns)
            for path in Path(cwd).iterdir()}


def _after(miss, argv, cwd, prelude=""):
    """The run after a miss under the prelude ``miss``: the miss leaves a
    file, and the run changes none."""
    _child(argv, cwd, miss)
    files = _files(cwd)
    outcome = _child(argv, cwd, prelude)
    if not files or _files(cwd) != files:
        return f"files {files} after the miss, {_files(cwd)} after the run"
    return outcome


def _leaving_no_file(argv, cwd, prelude):
    outcome = _child(argv, cwd, prelude)
    return f"files {_files(cwd)} left" if _files(cwd) else outcome


_NO_DIGEST = _blocking("_blake2", "_hashlib")

#: condition: its replay of an argv in a fresh directory
CONDITIONS = {
    "": _child,
    "> /dev/full": lambda argv, cwd: _child(argv, cwd,
                                            redirect="> /dev/full"),
    ">&-": lambda argv, cwd: _child(argv, cwd, redirect=">&-"),
    "unbuffered > /dev/full": lambda argv, cwd: _child(
        argv, cwd, redirect="> /dev/full", flags=["-u"]),
    "unbuffered >&-":
        lambda argv, cwd: _child(argv, cwd, redirect=">&-", flags=["-u"]),
    "2>&-": lambda argv, cwd: _child(argv, cwd, redirect="2>&-"),
    "2| closed by its reader":
        lambda argv, cwd: _child(argv, cwd, act=_close_stderr),
    "| closed by its reader":
        lambda argv, cwd: _child(argv, cwd, act=_close_stdout),
    "| head -c 1": lambda argv, cwd: _child(argv, cwd, act=_head),
    "| sha256sum": lambda argv, cwd: _child(argv, cwd, act=_sha256sum),
    "SIGINT after 1 s":
        lambda argv, cwd: _child(argv, cwd, _SIGINT, act=_interrupt),
    "after a miss": lambda argv, cwd: _after("", argv, cwd),
    "without _blake2":
        lambda argv, cwd: _child(argv, cwd, _blocking("_blake2")),
    "after a miss without _blake2": lambda argv, cwd: _after(
        _blocking("_blake2"), argv, cwd, _blocking("_blake2")),
    "without sympy": lambda argv, cwd: _child(argv, cwd, _blocking("sympy")),
    "without _blake2 and _hashlib":
        lambda argv, cwd: _leaving_no_file(argv, cwd, _NO_DIGEST),
    "after a miss, without _blake2 and _hashlib":
        lambda argv, cwd: _after("", argv, cwd, _NO_DIGEST),
    "modules loaded by": lambda code, cwd: _child(
        [], cwd, code=_MODULES.format(code=code)),
}


def _process(key):
    """The pin of PROCESS at ``key``, replayed in a fresh directory."""
    condition, line = key
    with tempfile.TemporaryDirectory() as cwd:
        return CONDITIONS[condition](
            line if condition == "modules loaded by" else line.split(), cwd)


def _argparse(argv):
    """answer(argv) with COLUMNS=80, as the pins of ARGPARSE were taken."""
    columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        return answer(list(argv))
    finally:
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns


def _load(workload):
    """{query: answer} of one workload of perfbench/expected."""
    queries = json.loads((EXPECTED / f"{workload}.json").read_text())
    return {query: entry["answer"]
            for query, entry in queries["queries"].items()}


def _output(line):
    """(stdout, stderr, exit code) of the command line, in process."""
    code, out, err = answer(line.split())
    return out, err, code


def _output_digest(line):
    out, err, code = _output(line)
    return _sha256(out) if (err, code) == ("", 0) else (err, code)


def _hminus_lines(moduli):
    return _sha256("".join(f"{m} {hminus(m)}\n" for m in moduli
                           if m % 4 != 2))


def _hminus_digest(m):
    return _sha256(str(hminus(m)))


def _shared_digest(m):
    hminus.cache_clear()
    _conductor_parts.cache_clear()
    for p in SHARED_PRIMES:
        hminus(p)
    return _hminus_digest(m)


def _crt_digest(ceiling):
    # every m with phi(m) <= 4000 is below 40000: phi(m) > m / (e^gamma
    # log log m + 2.50637 / log log m) for m >= 3 (Rosser and Schoenfeld,
    # Illinois J. Math. 6 (1962), (3.42)), above 7000 at m = 40000
    exponents = sorted({modulus(m).exponent for m in range(3, 40000)
                        if m % 4 != 2 and modulus(m).phi <= ceiling})
    return _sha256("".join(
        f"{exponent} {ell} {root}\n" for exponent in exponents
        for ell, root in _crt_prime(
            exponent, tuple(r for r, _ in modulus(exponent).factors))))


def _deep_digest(key):
    degrees, moduli = key
    return _sha256("".join(
        json.dumps(value, sort_keys=True) + "\n"
        for n in degrees for m in moduli
        for value in (classify(n, m, deep=True).to_json_dict(),
                      verify(n, m).to_dict())))


def _outputs_digest(key):
    template, arguments = key
    parts = []
    for args in arguments:
        out, err, code = _output(template.format(
            *(args if isinstance(args, tuple) else (args,))))
        parts.append(f"{code}\n{out}{err}")
    return _sha256("".join(parts))


def _cli_cold(query):
    out, _, code = _output(" ".join(json.loads(query)))
    return {"exit": code, "stdout": out}


def _hminus_range(query):
    _, m = json.loads(query)
    return str(hminus(m))


_PER_MODULUS = {"hminus": hminus, "c_bound": c_bound, "vtilde": vtilde}


def _paper_tables(query):
    """The answer to a query of the paper's tables, as perfbench stores it:
    str of the one value or of the list, "sha256:" and its digest when
    that is longer than 400 characters."""
    kind, *args = json.loads(query)
    if kind == "sweep_deep":
        values = [sweep(args[0], range(2, 101), deep=True)]
    elif kind == "tate_km":
        values = [tate(km_v_module(args[0]), 1)]
    elif kind == "verify":
        values = [verify(args[0], m) for m in args[1:]]
    else:
        values = [_PER_MODULUS[kind](m) for m in args]
    text = str(values[0] if len(values) == 1 else values)
    return text if len(text) <= 400 else f"sha256:{_sha256(text)}"


#: name: (pins, replay), the replay giving the pinned value of each key
GROUPS = {
    "hminus-lines": (HMINUS_LINES, _hminus_lines),
    "hminus-digests": (HMINUS_DIGESTS, _hminus_digest),
    "crt-primes": (CRT_DIGESTS, _crt_digest),
    "queries": (QUERIES, _output),
    "sweeps": (SWEEP_DIGESTS, _output_digest),
    "deep-records": (DEEP_DIGESTS, _deep_digest),
    "cli-cold": (_load("cli-cold"), _cli_cold),
    "hminus-range": (_load("hminus-range"), _hminus_range),
    "paper-tables": (_load("paper-tables"), _paper_tables),
    "hminus-ceiling": (CEILING_DIGESTS, _hminus_digest),
    "hminus-lines-to-2039": (HMINUS_LINES_TO_2039, _hminus_lines),
    "hminus-shared-parts": (SHARED_DIGESTS, _shared_digest),
    "command-outputs": (OUTPUT_DIGESTS, _outputs_digest),
    "argparse": (ARGPARSE, _argparse),
    "process": (PROCESS, _process),
}

#: the groups that take seconds each: h^- near the ceiling and to 2039
SLOW = {"hminus-ceiling", "hminus-lines-to-2039", "hminus-shared-parts"}

#: the groups whose pins each run in children: up to os.cpu_count() pins
#: are replayed at a time, each once in an interpreter
CHILDREN = {"process"}

#: (group, key): the value that its replay gave, for the groups of
#: CHILDREN
_REPLAYED = {}


def mismatches(name):
    """(key, replayed, pinned) for each pin of the group that its replay
    does not give; a group with no pins is one mismatch."""
    pins, replay = GROUPS[name]
    if not pins:
        return [(name, "no pins", "at least one")]

    def replayed(key):
        try:
            return replay(key)
        except Exception as err:  # reported with the pin, not raised
            return f"{type(err).__name__}: {err}"

    if name in CHILDREN:
        unplayed = [key for key in pins if (name, key) not in _REPLAYED]
        with ThreadPoolExecutor(os.cpu_count() or 1) as pool:
            _REPLAYED.update(((name, key), value) for key, value
                             in zip(unplayed, pool.map(replayed, unplayed)))
        values = [_REPLAYED[name, key] for key in pins]
    else:
        values = map(replayed, pins)
    return [(key, value, pinned)
            for (key, pinned), value in zip(pins.items(), values)
            if value != pinned]


def process_case(key):
    """(replayed, pinned) of the pin of PROCESS at ``key``.  The first call
    replays the whole group, as ``mismatches("process")`` does, so that a
    test of one case starts no child of its own."""
    mismatches("process")
    return _REPLAYED["process", key], PROCESS[key]


def _timed(name):
    """mismatches(name) and the seconds they took."""
    start = time.perf_counter()
    return mismatches(name), time.perf_counter() - start


def main():
    failed = []
    # the groups of CHILDREN wait on children, so they start first and
    # run while the other groups replay in process
    with ThreadPoolExecutor(len(CHILDREN)) as pool:
        started = {name: pool.submit(_timed, name)
                   for name in GROUPS if name in CHILDREN}
        for name, (pins, _) in GROUPS.items():
            found, seconds = started[name].result() if name in started \
                else _timed(name)
            print(f"{'FAIL' if found else 'ok'} {name}: {len(pins)} pins, "
                  f"{seconds:.1f} s", flush=True)
            for key, replayed, pinned in found:
                print(f"    {key!r:.100}: replayed {replayed!r:.100}, "
                      f"pinned {pinned!r:.100}")
            if found:
                failed.append(name)
    if failed:
        print(f"mismatched: {', '.join(failed)}")
    return 1 if failed else 0


if __name__ == "__main__":
    if sys.argv[1:]:
        sys.exit("usage: python tests/pins.py  (it takes no options)")
    sys.exit(main())
