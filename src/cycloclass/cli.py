"""Command-line front end.

Subcommands expose the classifier (classify, sweep, verify) and the main
intermediate quantities (hminus, cbound, vtilde, tate, am, a2k).  Output
is plain text by default or JSON with --format json; the JSON field names
are frozen (n, m, mhs, mhcob, mhs_hcob, a2k_order, ingredients,
provenance for reports).  Identical invocations produce identical output
bytes, which is what makes the optional result cache sound: entries are
keyed by subcommand and canonical arguments, stored with the SHA-256 digest
of their output, and replayed verbatim only while the digest matches.  The
digest is unkeyed: it catches a corrupted or hand-edited entry, not one
whose editor also rewrote the digest.  The file also records a SHA-256 of
the package's source files, and a file written by other code counts as
empty.  A cache path that cannot be written costs only the reuse: the
answer is printed as without a cache, stderr gets one line "cache not
written: <reason>", and the exit code stays 0.

Exit codes: 0 success, 1 usage error, 2 scope error, 3 internal consistency
failure.  Usage errors are malformed command lines and arguments no
subcommand defines (hminus with m <= 0, a2k with k < 1 or m < 2, tate --km
below 0 or with --involution, tate invariants or involutions that are not a
valid module).  Scope errors are classify, verify and sweep with n odd or
below 4 (sweep checks n once, before any m), m < 2 where a cyclic group is
needed, moduli outside the implemented unit reductions or not factored
within the Pollard-Brent budget of arith, vtilde and cbound with a norm-one
torus above TORUS_BITS_CEILING bits (before its order is formed), classify,
verify and sweep at a square-free m with more than WH_DIVISORS_CEILING
divisors (before any divisor is listed), tate --km above KM_LEVEL_CEILING,
tate --invariants normalising to more than TATE_RANK_CEILING factors (before
any matrix is built), and hminus at phi(m) above HMINUS_PHI_CEILING (above
2 * HMINUS_PHI_CEILING^2, before m is factored).  am, classify --deep and
verify refuse at such a modulus only when the branch they take reads its
h-: am --m 8192 reads no class number and answers.  hminus --m 1 prints 1.
sweep reports a per-m scope error as an error row of its table, and an h-
above HMINUS_PHI_CEILING as "-" in the h- columns of a row that keeps its
verdicts.  A reader that closes stdout early (cycloclass ... | head -c 10)
ends the output there: the exit code is 0 and stderr stays empty.

An argv in the plain form is read directly: every option named in full,
each value in the next word, a value starting with "-" only as a negative
integer, and --format and --cache before or after the subcommand.
argparse is imported only for the rest: --help, abbreviations such as
--form, --m=39, and every malformed line.  Both parsers read one grammar,
_COMMANDS, so the help and the usage errors are argparse's.  main, the
process entry point, flushes stdout and then stderr and ends the process
with os._exit, skipping interpreter finalization, which only frees the
loaded modules: 5-8 ms of CPU per cold query on a 2-core x86-64 host,
most of it for the modules that site loads for the .pth files of
site-packages, so the saving depends on the host.  A host program's
atexit handlers do not run after main; code that embeds the CLI calls
run.
"""

from __future__ import annotations

import os
import sys
import types

from .abelian import AbHom, FinAbGroup, IntMatrix
from .arith import InternalConsistencyError, UnsupportedModulusError
from .classnumber import hminus, odd_part
from .involutive import InvModule, tate
from .ktheory import ScopeError, a_m, km_v_module, squarefree
from .manifoldset import a2k_order, classify, sweep, verify
from .residue import c_bound, vtilde

SCHEMA_VERSION = 2
CACHE_ENV_VAR = "CYCLOCLASS_CACHE"

#: the most invariant factors tate --invariants admits.  The default
#: negation is the sign -1, no matrix: the costliest rank-1024 inputs tried
#: (1024 factors 2, 2^64, or 3 * 2^(k mod 60)) answer in 0.08-0.26 s cold.
#: An explicit --involution is an r x r matrix, and the two r x 2r Smith
#: normal forms of tate make its time about cubic: the pair swap on
#: (Z/2)^r takes 0.45-0.54 s cold at r = 200 and 0.77-0.82 s at r = 250,
#: the largest such matrix that fits in one 128 KB argument; the value
#: stays, so no input changes its exit code.
#: All on a 2-core x86-64 host (Python 3.11).  A larger rank is refused
#: once the factors are normalised, before any matrix is built.
TATE_RANK_CEILING = 1024


class _UsageError(Exception):
    pass


_FORMATS = ("text", "json")
_INT = {"type": int, "required": True}

#: the grammar of the command line, read by both parsers: each subcommand
#: maps to its help, its options as argparse keywords, and the options of
#: which exactly one must be given.  An option with an action is a
#: store_true flag; any other takes one value
_COMMANDS = {
    "classify": ("classify the manifold sets at (n, m)", {
        "--n": _INT, "--m": _INT,
        "--deep": {"action": "store_true",
                   "help": "recompute the analytic ingredients as well"}}, ()),
    "sweep": ("classify a range of m at fixed n", {
        "--n": _INT, "--m-min": _INT, "--m-max": _INT}, ()),
    "verify": ("cross-check the rules against recomputed ingredients", {
        "--n": _INT, "--m": _INT}, ()),
    "hminus": ("minus part of the cyclotomic class number", {"--m": _INT}, ()),
    "cbound": ("divisibility bound for the unit cokernel", {"--m": _INT}, ()),
    "vtilde": ("the unit cokernel, in invariant factors", {"--m": _INT}, ()),
    "am": ("Tate group of the projective class group", {"--m": _INT}, ()),
    "a2k": ("order of the realisable automorphism group", {
        "--k": _INT, "--m": _INT}, ()),
    "tate": ("Tate cohomology of an involutive module", {
        "--degree": _INT,
        "--km": {"type": int, "metavar": "N",
                 "help": "use the level-2^(N+1) negation module"},
        "--invariants": {"type": str,
                         "help": "comma-separated invariant factors"},
        "--involution": {"type": str,
                         "help": "matrix rows separated by ';', entries by "
                                 "','; defaults to negation"}},
        ("--km", "--invariants")),
}


def _dest(option):
    return option[2:].replace("-", "_")


def _parse(argv):
    """The namespace argparse gives for ``argv`` in the plain form, else
    None.  The plain form names each option in full and gives its value in
    the next word; a value may start with "-" only as a negative integer.
    --format and --cache may come before or after the subcommand, and the
    last occurrence of an option wins, as in argparse."""
    args = {"format": "text", "cache": None}
    options = {"--format": {"choices": _FORMATS}, "--cache": {}}
    given = set()
    words = iter(argv)
    for word in words:
        if "command" not in args and word in _COMMANDS:
            args["command"] = word
            own = _COMMANDS[word][1]
            options = {**options, **own}
            args.update((_dest(name), False if "action" in spec else None)
                        for name, spec in own.items())
            continue
        spec = options.get(word)
        if spec is None:
            return None
        given.add(word)
        if "action" in spec:
            args[_dest(word)] = True
            continue
        value = next(words, None)
        if value is None or value[:1] == "-" and not value[1:].isdecimal():
            return None
        try:
            value = spec.get("type", str)(value)
        except ValueError:
            return None
        if value not in spec.get("choices", (value,)):
            return None
        args[_dest(word)] = value
    if "command" not in args:
        return None
    _, own, one_of = _COMMANDS[args["command"]]
    if any(spec.get("required") and name not in given
           for name, spec in own.items()):
        return None
    if one_of and len(given.intersection(one_of)) != 1:
        return None
    return types.SimpleNamespace(**args)


def _build_parser():
    """The argparse tree of ``_COMMANDS``: it reads every argv that
    ``_parse`` does not, and writes the help and the usage errors."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):
            raise _UsageError(message)

    # the docstring's last paragraph is about this module's code, not
    # about the command line, so --help leaves it out (python -OO drops
    # the docstring)
    parser = _Parser(prog="cycloclass",
                     description=__doc__ and __doc__.rsplit("\n\n", 1)[0])
    parser.add_argument("--format", choices=_FORMATS, default="text")
    parser.add_argument("--cache", default=None,
                        help="path to a JSON result cache "
                             f"(default from ${CACHE_ENV_VAR})")
    # the global flags are also accepted after the subcommand; SUPPRESS
    # keeps the subparser from clobbering a value parsed before it
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=_FORMATS,
                        default=argparse.SUPPRESS)
    common.add_argument("--cache", default=argparse.SUPPRESS)

    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, options, one_of) in _COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=help_text)
        group = p.add_mutually_exclusive_group(required=True) \
            if one_of else None
        for option, spec in options.items():
            (group if option in one_of else p).add_argument(option, **spec)
    return parser


# json, tempfile and the SHA-256 module serve only the cache and the JSON
# format, so they are imported where used: a text answer without a cache
# loads none of them.  hashlib, which loads OpenSSL, is imported only where
# the interpreter has no builtin SHA-256 module (see _sha256)


def _canonical_key(args):
    import json
    payload = {k: v for k, v in sorted(vars(args).items())
               if k not in ("cache",)}
    return json.dumps(payload, sort_keys=True)


def _sha256(data=b""):
    """A SHA-256 object over ``data``.  hashlib is heavy to load: it loads
    OpenSSL, 3-7 ms of import under Python 3.10-3.13 on a 2-core host,
    against under 0.5 ms for the builtin module.  So the builtin module
    comes first, as in CPython's random; the hex digests agree."""
    try:
        from _sha2 import sha256  # 3.12+
    except ImportError:
        try:
            from _sha256 import sha256  # 3.10, 3.11
        except ImportError:
            from hashlib import sha256  # a build without the builtin hashes
    return sha256(data)


def _digest(text):
    return _sha256(text.encode("utf-8")).hexdigest()


def _code_digest():
    """SHA-256 over the package's *.py files, by name and content, in
    sorted order of name: a cache written by other code is not replayed."""
    package = os.path.dirname(os.path.abspath(__file__))
    digest = _sha256()
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                data = handle.read()
            digest.update(f"{name}\0{len(data)}\0".encode() + data)
    return digest.hexdigest()


class _Cache:
    def __init__(self, path):
        import json
        self.path = path
        self.code = _code_digest()
        self.entries = {}
        if os.path.exists(path):
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    data = json.load(handle)
            except (OSError, RecursionError, ValueError):
                # RecursionError: nesting deeper than the decoder follows
                data = {}
            # a file of any other shape, or written by other code, is
            # treated as an empty cache
            if isinstance(data, dict) and \
                    data.get("schema") == SCHEMA_VERSION and \
                    data.get("code_sha256") == self.code and \
                    isinstance(data.get("entries"), dict):
                self.entries = {
                    k: v for k, v in data["entries"].items()
                    if isinstance(v, dict) and isinstance(v.get("output"), str)
                    and isinstance(v.get("sha256"), str)}

    def get(self, key):
        """The stored output, or None; an entry whose digest does not match
        its output is dropped, as is one with a lone surrogate, which has no
        UTF-8 form to digest."""
        entry = self.entries.get(key)
        if entry is None:
            return None
        try:
            intact = _digest(entry["output"]) == entry["sha256"]
        except UnicodeEncodeError:
            intact = False
        if not intact:
            del self.entries[key]
            return None
        return entry["output"]

    def put(self, key, value):
        """Store an entry by an atomic rewrite of the file; OSError when the
        path cannot be written."""
        import json
        import tempfile
        self.entries[key] = {"output": value, "sha256": _digest(value)}
        payload = {"schema": SCHEMA_VERSION, "code_sha256": self.code,
                   "entries": self.entries}
        directory = os.path.dirname(os.path.abspath(self.path)) or "."
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, sort_keys=True)
            os.replace(tmp, self.path)
        except OSError:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise


def _verdict_text(v):
    parts = [v.verdict]
    if v.lower is not None and v.upper is not None:
        parts.append(f"[{v.lower}..{v.upper}]")
    elif v.lower is not None:
        parts.append(f">= {v.lower}")
    if v.witness is not None:
        parts.append(f"(order divisible by {v.witness})")
    return " ".join(parts)


def _report_text(report):
    lines = [
        f"n = {report.n}, m = {report.m}  "
        f"(automorphism group order {report.a2k_order})",
        f"  simple homotopy types in the homotopy class:   "
        f"{_verdict_text(report.mhs)}",
        f"  simple homotopy types among h-cobordant ones:  "
        f"{_verdict_text(report.mhcob)}",
        f"  homotopy types modulo s.h.e. and h-cobordism:  "
        f"{_verdict_text(report.mhs_hcob)}",
        f"  provenance: {report.provenance}",
    ]
    return "\n".join(lines)


def _sweep_text(reports):
    rows = ["     m  sqfree      h-  odd(h-)  mhs        mhcob      mhs_hcob"]
    for entry in reports:
        if isinstance(entry, tuple):
            m, err = entry
            rows.append(f"{m:6d}  error: {err}")
            continue
        m = entry.m
        try:
            h = hminus(m)
        except UnsupportedModulusError:
            # the verdicts need no class number; only its columns are blank
            h = odd = "-"
        else:
            odd = odd_part(h)
        rows.append(
            f"{m:6d}  {str(squarefree(m)).lower():6s}  {h:>6}  {odd:>7}"
            f"  {entry.mhs.verdict:9s}  {entry.mhcob.verdict:9s}"
            f"  {entry.mhs_hcob.verdict}")
    return "\n".join(rows)


def _tate_module(args):
    if args.km is not None:
        if args.involution is not None:
            raise _UsageError("--involution applies to --invariants, "
                              "not to --km")
        return km_v_module(args.km)
    factors = [int(v) for v in args.invariants.split(",") if v.strip()]
    group = FinAbGroup.from_cyclic_factors(factors)
    if group.rank > TATE_RANK_CEILING:
        raise ScopeError(
            f"the invariants normalise to {group.rank} factors; ranks above "
            f"{TATE_RANK_CEILING} are not built")
    if args.involution is None:
        return InvModule(group, -1)
    rows = [[int(v) for v in row.split(",")]
            for row in args.involution.split(";")]
    return InvModule(group, AbHom(group, group, IntMatrix(rows)))


def _execute(args):
    """Compute the output text for a parsed invocation."""
    fmt = args.format
    cmd = args.command
    if fmt == "json":
        import json

    if cmd == "classify":
        report = classify(args.n, args.m, deep=args.deep)
        if fmt == "json":
            return json.dumps(report.to_json_dict(), sort_keys=True)
        return _report_text(report)

    if cmd == "sweep":
        if args.m_min > args.m_max:
            raise _UsageError(f"--m-min {args.m_min} exceeds "
                              f"--m-max {args.m_max}")
        reports = sweep(args.n, range(args.m_min, args.m_max + 1))
        if fmt == "json":
            payload = [r.to_json_dict() if not isinstance(r, tuple)
                       else {"m": r[0], "error": str(r[1])} for r in reports]
            return json.dumps(payload, sort_keys=True)
        return _sweep_text(reports)

    if cmd == "verify":
        record = verify(args.n, args.m)
        if fmt == "json":
            return json.dumps(record.to_dict(), sort_keys=True)
        lines = [f"{'consistent' if record.consistent else 'INCONSISTENT'}"]
        for check in record.checks:
            c = dict(check)
            lines.append(f"  [{c['status']:12s}] {c['name']}: {c['detail']}")
        return "\n".join(lines)

    if cmd == "hminus":
        value = hminus(args.m)
        return json.dumps({"m": args.m, "hminus": value}) \
            if fmt == "json" else str(value)

    if cmd == "cbound":
        value = c_bound(args.m)
        return json.dumps({"m": args.m, "cbound": value}) \
            if fmt == "json" else str(value)

    if cmd == "vtilde":
        group = vtilde(args.m)
        if fmt == "json":
            return json.dumps({"m": args.m,
                               "invariant_factors": list(group.invariant_factors),
                               "order": group.order}, sort_keys=True)
        return str(group)

    if cmd == "am":
        knowledge = a_m(args.m, compute=True)
        if fmt == "json":
            return json.dumps({"m": args.m, **knowledge.to_dict()},
                              sort_keys=True)
        if knowledge.status == "exact":
            return f"exact: {knowledge.group}"
        detail = knowledge.constraint or knowledge.source
        return f"{knowledge.status}" + (f": {detail}" if detail else "")

    if cmd == "a2k":
        value = a2k_order(args.k, args.m)
        return json.dumps({"k": args.k, "m": args.m, "a2k_order": value}) \
            if fmt == "json" else str(value)

    if cmd == "tate":
        module = _tate_module(args)
        group = tate(module, args.degree)
        if fmt == "json":
            return json.dumps({"degree": args.degree,
                               "invariant_factors": list(group.invariant_factors),
                               "order": group.order}, sort_keys=True)
        return str(group)

    raise _UsageError(f"unknown command {cmd!r}")


def run(argv):
    """Dispatch an argv list; returns the process exit code."""
    args = _parse(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
        except _UsageError as err:
            print(f"usage error: {err}", file=sys.stderr)
            return 1

    cache_path = args.cache or os.environ.get(CACHE_ENV_VAR)
    cache = _Cache(cache_path) if cache_path else None
    if cache is not None:
        key = _canonical_key(args)
        cached = cache.get(key)
        if cached is not None:
            print(cached)
            return 0

    # torus orders of supported moduli can have more digits than Python's
    # default limit on int-to-str conversion (4300); interpreters older than
    # 3.10.7 have no such limit
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if digit_limit:
        sys.set_int_max_str_digits(0)
    try:
        output = _execute(args)
    except (ScopeError, UnsupportedModulusError) as err:
        print(f"out of scope: {err}", file=sys.stderr)
        return 2
    except InternalConsistencyError as err:
        print(f"internal consistency failure: {err}", file=sys.stderr)
        return 3
    except (_UsageError, ValueError, ZeroDivisionError) as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    finally:
        if digit_limit:
            sys.set_int_max_str_digits(digit_limit)

    if cache is not None:
        try:
            cache.put(key, output)
        except OSError as err:
            # like an unreadable cache, an unwritable one only costs reuse
            print(f"cache not written: {err}", file=sys.stderr)
    print(output)
    return 0


def main():
    """Run ``sys.argv`` as a process, which ends with ``os._exit`` once
    stdout and stderr are flushed: embedders call ``run``."""
    try:
        try:
            code = run(sys.argv[1:])
        except SystemExit as exit:
            # --help, which argparse ends with sys.exit(0)
            code = exit.code
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has all it wanted
        code = 0
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    main()
