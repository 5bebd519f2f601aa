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

Exit codes: 0 success, 1 usage error, 2 scope error, 3 internal
consistency failure.  Usage errors are malformed command lines and
arguments no subcommand defines (hminus with m <= 0, a2k with k < 1 or
m < 2, tate --km below 0 or with --involution, tate invariants or
involutions that are not a valid module).  Scope errors are classify/verify
with n odd or below 4, m < 2 where a cyclic group is needed, moduli outside
the implemented unit reductions or not factored within the Pollard-Brent
budget of arith, tate --km above KM_LEVEL_CEILING, and
hminus at phi(m) above HMINUS_PHI_CEILING (above 2 * HMINUS_PHI_CEILING^2,
before m is factored).  hminus --m 1 prints 1.  sweep
reports a per-m scope error as an error row of its table, and an h- above
HMINUS_PHI_CEILING as "-" in the h- columns of a row that keeps its
verdicts.
"""

from __future__ import annotations

import argparse
import os
import sys

from .abelian import AbHom, FinAbGroup, IntMatrix
from .classnumber import hminus, odd_part
from .involutive import InvModule, tate
from .ktheory import ScopeError, a_m, km_v_module, squarefree
from .manifoldset import a2k_order, classify, sweep, verify
from .residue import InternalConsistencyError, UnsupportedModulusError, \
    c_bound, vtilde

SCHEMA_VERSION = 2
CACHE_ENV_VAR = "CYCLOCLASS_CACHE"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser():
    parser = _Parser(prog="cycloclass", description=__doc__)
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--cache", default=None,
                        help="path to a JSON result cache "
                             f"(default from ${CACHE_ENV_VAR})")
    # the global flags are also accepted after the subcommand; SUPPRESS
    # keeps the subparser from clobbering a value parsed before it
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"),
                        default=argparse.SUPPRESS)
    common.add_argument("--cache", default=argparse.SUPPRESS)

    def sub_parser(sub, name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub_parser(sub, "classify", help="classify the manifold sets at (n, m)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--deep", action="store_true",
                   help="recompute the analytic ingredients as well")

    p = sub_parser(sub, "sweep", help="classify a range of m at fixed n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m-min", type=int, required=True)
    p.add_argument("--m-max", type=int, required=True)

    p = sub_parser(sub, "verify", help="cross-check the rules against "
                                      "recomputed ingredients")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)

    for name, help_text in [
            ("hminus", "minus part of the cyclotomic class number"),
            ("cbound", "divisibility bound for the unit cokernel"),
            ("vtilde", "the unit cokernel, in invariant factors"),
            ("am", "Tate group of the projective class group")]:
        p = sub_parser(sub, name, help=help_text)
        p.add_argument("--m", type=int, required=True)

    p = sub_parser(sub, "a2k", help="order of the realisable automorphism group")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)

    p = sub_parser(sub, "tate", help="Tate cohomology of an involutive module")
    p.add_argument("--degree", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--km", type=int, metavar="N",
                       help="use the level-2^(N+1) negation module")
    group.add_argument("--invariants", type=str,
                       help="comma-separated invariant factors")
    p.add_argument("--involution", type=str, default=None,
                   help="matrix rows separated by ';', entries by ','; "
                        "defaults to negation")
    return parser


# json, hashlib and tempfile serve only the cache and the JSON format, so
# they are imported where used: a text answer without a cache loads none of
# them


def _canonical_key(args):
    import json
    payload = {k: v for k, v in sorted(vars(args).items())
               if k not in ("cache",)}
    return json.dumps(payload, sort_keys=True)


def _digest(text):
    import hashlib
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _code_digest():
    """SHA-256 over the package's *.py files, by name and content, in
    sorted order of name: a cache written by other code is not replayed."""
    import hashlib
    package = os.path.dirname(os.path.abspath(__file__))
    digest = hashlib.sha256()
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
            except (OSError, ValueError):
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
        its output is dropped."""
        entry = self.entries.get(key)
        if entry is None:
            return None
        if _digest(entry["output"]) != entry["sha256"]:
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
    if args.involution is None:
        return InvModule.with_negation(group)
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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
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
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
