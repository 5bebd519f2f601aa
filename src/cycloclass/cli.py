"""Command-line front end.

Subcommands expose the classifier (classify, sweep, verify) and the main
intermediate quantities (hminus, cbound, vtilde, tate, am, a2k).  Output
is plain text by default or JSON with --format json; the JSON field names
are frozen (n, m, mhs, mhcob, mhs_hcob, a2k_order, ingredients,
provenance for reports).  Identical invocations produce identical output
bytes, which is what makes the optional result cache sound: entries are
keyed by subcommand and canonical arguments, stored with the BLAKE2b-256
digest of their output, and replayed verbatim only while the digest
matches.  The digest is unkeyed: it catches a corrupted or hand-edited
entry, not one whose editor also rewrote the digest.  The file is UTF-8
text whose first line records a digest of the package's source files; a
file written by other code, or in any other form, counts as empty.  A
cache path that cannot be written costs only the reuse: the answer is
printed as without a cache, stderr gets one line "cache not written:
<reason>", and the exit code stays 0.

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
verdicts.

The process around the answer: a reader that closes stdout early
(cycloclass ... | head -c 10) ends the output there, with exit code 0 and
an empty stderr.  An answer that stdout cannot take (a full disk, a
closed stdout) exits 1 with one stderr line "output not written:
<reason>".  A cache path that exists and is not a regular file (a
directory, a FIFO, a device) is neither read nor replaced: the answer gets
one "cache not written" line and exit code 0.  Ctrl-C (SIGINT) exits 130
with one stderr line "interrupted", and SIGTERM exits 143: both stop the
process, so these codes are outside the answer contract above.

An argv in the plain form is read directly: every option named in full,
each value in the next word, a value starting with "-" only as a negative
integer, and --format and --cache before or after the subcommand.
argparse is imported only for the rest: --help, abbreviations such as
--form, --m=39, and every malformed line.  Both parsers read one grammar,
_COMMANDS, so the help and the usage errors are argparse's.  answer(argv)
returns the exit code, stdout and stderr, --help included, writing none;
run writes stderr (if it can), then stdout, flushes it and returns every
exit code, an undelivered answer's 1 too; main calls run, turns only an
interrupt into 130 and ends with os._exit, skipping interpreter
finalization, which only frees the loaded modules: 5-8 ms of CPU per
cold query on a 2-core x86-64 host, mostly freeing what site loads for
the .pth files of site-packages.  A host program's atexit handlers do
not run after main; code that embeds the CLI calls answer or run.  The
README, "Command line", gives the cache format.  _sweep_rows builds a
sweep's rows, one per m, for both formats: the report's JSON dict or {m,
error}; the text adds sqfree, hminus and odd_hminus, so it evaluates h-
at every m (2..2000 on a 2-core x86-64 host: 14 s, 0.2 s as JSON).
"""

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

#: the largest cache file read, in bytes; a larger one counts as empty and
#: is replaced.  An entry takes its key and output and under 100 bytes
#: more: a JSON sweep over 2..10000, 2..30000 or 2..100000 caches 7.9,
#: 24.8 or 86.0 MB, and all 1,156 cli-cold lines of perfbench 0.38 MB
CACHE_BYTES_CEILING = 1 << 27


class _UsageError(Exception):
    pass


class _Help(Exception):
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

        def print_help(self, file=None):
            raise _Help(self.format_help())

    # the docstring's last paragraph is about this module's code, not
    # about the command line, so --help leaves it out (python -OO drops
    # the docstring)
    parser = _Parser(prog="cycloclass",
                     description=__doc__ and __doc__.rsplit("\n\n", 1)[0])
    parser.add_argument("--format", choices=_FORMATS, default="text")
    parser.add_argument("--cache", default=None,
                        help="path to a result cache file "
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


# json serves only the JSON format, and tempfile and the digest module
# only the cache, so each is imported where used: a text answer, cached or
# not, loads no json.  OpenSSL's _hashlib is loaded only where the
# interpreter has no builtin BLAKE2 module (see _hasher)


def _canonical_key(args):
    return repr(sorted((k, v) for k, v in vars(args).items() if k != "cache"))


def _hasher(data=b""):
    """A BLAKE2b-256 object (RFC 7693) over ``data``, from the builtin
    module.  OpenSSL is heavy to load, 3-7 ms of import under Python
    3.10-3.13 on a 2-core host, so its SHA-256 serves only a build without
    that module; a file either writes has another code digest under the
    other, so it counts as written by other code.  hashlib is not
    imported: on such a build it logs a traceback for the blake2b it
    cannot find.  ImportError on a build with neither module."""
    try:
        from _blake2 import blake2b
    except ImportError:
        from _hashlib import openssl_sha256
        return openssl_sha256(data)
    return blake2b(data, digest_size=32)


def _digest(text):
    return _hasher(text.encode("utf-8")).hexdigest()


def _code_digest():
    """The digest of the package's *.py files, by name and content, in
    sorted order of name: a cache written by other code is not replayed."""
    package = os.path.dirname(os.path.abspath(__file__))
    digest = _hasher()
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                data = handle.read()
            digest.update(f"{name}\0{len(data)}\0".encode() + data)
    return digest.hexdigest()


def _entries(text, header):
    """{key: (digest, output)} of a cache file's text, or ValueError unless
    the text is ``header`` and whole records.  A record is "<digest> <key
    length> <output length>\\n<key><output>\\n", the lengths in characters
    and ASCII decimal; each one read ends past its own first newline, so no
    text makes the loop stand still."""
    if not text.startswith(header):
        raise ValueError("not a cache of this code")
    entries, at = {}, len(header)
    while at < len(text):
        end = text.index("\n", at)
        digest, *lengths = text[at:end].split(" ")
        if len(lengths) != 2 or not all(
                n.isascii() and n.isdecimal() for n in lengths):
            raise ValueError("not a record")
        key_end = end + 1 + int(lengths[0])
        at = key_end + int(lengths[1]) + 1
        if text[at - 1:at] != "\n":
            raise ValueError("a record runs past its end")
        entries[text[end + 1:key_end]] = digest, text[key_end:at - 1]
    return entries


class _Cache:
    def __init__(self, path):
        import stat
        self.path = path
        self.entries = {}
        # why the file is neither read nor replaced, else None
        self.refused = None
        try:
            info = os.stat(path)
        except OSError:
            info = None  # missing or unreachable: put tries to write it
        if info is not None and not stat.S_ISREG(info.st_mode):
            # a directory, a device or a FIFO: a FIFO blocks a read, and
            # /dev/zero never ends one
            self.refused = f"{path} is not a regular file"
        else:
            try:
                self.header = f"cycloclass-cache {_code_digest()}\n"
            except ImportError as err:
                self.refused = f"no digest module: {err}"
        if info is not None and self.refused is None and \
                info.st_size <= CACHE_BYTES_CEILING:
            # strict UTF-8, and newline="" keeps the characters counted;
            # a file of any other shape, or written by other code, is
            # treated as an empty cache
            try:
                with open(path, encoding="utf-8", newline="") as handle:
                    self.entries = _entries(handle.read(), self.header)
            except (OSError, ValueError):
                pass

    def get(self, key):
        """The stored output, or None; an entry whose digest does not match
        its output is dropped."""
        digest, output = self.entries.get(key, (None, None))
        if output is not None and _digest(output) == digest:
            return output
        self.entries.pop(key, None)
        return None

    def put(self, key, value):
        """Store an entry by an atomic rewrite of the file; OSError when the
        path cannot be written or is not a cache file to replace.  Any
        exception, an interrupt too, removes the temporary file."""
        import tempfile
        if self.refused is not None:
            raise OSError(self.refused)
        self.entries[key] = _digest(value), value
        directory = os.path.dirname(os.path.abspath(self.path)) or "."
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
                handle.write(self.header)
                for k, (digest, output) in sorted(self.entries.items()):
                    handle.write(f"{digest} {len(k)} {len(output)}\n"
                                 f"{k}{output}\n")
            os.replace(tmp, self.path)
        except BaseException:
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


def _classify_text(report):
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


def _json(value, sort_keys=True):
    import json  # loaded by JSON answers only

    return json.dumps(value, sort_keys=sort_keys)


def _classify_json(report):
    return _json(report.to_json_dict())


def _sweep_rows(entries, columns):
    """The rows of sweep's entries, the text columns too if ``columns``."""
    rows = []
    for entry in entries:
        if isinstance(entry, tuple):
            rows.append({"m": entry[0], "error": str(entry[1])})
            continue
        rows.append(row := entry.to_json_dict())
        if columns:
            try:
                h = hminus(entry.m)
            except UnsupportedModulusError:
                h = odd = "-"  # the verdicts need no class number
            else:
                odd = odd_part(h)
            row.update(sqfree=squarefree(entry.m), hminus=h, odd_hminus=odd)
    return rows


def _sweep_text(rows):
    lines = ["     m  sqfree      h-  odd(h-)  mhs        mhcob      mhs_hcob"]
    for row in rows:
        lines.append(f"{row['m']:6d}  error: {row['error']}" if "error" in row
                     else f"{row['m']:6d}  {str(row['sqfree']).lower():6s}"
                     f"  {row['hminus']:>6}  {row['odd_hminus']:>7}"
                     f"  {row['mhs']['verdict']:9s}"
                     f"  {row['mhcob']['verdict']:9s}"
                     f"  {row['mhs_hcob']['verdict']}")
    return "\n".join(lines)


def _verify_text(record):
    lines = [f"{'consistent' if record.consistent else 'INCONSISTENT'}"]
    for check in record.checks:
        c = dict(check)
        lines.append(f"  [{c['status']:12s}] {c['name']}: {c['detail']}")
    return "\n".join(lines)


def _verify_json(record):
    return _json(record.to_dict())


def _number_json(name, value, **keys):
    """hminus, cbound and a2k: the arguments, then the value, unsorted."""
    return _json({**keys, name: value}, sort_keys=False)


def _group_json(key, argument, group):
    """vtilde and tate."""
    return _json({key: argument,
                  "invariant_factors": list(group.invariant_factors),
                  "order": group.order})


def _am_text(knowledge):
    if knowledge.status == "exact":
        return f"exact: {knowledge.group}"
    detail = knowledge.constraint or knowledge.source
    return f"{knowledge.status}" + (f": {detail}" if detail else "")


def _am_json(m, knowledge):
    return _json({"m": m, **knowledge.to_dict()})


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
    """Compute the answer of a parsed invocation, and render it as text
    by its command's renderer, which reads the answer only."""
    as_json, cmd = args.format == "json", args.command

    if cmd == "classify":
        report = classify(args.n, args.m, deep=args.deep)
        return _classify_json(report) if as_json else _classify_text(report)

    if cmd == "sweep":
        if args.m_min > args.m_max:
            raise _UsageError(f"--m-min {args.m_min} exceeds "
                              f"--m-max {args.m_max}")
        rows = _sweep_rows(sweep(args.n, range(args.m_min, args.m_max + 1)),
                           columns=not as_json)
        return _json(rows) if as_json else _sweep_text(rows)

    if cmd == "verify":
        record = verify(args.n, args.m)
        return _verify_json(record) if as_json else _verify_text(record)

    if cmd in ("hminus", "cbound"):
        value = (hminus if cmd == "hminus" else c_bound)(args.m)
        return _number_json(cmd, value, m=args.m) if as_json else str(value)

    if cmd in ("vtilde", "tate"):
        key = "m" if cmd == "vtilde" else "degree"
        group = vtilde(args.m) if cmd == "vtilde" else \
            tate(_tate_module(args), args.degree)
        return _group_json(key, getattr(args, key), group) if as_json \
            else str(group)

    if cmd == "am":
        knowledge = a_m(args.m, compute=True)
        return _am_json(args.m, knowledge) if as_json else _am_text(knowledge)

    if cmd == "a2k":
        value = a2k_order(args.k, args.m)
        return _number_json("a2k_order", value, k=args.k, m=args.m) \
            if as_json else str(value)


def answer(argv):
    """(exit code, stdout text, stderr text) of an argv list."""
    args = _parse(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
        except _Help as page:
            return 0, str(page), ""
        except _UsageError as err:
            return 1, "", f"usage error: {err}\n"

    cache_path = args.cache or os.environ.get(CACHE_ENV_VAR)
    cache = _Cache(cache_path) if cache_path else None
    if cache is not None:
        key = _canonical_key(args)
        cached = cache.get(key)
        if cached is not None:
            return 0, cached + "\n", ""

    # torus orders of supported moduli can have more digits than Python's
    # limit on int-to-str conversion (4300, none before 3.10.7); the argv is
    # parsed under it, so a longer --m is a usage error, not a modulus
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if digit_limit:
        sys.set_int_max_str_digits(0)
    try:
        output = _execute(args)
    except (ScopeError, UnsupportedModulusError) as err:
        return 2, "", f"out of scope: {err}\n"
    except InternalConsistencyError as err:
        return 3, "", f"internal consistency failure: {err}\n"
    except (_UsageError, ValueError, ZeroDivisionError) as err:
        return 1, "", f"usage error: {err}\n"
    finally:
        if digit_limit:
            sys.set_int_max_str_digits(digit_limit)

    warning = ""
    if cache is not None:
        try:
            cache.put(key, output)
        except OSError as err:
            # like an unreadable cache, an unwritable one only costs reuse
            warning = f"cache not written: {err}\n"
    return 0, output + "\n", warning


def _to_stderr(text):
    try:
        sys.stderr.write(text)
    except (AttributeError, OSError):
        pass  # stderr is None or its reader is gone: the code stands


def run(argv):
    """Answer an argv list, write its stderr text (if stderr can take it),
    then its stdout text, and flush stdout.  Return the exit code: the
    answer's own; 0 if the stdout reader has gone (BrokenPipeError); 1,
    with one stderr line "output not written: <reason>", if the stdout
    write or flush fails, or if sys.stdout is None, when no query runs.
    An OSError of the query itself propagates."""
    if sys.stdout is None:  # fd 1 was closed at start
        failure = "stdout is closed"
    else:
        code, out, err = answer(argv)
        _to_stderr(err)
        try:
            if out:  # /dev/full fails even an empty write
                sys.stdout.write(out)
            sys.stdout.flush()
            return code
        except BrokenPipeError:
            return 0  # the reader has all it wanted
        except OSError as error:
            failure = error
    _to_stderr(f"output not written: {failure}\n")
    return 1  # as coreutils exit on a write error


def main():
    """Run ``sys.argv`` as a process, ended by ``os._exit`` once answered."""
    try:
        code = run(sys.argv[1:])
    except KeyboardInterrupt:
        code = 130  # as a shell reports a process stopped by SIGINT
        _to_stderr("interrupted\n")
    os._exit(code)


if __name__ == "__main__":
    main()
