"""What a cold start of the package loads.

A cold CLI query spends about half its time starting up, so modules the
package does not need for an answer must not be loaded by its import.
These tests name modules, not timings, so that a saving cannot silently
return.
"""

import ast
import hashlib
import importlib.util
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import cycloclass
import pins
from cycloclass.cli import _code_digest, _digest
from oracles import child_env

SRC = Path(cycloclass.__file__).resolve().parent
#: the interpreter's builtin BLAKE2 module, which the cache digests use
BUILTIN_BLAKE2 = importlib.util.find_spec("_blake2") is not None


def _importers(module):
    """The file:line of every import of ``module`` under src/."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == module for name in names):
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_no_module_imports_dataclasses():
    assert not _importers("dataclasses")


def test_no_module_imports_hashlib():
    # on a build without the builtin _blake2, importing hashlib logs a
    # traceback for the blake2b it cannot find
    assert not _importers("hashlib")


def _added_modules(code, *flags):
    """The modules that ``code`` adds to those a bare interpreter, run with
    ``flags``, holds (after site and .pth start-up unless -S), sorted."""
    script = textwrap.dedent("""
        import sys
        before = set(sys.modules)
        {code}
        print(" ".join(sorted(set(sys.modules) - before)))
    """).format(code=code)
    proc = subprocess.run([sys.executable, *flags, "-c", script],
                          capture_output=True, text=True, timeout=60,
                          env=child_env())
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def _package_modules(added):
    return {name for name in added if name.split(".")[0] == "cycloclass"}


def _pinned_modules(code):
    """The package's modules that the corpus pins for ``code``."""
    _, out, _ = pins.PROCESS[("modules loaded by", code)]
    return set(out.split())


def test_package_import_loads_no_layer():
    # the package holds only __version__; its modules are the API
    assert _package_modules(_added_modules("import cycloclass")) == \
        _pinned_modules("import cycloclass")


def test_library_import_loads_only_its_layers():
    added = _added_modules(pins.LIBRARY_IMPORT)
    assert _package_modules(added) == _pinned_modules(pins.LIBRARY_IMPORT)


def test_cli_import_loads_every_layer_and_no_more_of_the_stdlib():
    # the stdlib modules that the package's modules import at their top
    stdlib = _added_modules(
        "import functools, itertools, math, operator, os, sys, types")
    added = _added_modules("import cycloclass, cycloclass.cli")
    assert _package_modules(added) == {"cycloclass"} | {
        f"cycloclass.{layer}" for layer in (
            "record", "arith", "abelian", "involutive", "residue",
            "classnumber", "ktheory", "manifoldset", "cli")}
    assert added - _package_modules(added) <= stdlib


def test_import_loads_neither_dataclasses_nor_inspect():
    added = _added_modules("import cycloclass, cycloclass.cli")
    assert "cycloclass.cli" in added
    assert not added & {"dataclasses", "inspect"}


def test_cli_import_loads_no_enum():
    # -S skips the site hooks, which may load enum before the package does
    added = _added_modules("import cycloclass, cycloclass.cli", "-S")
    assert "cycloclass.cli" in added
    assert "enum" not in added


#: argparse and what it imports: a plain argv is read without them
ARGPARSE = {"argparse", "gettext", "locale"}


def test_cli_import_loads_no_argparse():
    added = _added_modules("import cycloclass, cycloclass.cli")
    assert "cycloclass.cli" in added
    assert not added & ARGPARSE


def test_uncached_text_query_loads_no_json_hashlib_or_tempfile():
    added = _added_modules(textwrap.dedent("""
        import cycloclass.cli
        assert cycloclass.cli.answer(["hminus", "--m", "39"]) == \\
            (0, "2\\n", "")
    """))
    assert "cycloclass.classnumber" in added
    assert not added & {"json", "hashlib", "tempfile", "dataclasses"}
    assert not added & ARGPARSE


@pytest.mark.parametrize("argv,stdout", [
    (["hminus", "--m=39"], "2\n"),
    (["hminus", "--help"], "usage: cycloclass hminus [-h]")])
def test_help_and_other_forms_answer_through_argparse(argv, stdout):
    added = _added_modules(textwrap.dedent("""
        import cycloclass.cli
        code, out, _ = cycloclass.cli.answer({argv!r})
        assert code == 0 and out.startswith({stdout!r})
    """).format(argv=argv, stdout=stdout))
    assert "argparse" in added


def _cache_round_trip(cache_file, prelude=""):
    """A script that runs ``hminus --m 39`` twice against ``cache_file``,
    a miss and then a hit, after ``prelude``."""
    return textwrap.dedent("""
        {prelude}
        import cycloclass.cli
        for _ in range(2):
            assert cycloclass.cli.answer(
                ["--cache", {cache_file!r}, "hminus", "--m", "39"]) == \\
                (0, "2\\n", "")
    """).format(prelude=prelude, cache_file=str(cache_file))


@pytest.mark.skipif(not BUILTIN_BLAKE2, reason="no builtin BLAKE2 module")
def test_cache_miss_and_hit_load_no_hashlib(tmp_path):
    # hashlib loads OpenSSL's _hashlib, and json and __future__ cost a cold
    # query more than reading the text cache does
    cache_file = tmp_path / "cache.json"
    added = _added_modules(_cache_round_trip(cache_file))
    assert cache_file.exists()
    assert not added & {"json", "hashlib", "_hashlib", "__future__"}


def test_cache_miss_and_hit_load_no_argparse(tmp_path):
    cache_file = tmp_path / "cache.json"
    added = _added_modules(_cache_round_trip(cache_file))
    assert cache_file.exists()
    assert not added & ARGPARSE


@pytest.mark.skipif(not BUILTIN_BLAKE2, reason="no builtin BLAKE2 module")
def test_builtin_digest_equals_hashlib():
    for text in ("", "2", "Z/4", "é中"):
        assert _digest(text) == hashlib.blake2b(
            text.encode(), digest_size=32).hexdigest()
    code = hashlib.blake2b(digest_size=32)
    for path in sorted(SRC.glob("*.py")):
        data = path.read_bytes()
        code.update(f"{path.name}\0{len(data)}\0".encode() + data)
    assert _code_digest() == code.hexdigest()


def test_without_blake2_the_sha256_fallback_round_trips(tmp_path):
    # a file of the other algorithm has another first line, so it counts
    # as written by other code: each run below starts with a miss, and
    # its hit leaves the file as the miss wrote it.  Without _blake2 the
    # child's stderr stays empty: hashlib would log a traceback there
    blocked = textwrap.dedent("""
        import sys
        sys.modules["_blake2"] = None
        import _hashlib
        from cycloclass.cli import _hasher
        assert type(_hasher()) is type(_hashlib.openssl_sha256())
    """)
    script = textwrap.dedent("""
        {prelude}
        import os
        import cycloclass.cli
        for hit in (False, True):
            inode = os.stat({cache_file!r}).st_ino if hit else None
            assert cycloclass.cli.answer(
                ["--cache", {cache_file!r}, "hminus", "--m", "39"]) == \\
                (0, "2\\n", "")
        assert os.stat({cache_file!r}).st_ino == inode
    """)
    cache_file = str(tmp_path / "cache.json")

    def round_trip(prelude):
        proc = subprocess.run(
            [sys.executable, "-c",
             script.format(prelude=prelude, cache_file=cache_file)],
            capture_output=True, text=True, timeout=60, env=child_env())
        assert (proc.returncode, proc.stderr) == (0, "")
        return Path(cache_file).read_text()

    blake2b = round_trip("")
    sha256 = round_trip(blocked)
    assert blake2b != sha256
    assert f"\n{hashlib.sha256(b'2').hexdigest()} " in sha256
    assert round_trip("") == blake2b


#: main ends the process with os._exit once run has written stderr and
#: stdout is flushed, skipping interpreter finalization, which only frees
#: the loaded modules.
#: CPU per cold process (os.wait4 rusage, medians of 60 interleaved runs on
#: a 2-core x86-64 host, Python 3.11.7), with finalization against
#: without: hminus --m 39 66.3 against 58.4 ms, verify --n 6 --m 39 65.4
#: against 59.8 ms, a bare interpreter 37.4 against 31.7 ms, but 7.9
#: against 7.6 ms under -S: most of the cost is freeing what site loads
#: for the .pth files of site-packages.  A host program's atexit handlers
#: therefore do not run after main
_MAIN = textwrap.dedent("""
    import atexit, sys
    atexit.register(print, "atexit ran", file=sys.stderr)
    from cycloclass.cli import main
    sys.argv[1:] = {argv!r}
    main()
""")


def test_main_ends_without_finalization(tmp_path):
    cache = str(tmp_path / "cache.json")
    for argv, code, stdout, stderr in [
            (["hminus", "--m", "39"], 0, "2\n", ""),
            (["--cache", cache, "hminus", "--m", "39"], 0, "2\n", ""),
            (["--cache", cache, "hminus", "--m", "39"], 0, "2\n", ""),
            (["classify", "--n", "5", "--m", "3"], 2, "",
             "out of scope: n = 5: only even n >= 4 is classified\n"),
            (["hminus", "--help"], 0, "usage: cycloclass hminus", "")]:
        proc = subprocess.run(
            [sys.executable, "-c", _MAIN.format(argv=argv)],
            capture_output=True, text=True, timeout=60, env=child_env())
        assert (proc.returncode, proc.stderr) == (code, stderr), argv
        assert proc.stdout.startswith(stdout), argv
    assert os.path.exists(cache)


def test_no_query_registers_an_exit_handler(tmp_path):
    # os._exit skips atexit handlers, so none of the program's own cleanup
    # may rely on one: with atexit.register refusing, every family of
    # queries, a cache miss and hit and --help answer in one fresh process
    cache = str(tmp_path / "cache.json")
    _added_modules(textwrap.dedent("""
        import atexit

        def refuse(*args, **kwargs):
            raise AssertionError(f"atexit.register{{args}}")

        atexit.register = refuse
        import cycloclass.cli
        for argv in (["hminus", "--m", "39"], ["cbound", "--m", "58"],
                     ["vtilde", "--m", "21"], ["am", "--m", "29"],
                     ["a2k", "--k", "2", "--m", "12"],
                     ["tate", "--km", "5", "--degree", "1"],
                     ["tate", "--invariants", "2,2", "--involution",
                      "0,1;1,0", "--degree", "0"],
                     ["classify", "--n", "4", "--m", "30", "--deep"],
                     ["verify", "--n", "4", "--m", "21"],
                     ["sweep", "--n", "4", "--m-min", "2", "--m-max", "11"],
                     ["--format", "json", "--cache", {cache!r},
                      "hminus", "--m", "39"],
                     ["--format", "json", "--cache", {cache!r},
                      "hminus", "--m", "39"]):
            assert cycloclass.cli.answer(argv)[0] == 0, argv
        code, out, _ = cycloclass.cli.answer(["--help"])
        assert code == 0 and out.startswith("usage: cycloclass")
    """).format(cache=cache))
    assert os.path.exists(cache)
