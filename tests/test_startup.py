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
from cycloclass.cli import _digest, _sha256

SRC = Path(cycloclass.__file__).resolve().parent
#: the interpreter's builtin SHA-256 module: _sha2 from 3.12, _sha256 before
BUILTIN_SHA256 = any(importlib.util.find_spec(name)
                     for name in ("_sha2", "_sha256"))


def test_no_module_imports_dataclasses():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "dataclasses" for name in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders


def _added_modules(code, *flags):
    """The modules that ``code`` adds to those a bare interpreter, run with
    ``flags``, holds (after site and .pth start-up unless -S), sorted."""
    script = textwrap.dedent("""
        import sys
        before = set(sys.modules)
        {code}
        print(" ".join(sorted(set(sys.modules) - before)))
    """).format(code=code)
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    env.pop("CYCLOCLASS_CACHE", None)
    proc = subprocess.run([sys.executable, *flags, "-c", script],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def _package_modules(added):
    return {name for name in added if name.split(".")[0] == "cycloclass"}


def test_package_import_loads_no_layer():
    # the package holds only __version__; its modules are the API
    assert _package_modules(_added_modules("import cycloclass")) == \
        {"cycloclass"}


def test_library_import_loads_only_its_layers():
    added = _added_modules("import cycloclass.classnumber")
    assert _package_modules(added) == {
        "cycloclass", "cycloclass.record", "cycloclass.arith",
        "cycloclass.abelian", "cycloclass.classnumber"}


def test_cli_import_loads_every_layer_and_no_more_of_the_stdlib():
    # the stdlib modules that the package's modules import at their top
    stdlib = _added_modules(
        "import __future__, functools, itertools, math, operator, os, sys, "
        "types")
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
        import contextlib, io
        import cycloclass.cli
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cycloclass.cli.run(["hminus", "--m", "39"]) == 0
        assert out.getvalue() == "2\\n"
    """))
    assert "cycloclass.classnumber" in added
    assert not added & {"json", "hashlib", "tempfile", "dataclasses"}
    assert not added & ARGPARSE


@pytest.mark.parametrize("argv,stdout", [
    (["hminus", "--m=39"], "2\n"),
    (["hminus", "--help"], "usage: cycloclass hminus [-h]")])
def test_help_and_other_forms_answer_through_argparse(argv, stdout):
    added = _added_modules(textwrap.dedent("""
        import contextlib, io
        import cycloclass.cli
        with contextlib.redirect_stdout(io.StringIO()) as out:
            try:
                code = cycloclass.cli.run({argv!r})
            except SystemExit as exit:
                code = exit.code
        assert code == 0 and out.getvalue().startswith({stdout!r})
    """).format(argv=argv, stdout=stdout))
    assert "argparse" in added


def _cache_round_trip(cache_file, prelude=""):
    """A script that runs ``hminus --m 39`` twice against ``cache_file``,
    a miss and then a hit, after ``prelude``."""
    return textwrap.dedent("""
        {prelude}
        import contextlib, io
        import cycloclass.cli
        for _ in range(2):
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert cycloclass.cli.run(
                    ["--cache", {cache_file!r}, "hminus", "--m", "39"]) == 0
            assert out.getvalue() == "2\\n"
    """).format(prelude=prelude, cache_file=str(cache_file))


@pytest.mark.skipif(not BUILTIN_SHA256, reason="no builtin SHA-256 module")
def test_cache_miss_and_hit_load_no_hashlib(tmp_path):
    # hashlib loads OpenSSL's _hashlib, which costs a cold query more than
    # the builtin module
    cache_file = tmp_path / "cache.json"
    added = _added_modules(_cache_round_trip(cache_file))
    assert "json" in added and cache_file.exists()
    assert not added & {"hashlib", "_hashlib"}


def test_cache_miss_and_hit_load_no_argparse(tmp_path):
    cache_file = tmp_path / "cache.json"
    added = _added_modules(_cache_round_trip(cache_file))
    assert cache_file.exists()
    assert not added & ARGPARSE


def test_builtin_digest_equals_hashlib():
    assert _digest("2") == hashlib.sha256(b"2").hexdigest()
    blobs = [b"", b"2"] + [path.read_bytes()
                           for path in sorted(SRC.glob("*.py"))]
    for blob in blobs:
        assert _sha256(blob).hexdigest() == hashlib.sha256(blob).hexdigest()


def test_without_builtin_sha256_hashlib_writes_the_same_file(tmp_path):
    blocked = textwrap.dedent("""
        import sys
        sys.modules["_sha2"] = sys.modules["_sha256"] = None
        import hashlib
        from cycloclass.cli import _sha256
        assert type(_sha256()) is type(hashlib.sha256())
    """)
    builtin, fallback = tmp_path / "builtin.json", tmp_path / "fallback.json"
    _added_modules(_cache_round_trip(builtin))
    _added_modules(_cache_round_trip(fallback, blocked))
    assert builtin.read_bytes() == fallback.read_bytes()


#: main ends the process with os._exit once both streams are flushed,
#: skipping interpreter finalization, which only frees the loaded modules.
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
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    for name in ("CYCLOCLASS_CACHE", "PYTHONUNBUFFERED"):
        env.pop(name, None)
    for argv, code, stdout, stderr in [
            (["hminus", "--m", "39"], 0, "2\n", ""),
            (["--cache", cache, "hminus", "--m", "39"], 0, "2\n", ""),
            (["--cache", cache, "hminus", "--m", "39"], 0, "2\n", ""),
            (["classify", "--n", "5", "--m", "3"], 2, "",
             "out of scope: n = 5: only even n >= 4 is classified\n"),
            (["hminus", "--help"], 0, "usage: cycloclass hminus", "")]:
        proc = subprocess.run(
            [sys.executable, "-c", _MAIN.format(argv=argv)],
            capture_output=True, text=True, timeout=60, env=env)
        assert (proc.returncode, proc.stderr) == (code, stderr), argv
        assert proc.stdout.startswith(stdout), argv
    assert os.path.exists(cache)


def test_no_query_registers_an_exit_handler(tmp_path):
    # os._exit skips atexit handlers, so none of the program's own cleanup
    # may rely on one: with atexit.register refusing, every family of
    # queries, a cache miss and hit and --help answer in one fresh process
    cache = str(tmp_path / "cache.json")
    _added_modules(textwrap.dedent("""
        import atexit, contextlib, io

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
            with contextlib.redirect_stdout(io.StringIO()):
                assert cycloclass.cli.run(argv) == 0, argv
        with contextlib.redirect_stdout(io.StringIO()) as out:
            try:
                cycloclass.cli.run(["--help"])
            except SystemExit as exit:
                assert exit.code == 0
        assert out.getvalue().startswith("usage: cycloclass")
    """).format(cache=cache))
    assert os.path.exists(cache)
