"""What a cold start of the package loads.

A cold CLI query spends about half its time starting up, so modules the
package does not need for an answer must not be loaded by its import.
These tests name modules, not timings, so that a saving cannot silently
return.
"""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import cycloclass

SRC = Path(cycloclass.__file__).resolve().parent


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


def _added_modules(code):
    """The modules that ``code`` adds to those a bare interpreter holds
    (after site and .pth start-up), sorted."""
    script = textwrap.dedent("""
        import sys
        before = set(sys.modules)
        {code}
        print(" ".join(sorted(set(sys.modules) - before)))
    """).format(code=code)
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    env.pop("CYCLOCLASS_CACHE", None)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_import_loads_neither_dataclasses_nor_inspect():
    added = _added_modules("import cycloclass, cycloclass.cli")
    assert "cycloclass.cli" in added
    assert not added & {"dataclasses", "inspect"}


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
