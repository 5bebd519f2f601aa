"""Every definition in ``abelian`` and ``involutive`` earns its place.

A function, class or method there must be referenced somewhere in the
package source (re-exports in ``__init__`` included) or by the acceptance
tests; code that only other tests need belongs in ``oracles``.  Dunder
methods are called by the language and are exempt.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "cycloclass"


def _tree(path):
    return ast.walk(ast.parse(path.read_text()))


def test_no_definition_is_used_only_by_tests():
    used = set()
    for path in [*SRC.glob("*.py"), TESTS / "test_acceptance.py"]:
        for node in _tree(path):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    unused = [f"{module}.{node.name}" for module in ("abelian", "involutive")
              for node in _tree(SRC / f"{module}.py")
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("__") and node.name not in used]
    assert not unused
