"""Every definition in the package earns its place.

A function, class or method in ``src/cycloclass`` must be referenced
somewhere in the package source (re-exports in ``__init__`` included) or by
the acceptance tests; code that only other tests need belongs in
``oracles``.  Dunder methods are called by the language and are exempt, and
so is ``cli._Parser.error``, which argparse calls.

Immutability has one mechanism: only ``record.Record`` refuses assignment.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "cycloclass"

CALLED_BY_LIBRARIES = {"cli._Parser.error"}


def _definitions(node, prefix):
    """(qualified name, name) of every def and class below ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            qualified = f"{prefix}.{child.name}"
            yield qualified, child.name
            yield from _definitions(child, qualified)
        else:
            yield from _definitions(child, prefix)


def test_no_definition_is_used_only_by_tests():
    used = set()
    for path in [*SRC.glob("*.py"), TESTS / "test_acceptance.py"]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    unused = [qualified for path in sorted(SRC.glob("*.py"))
              for qualified, name in _definitions(
                  ast.parse(path.read_text()), path.stem)
              if not name.startswith("__") and name not in used
              and qualified not in CALLED_BY_LIBRARIES]
    assert not unused


def test_only_record_refuses_assignment():
    guards = [f"{path.stem}.{node.name}.{method.name}"
              for path in sorted(SRC.glob("*.py"))
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.ClassDef)
              for method in node.body
              if isinstance(method, ast.FunctionDef)
              and method.name in ("__setattr__", "__delattr__")]
    assert guards == ["record.Record.__setattr__", "record.Record.__delattr__"]
