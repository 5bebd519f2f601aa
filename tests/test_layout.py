"""Every definition in the package earns its place.

A function, class or method in ``src/cycloclass`` must be referenced
somewhere in the package source or by the acceptance tests; code that only
other tests need belongs in ``oracles``.  A name is used where it is read:
an assignment target such as a local ``cokernel = ...`` does not keep a
definition of that name alive.  No import counts as a use: a module
that imports a name and never uses it does not keep the name's definition
alive.  A use inside a definition of the same name does not count either,
so neither recursion nor a method that delegates to its namesake keeps it.
Dunder methods are called by the language and are exempt, and so are
``error`` and ``print_help`` of ``cli._build_parser._Parser``, which
argparse calls.

Every name has one home: a module imports it from the module that defines
it, never through another module that imports it in turn.

Immutability has one mechanism: only ``record.Record`` refuses assignment,
and only ``record`` names ``_rebuild``, which sets a record past its
class's ``__init__``; every other record goes through its checked
constructor.  A record defines ``__init__`` only to check, derive or
default a field: one whose body, past its docstring, only hands its own
parameters, in order and none with a default, to ``super().__init__``
repeats ``Record.__init__``, which takes the fields positionally in slot
order.

Every pinned digest has one home, ``tests/pins.py``: no CI step holds one
and no test file a copy, and the corpus runs on the standard library
alone.  The stdlib-only CI job replays the corpus and runs neither the
console script nor a script of its own.  A rule of the process around
the CLI is a case of the corpus's ``process`` group, whose replay starts
its child once: no test module but ``test_pins.py`` reads its cases or
its conditions, and the other tests of such a rule read its case through
``pins.process_case``.
"""

import ast
import re
import sys
from collections import Counter
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "cycloclass"
WORKFLOW = TESTS.parent / ".github" / "workflows" / "tier1.yml"
HEX_DIGEST = re.compile(r"(?<![0-9a-f])[0-9a-f]{64}(?![0-9a-f])")

CALLED_BY_LIBRARIES = {"cli._build_parser._Parser.error",
                       "cli._build_parser._Parser.print_help"}


def _definitions(node, prefix):
    """(qualified name, name) of every def and class below ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            qualified = f"{prefix}.{child.name}"
            yield qualified, child.name
            yield from _definitions(child, qualified)
        else:
            yield from _definitions(child, prefix)


def _uses(node, enclosing):
    """The names read below ``node``, except inside a def or class of the
    same name; ``enclosing`` holds the names of the defs around it."""
    for child in ast.iter_child_nodes(node):
        loaded = isinstance(getattr(child, "ctx", None), ast.Load)
        if isinstance(child, ast.Name) and loaded:
            name = child.id
        elif isinstance(child, ast.Attribute) and loaded:
            name = child.attr
        else:
            name = None
        if name is not None and name not in enclosing:
            yield name
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            yield from _uses(child, enclosing | {child.name})
        else:
            yield from _uses(child, enclosing)


def test_no_definition_is_used_only_by_tests():
    used = set()
    for path in [*SRC.glob("*.py"), TESTS / "test_acceptance.py"]:
        used.update(_uses(ast.parse(path.read_text()), frozenset()))
    unused = [qualified for path in sorted(SRC.glob("*.py"))
              for qualified, name in _definitions(
                  ast.parse(path.read_text()), path.stem)
              if not name.startswith("__") and name not in used
              and qualified not in CALLED_BY_LIBRARIES]
    assert not unused


def _bound_at_top_level(tree):
    """The names a module binds by def, class or assignment at its top
    level; an import binds a name without defining it."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(target.id for target in ast.walk(node)
                         if isinstance(target, ast.Name)
                         and isinstance(target.ctx, ast.Store))
    return names


def test_every_import_names_the_defining_module():
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    defined = {stem: _bound_at_top_level(tree)
               for stem, tree in trees.items()}
    borrowed = [f"{stem}:{node.lineno} {node.module}.{alias.name}"
                for stem, tree in trees.items()
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level
                for alias in node.names
                if alias.name not in defined.get(node.module, ())]
    assert not borrowed


def test_only_record_refuses_assignment():
    guards = [f"{path.stem}.{node.name}.{method.name}"
              for path in sorted(SRC.glob("*.py"))
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.ClassDef)
              for method in node.body
              if isinstance(method, ast.FunctionDef)
              and method.name in ("__setattr__", "__delattr__")]
    assert guards == ["record.Record.__setattr__", "record.Record.__delattr__"]


def test_only_record_names_its_rebuild():
    # copy, deepcopy and pickle rebuild a record from fields it already
    # checked; no constructor of the package skips its checks that way
    naming = [path.stem for path in sorted(SRC.glob("*.py"))
              if re.search(r"\b_rebuild\b", path.read_text())]
    assert naming == ["record"]


def _passes_its_parameters_through(init):
    """Whether the body of ``init``, past its docstring, is only
    ``super().__init__`` called with the parameters of ``init`` in order,
    none of which has a default."""
    args = init.args
    params = [arg.arg for arg in (args.posonlyargs + args.args)[1:]]
    body = init.body[1:] if ast.get_docstring(init) is not None \
        else init.body
    return (not (args.defaults or args.vararg or args.kwonlyargs
                 or args.kwarg)
            and len(body) == 1
            and ast.unparse(body[0])
            == f"super().__init__({', '.join(params)})")


def test_no_record_constructor_only_passes_its_fields_on():
    # Record.__init__ already takes the fields positionally, in slot order
    through = [f"{path.stem}.{node.name}"
               for path in sorted(SRC.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ClassDef)
               and any(getattr(base, "id", None) == "Record"
                       for base in node.bases)
               for method in node.body
               if isinstance(method, ast.FunctionDef)
               and method.name == "__init__"
               and _passes_its_parameters_through(method)]
    assert through == []


#: every lru_cache in the package, each with the reuse it serves
CACHED = {
    # the record of each modulus, read by every layer in place of its own
    # factoring: one miss per distinct m, p - 1 or phi(n) that a layer
    # reads (hminus over the 121 moduli of hminus-range, caches emptied
    # before each: 121 hits, 303 misses, m and each p - 1 for the unit
    # group; one paper-tables pass from empty caches: 1991 hits, 186
    # misses); bounded by arith._MODULUS_CACHE_SIZE
    "arith.modulus",
    # the CRT primes for one exponent, shared by every m of that exponent
    "classnumber._crt_prime",
    # the generators of (Z/p^e)^x, searched and checked once per prime
    # power and read by the unit group of every m that p^e divides
    # exactly (one paper-tables pass from empty caches: 191 hits, 59
    # misses)
    "classnumber._local_units",
    # the one store of the parts of h^- by conductor, read by hminus at
    # every multiple of a conductor it has evaluated: one paper-tables pass
    # from empty caches skips 488 of its 952 orbits
    "classnumber._conductor_parts",
    # h^- at m, read again by verify and the text sweep at m, at each
    # divisor by every deep query at a multiple of it, and at m/2 by
    # m = 2 mod 4
    "classnumber.hminus",
    # the unit quotient at (q, k), shared by vtilde and c_bound at every m
    # with the same prime and cofactor
    "residue.unit_quotient",
    # the unit cokernel at d, read by the kernel-group witness of every
    # multiple of d and by verify at d
    "residue.vtilde",
    # the description of m at (m, deep): the Whitehead-group fields and,
    # when deep, the checks of verify that read no degree, so those run
    # once per m and are shared by classify and verify at every even n
    # (one paper-tables pass from empty caches: 474 reads, 99 misses)
    "manifoldset._described",
}


def _call_sites(node, scope, name):
    """The qualified name of the def around each call of ``name`` below
    ``node``, ``scope`` being that of ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call) and name in (
                getattr(child.func, "id", None),
                getattr(child.func, "attr", None)):
            yield scope
        inner = f"{scope}.{child.name}" if isinstance(
            child, (ast.FunctionDef, ast.ClassDef)) else scope
        yield from _call_sites(child, inner, name)


def test_factorint_is_called_only_by_the_modulus_record():
    # m is factored in one place: every layer reads arith.modulus(m)
    sites = [site for path in sorted(SRC.glob("*.py"))
             for site in _call_sites(ast.parse(path.read_text()), path.stem,
                                     "factorint")]
    assert sites == ["arith.Modulus.__init__"]


def _is_lru_cache(decorator):
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(target, "id", getattr(target, "attr", None)) == "lru_cache"


def test_lru_caches_are_the_pinned_ones():
    cached = {f"{path.stem}.{node.name}"
              for path in sorted(SRC.glob("*.py"))
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.FunctionDef)
              and any(map(_is_lru_cache, node.decorator_list))}
    assert cached == CACHED


def test_the_workflow_holds_no_pinned_answer():
    # a step that compares with a literal replays the corpus instead, and
    # no step runs a script of its own
    text = WORKFLOW.read_text()
    assert not HEX_DIGEST.findall(text)
    assert "<<" not in text


def _job(name):
    """The lines of one job of the workflow, from its name to the next."""
    lines = WORKFLOW.read_text().splitlines()
    start = lines.index(f"  {name}:") + 1
    end = next((i for i in range(start, len(lines))
                if re.match(r"  [\w-]+:", lines[i])), len(lines))
    return lines[start:end]


def test_the_stdlib_job_runs_only_the_corpus():
    # each rule of the process around the CLI is a pin of the corpus's
    # "process" group, which the job replays against the installed
    # package: no step runs the console script (and none a heredoc, as
    # test_the_workflow_holds_no_pinned_answer checks)
    lines = [line.split("#")[0] for line in _job("stdlib-only")]
    assert not [line for line in lines
                if re.search(r"(^|[\s;|&(`$])cycloclass(\s|$)", line)]
    assert "        run: python tests/pins.py" in lines


def test_the_corpus_imports_only_the_stdlib_and_the_package():
    imported = set()
    for node in ast.walk(ast.parse((TESTS / "pins.py").read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
    tops = {name.split(".")[0] for name in imported}
    assert "cycloclass" in tops
    assert tops - {"cycloclass"} <= sys.stdlib_module_names


def test_every_digest_under_tests_is_held_once():
    held = Counter(digest for path in TESTS.iterdir() if path.is_file()
                   for digest in HEX_DIGEST.findall(path.read_text()))
    assert held
    assert [digest for digest, count in held.items() if count > 1] == []


def _reads(tree, names):
    """Whether ``tree`` reads any of ``names`` from ``pins``."""
    return any(
        isinstance(node, ast.Attribute) and node.attr in names
        and getattr(node.value, "id", None) == "pins"
        or isinstance(node, ast.ImportFrom) and node.module == "pins"
        and any(alias.name in names for alias in node.names)
        for node in ast.walk(tree))


def test_only_the_corpus_reads_its_process_cases():
    # a test that starts a CLI child to compare its exit code and streams
    # with a case would start that child a second time
    reading = [path.name for path in sorted(TESTS.glob("*.py"))
               if path.name not in ("pins.py", "test_pins.py")
               and _reads(ast.parse(path.read_text()),
                          {"PROCESS", "CONDITIONS"})]
    assert reading == []
