"""Answer checks: stored reference-commit answers and the acceptance pins.

Every answer is compared with the one stored in perfbench/expected/.
Where tests/test_acceptance.py pins a value (the c-bound tables,
vtilde(21), the minus-class-number lists to 200 and the Kervaire-Murthy
Tate groups), the answer must also agree with the pin.  The pins are
read from the test file with ``ast``, so the test is never imported or
edited; the list ``HMINUS_ONE`` the test compares against is read from
the program's source the same way.
"""

import ast
import json

from worker import answer_text


def group_text(factors):
    """str() of a FinAbGroup with these invariant factors."""
    return " x ".join(f"Z/{d}" for d in factors) if factors else "0"


def _odd_part(x):
    while x and x % 2 == 0:
        x //= 2
    return x


def _function(tree, name):
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    raise ValueError(f"{name} not found")


def _call_name(node):
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id
    return None


def _compares(fn):
    for node in ast.walk(fn):
        if isinstance(node, ast.Compare) and len(node.comparators) == 1:
            yield node.left, node.comparators[0]


def _assigned(fn, name):
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise ValueError(f"{name} is not assigned")


def _parse_pins(test_source, classnumber_source):
    tree = ast.parse(test_source)
    pins = {"c_bound": {}, "vtilde": {}, "km_tate": {}}

    crit1 = _function(tree, "test_criterion_1_c_bound_tables")
    for p, value in _assigned(crit1, "two_p").items():
        pins["c_bound"][2 * p] = value
    for (p, q), value in _assigned(crit1, "pq").items():
        pins["c_bound"][p * q] = value
    for left, right in _compares(crit1):
        if _call_name(left) == "c_bound" and \
                isinstance(left.args[0], ast.Constant):
            pins["c_bound"][left.args[0].value] = ast.literal_eval(right)

    crit2 = _function(tree, "test_criterion_2_vtilde_21")
    for left, right in _compares(crit2):
        if _call_name(left) == "vtilde" and _call_name(right) == "FinAbGroup":
            pins["vtilde"][left.args[0].value] = answer_text(group_text(
                ast.literal_eval(right.args[0])))

    crit3 = _function(tree, "test_criterion_3_hminus_lists_to_200")
    for left, right in _compares(crit3):
        if isinstance(left, ast.Name) and left.id == "odd_only" and \
                isinstance(right, ast.Set):
            pins["odd_hminus_one"] = ast.literal_eval(right)

    crit5 = _function(tree, "test_criterion_5_tate_machinery")
    for node in ast.walk(crit5):
        if isinstance(node, ast.For) and _call_name(node.iter) == "range":
            low, high = (ast.literal_eval(a) for a in node.iter.args)
            # the pinned group: order 2^(2^(n-2) - 1), every factor 2
            for n in range(low, high):
                pins["km_tate"][n] = answer_text(
                    group_text([2] * (2 ** (n - 2) - 1)))
            break

    namespace = {"__builtins__": {"frozenset": frozenset}}
    for node in ast.parse(classnumber_source).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and \
                isinstance(node.targets[0], ast.Name) and \
                node.targets[0].id.startswith("HMINUS_ONE"):
            namespace[node.targets[0].id] = eval(  # literals and set algebra
                compile(ast.Expression(node.value), "classnumber", "eval"),
                namespace)
    pins["hminus_one"] = set(namespace["HMINUS_ONE"])
    pins["hminus_limit"] = 200
    return pins


def load_pins(root):
    """The acceptance pins, or {} when the test file is not there."""
    test = root / "tests" / "test_acceptance.py"
    source = root / "src" / "cycloclass" / "classnumber.py"
    if not test.is_file():
        return {}
    return _parse_pins(test.read_text(encoding="utf-8"),
                       source.read_text(encoding="utf-8"))


def _values(args, answer):
    """The list of values in an answer to a query over `args` moduli."""
    value = ast.literal_eval(answer)
    return value if len(args) > 1 else [value]


def pin_failure(query, answer, pins):
    """Why the answer contradicts a pinned value, or None."""
    if not pins or not isinstance(answer, str):
        return None
    kind, *args = query
    if kind == "c_bound":
        for m, got in zip(args, _values(args, answer)):
            if m in pins["c_bound"] and got != pins["c_bound"][m]:
                return f"c_bound({m}) is pinned to {pins['c_bound'][m]}"
    if kind == "vtilde" and args[0] in pins["vtilde"]:
        if answer != pins["vtilde"][args[0]]:
            return f"vtilde({args[0]}) is pinned to {pins['vtilde'][args[0]]}"
    if kind == "tate_km" and args[0] in pins["km_tate"]:
        if answer != pins["km_tate"][args[0]]:
            return f"the Tate group at level {args[0]} is pinned"
    if kind == "hminus":
        for m, h in zip(args, _values(args, answer)):
            if not 2 <= m <= pins["hminus_limit"]:
                continue
            if (h == 1) != (m in pins["hminus_one"]):
                return f"h-({m}) contradicts the pinned list of h- = 1"
            if (h != 1 and _odd_part(h) == 1) != \
                    (m in pins["odd_hminus_one"]):
                return f"h-({m}) contradicts the pinned list of odd(h-) = 1"
    return None


def check_answer(query, answer, expected, pins):
    """None when the answer is right, else the reason it is not."""
    stored = expected.get(json.dumps(query), {}).get("answer")
    if stored is None:
        return "no stored answer for this query"
    if answer != stored:
        return f"answer differs from the stored one: {answer!r}"
    return pin_failure(query, answer, pins)
