"""The library's surface: every name that src defines, src uses or exports,
and one check policy, errors.check, the only raise of AssertionError.

Test references (brute-force sets, spelled-out formulas, helper walks) live
in tests/, next to the tests that read them, so that src holds only what
its callers need.
"""

import ast
from pathlib import Path

import extraspecial

SRC = Path(extraspecial.__file__).parent


def _definitions(module: str, tree: ast.Module):
    """(qualified name, name) of each top-level function and class, and of
    each non-dunder method."""
    defs = (ast.FunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield f"{module}.{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and not (item.name.startswith("__")
                                                   and item.name.endswith("__")):
                    yield f"{module}.{node.name}.{item.name}", item.name


def _names_used(tree: ast.Module) -> set:
    """Every name the code reads: variables, attributes and imported names."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


def test_every_src_name_has_a_src_caller_or_is_exported():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used = set().union(*map(_names_used, trees.values()))
    unused = [qualified for module, tree in trees.items()
              for qualified, name in _definitions(module, tree)
              if name not in used and name not in extraspecial.__all__]
    assert unused == []


def test_the_guard_sees_a_name_with_no_caller():
    tree = ast.parse("def used():\n    pass\n\n\ndef orphan():\n    return used()\n")
    names = [name for _, name in _definitions("m", tree) if name not in _names_used(tree)]
    assert names == ["orphan"]


def _assertions(tree: ast.Module) -> list:
    """Line numbers of each assert statement and each raise of AssertionError."""
    def raised(exc):
        exc = exc.func if isinstance(exc, ast.Call) else exc
        return isinstance(exc, ast.Name) and exc.id == "AssertionError"

    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Assert) or (isinstance(node, ast.Raise) and raised(node.exc))]


def test_only_errors_check_raises_assertion_error():
    # assert vanishes under -O; errors.check is kept
    found = {path.stem: len(_assertions(ast.parse(path.read_text())))
             for path in sorted(SRC.glob("*.py"))}
    assert {module: count for module, count in found.items() if count} == {"errors": 1}


def test_the_guard_sees_assert_and_raise():
    tree = ast.parse("assert x\nraise AssertionError('m')\nraise AssertionError\n"
                     "raise ValueError('m')\nraise\n")
    assert _assertions(tree) == [1, 2, 3]
