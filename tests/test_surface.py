"""The library's surface: every name that src defines, src uses or exports.

Test references (brute-force sets, spelled-out formulas, helper walks) live
in tests/, next to the tests that read them, so that src holds only what
its callers need.
"""

import ast
from pathlib import Path

import extraspecial

SRC = Path(extraspecial.__file__).parent

# the independent normal-form route: kept for the tests' cross-checks
EXEMPT = {"oracle.hom_table"}


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
              if name not in used and name not in extraspecial.__all__
              and qualified not in EXEMPT]
    assert unused == []


def test_the_guard_sees_a_name_with_no_caller():
    tree = ast.parse("def used():\n    pass\n\n\ndef orphan():\n    return used()\n")
    names = [name for _, name in _definitions("m", tree) if name not in _names_used(tree)]
    assert names == ["orphan"]
