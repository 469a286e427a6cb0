"""The library's surface: every name that src defines, src uses or exports,
one check policy, errors.check, the only raise of AssertionError, and one
guard, groups.require_plain, for the results keyed by isomorphism type
(the counting formulas); every other entry point reads the law's data and
answers es1~ and es2~ as their partners es1 and es2.

Test references (brute-force sets, spelled-out formulas, helper walks) live
in tests/, next to the tests that read them, so that src holds only what
its callers need.
"""

import ast
import re
from pathlib import Path

import pytest

import extraspecial
from extraspecial import counting, morphisms, oracle, orbits
from extraspecial.errors import ContextError
from extraspecial.groups import ES1, ES1_TILDE, ES2, ES2_TILDE, GroupId, group
from extraspecial.modp import Mat

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


def _plain_kind_tuples(tree: ast.Module) -> list:
    """Line numbers of each tuple spelled (ES1, ES2)."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Tuple)
            and [getattr(e, "id", None) for e in node.elts] == ["ES1", "ES2"]]


def test_only_groups_spells_the_plain_kinds_and_their_refusal():
    # groups.PLAIN_KINDS and groups.require_plain; every other module reads them
    found = {path.stem: (bool(_plain_kind_tuples(ast.parse(path.read_text()))),
                         "es1/es2 only" in path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    assert {module: seen for module, seen in found.items() if any(seen)} == {
        "groups": (True, True)}


def test_the_guard_sees_the_plain_kind_tuple():
    tree = ast.parse("k in (ES1, ES2)\nt = (ES1, ES2, ES1_TILDE)\nu = ES1, ES2\nv = (ES2, ES1)\n")
    assert sorted(_plain_kind_tuples(tree)) == [1, 3]


_ONE = Mat.identity(3, 1)

# (entry point, a call of it on es1~ or es2~, the kind it names)
PLAIN_ONLY = [
    ("sigma_scan_count", lambda: oracle.sigma_scan_count(ES1_TILDE, 3, 1, True), ES1_TILDE),
    ("aut_order", lambda: counting.aut_order(ES2_TILDE, 3, 1), ES2_TILDE),
    ("end_order", lambda: counting.end_order(ES1_TILDE, 3, 1), ES1_TILDE),
]


@pytest.mark.parametrize("name,call,kind", PLAIN_ONLY, ids=[row[0] for row in PLAIN_ONLY])
def test_plain_only_entry_points_refuse_the_tilde_kinds_in_one_format(name, call, kind):
    with pytest.raises(ContextError) as exc:
        call()
    assert re.fullmatch(rf"[a-z ]+ cover es1/es2 only, got {re.escape(kind)}", str(exc.value))


def _params(m):
    return m.sigma.rows, m.f, m.s


# (entry point, its answer on a group of a kind at (3, 1), a tilde kind)
LAW_ONLY = [
    ("enumerate_morphisms",
     lambda k: [_params(m) for m in morphisms.enumerate_morphisms(group(k, 3, 1))], ES1_TILDE),
    ("inner_automorphism",
     lambda k: _params(morphisms.inner_automorphism(group(k, 3, 1).element((1, 0)))), ES2_TILDE),
    ("build_endo", lambda k: _params(morphisms.build_endo(group(k, 3, 1), _ONE, _ONE, _ONE, _ONE,
                                                          (0,), (0,))), ES1_TILDE),
    ("presentation", lambda k: oracle.presentation(group(k, 3, 1)), ES2_TILDE),
    ("classify", lambda k: [orbits.classify(group(k, 3, 1).element(c))
                            for c in group(k, 3, 1).elements()], ES2_TILDE),
    ("orbit_labels", lambda k: orbits.orbit_labels(GroupId(k, 3, 1)), ES1_TILDE),
]


@pytest.mark.parametrize("name,answer,kind", LAW_ONLY, ids=[row[0] for row in LAW_ONLY])
def test_law_entry_points_answer_tilde_as_partner(name, answer, kind):
    # the tilde kinds share the power form and M - M^t with their partners
    assert answer(kind) == answer({ES1_TILDE: ES1, ES2_TILDE: ES2}[kind])


_KIND_NAMES = {"ES1", "ES2", "ES1_TILDE", "ES2_TILDE", "PLAIN_KINDS"}


def _kind_reads(tree: ast.Module) -> list:
    """Line numbers of each import of a kind constant and of each comparison
    with, or lookup by, an attribute `.kind`."""
    def is_kind(node):
        return isinstance(node, ast.Attribute) and node.attr == "kind"

    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and {a.name for a in node.names} & _KIND_NAMES:
            found.append(node.lineno)
        elif isinstance(node, ast.Compare) and any(map(is_kind, [node.left, *node.comparators])):
            found.append(node.lineno)
        elif isinstance(node, ast.Subscript) and is_kind(node.slice):
            found.append(node.lineno)
    return found


def test_orbits_reads_no_kind():
    # orbits picks every row and label off the power form and A, not the kind
    assert _kind_reads(ast.parse((SRC / "orbits.py").read_text())) == []


def test_the_guard_sees_kind_imports_comparisons_and_lookups():
    tree = ast.parse("from .groups import ES1, group\nfrom .groups import Group\n"
                     "if g.kind == 'es1': pass\nx = 'es2' != e.group.kind\n"
                     "rows = TABLE[g.kind]\nname = f'{g.kind}'\n")
    assert sorted(_kind_reads(tree)) == [1, 3, 4, 5]
