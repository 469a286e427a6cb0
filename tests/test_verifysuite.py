"""The verify battery: it keeps checking under python -O, and its batched
checks still fail when the law or the map under test is wrong."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from extraspecial import oracle, verifysuite
from extraspecial.errors import CapExceeded
from extraspecial.groups import (ES1, ES1_TILDE, ES2, ES2_TILDE, Element, Group, GroupId,
                                 group, lambda_iso)
from extraspecial.morphisms import f_table

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# a wrong closed form must still fail its check in an optimized interpreter
_SCRIPT = """
import sys
from extraspecial import counting, verifysuite
assert False, "assert statements are stripped"  # must not fire under -O
counting.end_order = lambda *args: -1
try:
    verifysuite.check_endo_count("es1", 3, 1)
except AssertionError as exc:
    print(exc)
    sys.exit(0)
sys.exit(3)
"""


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def test_checks_fail_under_python_O():
    done = subprocess.run([sys.executable, "-O", "-c", _SCRIPT], env=_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "enumerated 729 != formula -1" in done.stdout


def test_quick_suite_passes_under_python_O():
    done = subprocess.run([sys.executable, "-O", "-m", "extraspecial.cli", "verify",
                           "--suite", "quick"], env=_env(),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == len(verifysuite.checks("quick"))
    assert all(line.startswith("PASS ") for line in lines), done.stdout


def test_group_laws_catch_one_wrong_tuple_product(monkeypatch):
    law = Group.mul

    def wrong(self, a, b):
        out = law(self, a, b)
        if self.kind == ES1 and a == b == (1, 0, 0):
            return out[:-1] + ((out[-1] + 1) % self.p,)
        return out

    group(ES1, 3, 1)  # cache the group, and its power form, under the true law
    monkeypatch.setattr(Group, "mul", wrong)
    with pytest.raises(AssertionError, match="batched and tuple products differ"):
        verifysuite.check_group_laws(ES1, 3, 1)


def test_iso_check_rejects_the_identity_coordinate_map():
    # es2~ and es2 share coordinates but not the cocycle
    with pytest.raises(AssertionError, match="not a homomorphism"):
        verifysuite._check_iso(group(ES2_TILDE, 3, 2), group(ES2, 3, 2), lambda c: c)


def test_iso_check_rejects_a_bijection_that_is_not_a_homomorphism():
    gt, g = group(ES1_TILDE, 3, 1), group(ES1, 3, 1)
    swap = {(1, 0, 0): (0, 1, 0), (0, 1, 0): (1, 0, 0)}  # two non-central elements

    def phi(c):
        image = lambda_iso(Element(gt, c)).coords
        return swap.get(image, image)

    verifysuite._check_iso(gt, g, lambda c: lambda_iso(Element(gt, c)).coords)
    with pytest.raises(AssertionError, match="not a homomorphism"):
        verifysuite._check_iso(gt, g, phi)


def test_iso_check_reads_the_cached_tables(monkeypatch):
    verifysuite.check_delta_iso(3, 1)

    def refuse(*args, **kwargs):
        raise AssertionError("the iso check swept the law again")

    monkeypatch.setattr(Group, "mul_index", refuse)
    verifysuite.check_delta_iso(3, 1)


def test_iso_check_refuses_past_the_table_cap_before_mapping(monkeypatch):
    def refuse(e):
        raise AssertionError("mapped an element")

    monkeypatch.setattr(verifysuite, "lambda_iso", refuse)
    with pytest.raises(CapExceeded, match="TABLE_CAP"):
        verifysuite.check_lambda_iso(3, 3)


def test_f_table_rejects_a_non_central_commutator(monkeypatch):
    g = Group(GroupId(ES2, 3, 1))  # not the cached group: its tables stay clean
    law = g.mul_index

    def wrong(A, B):
        out = law(A, B)
        out[0, 1] = 3  # e * y_1 = y_1 (index 1) becomes x_1 (index 3)
        return out

    monkeypatch.setattr(g, "mul_index", wrong)
    with pytest.raises(AssertionError, match="commutator is not central"):
        f_table(g)


@pytest.mark.parametrize("kind,count", [(ES1, 729), (ES2, 135)])
def test_scalar_action_rows_cover_every_scalar(monkeypatch, kind, count):
    law = verifysuite.scalar_action_check
    seen = []

    def record(m):
        seen.append(m.s)
        return law(m)

    monkeypatch.setattr(verifysuite, "scalar_action_check", record)
    verifysuite.check_scalar_action(kind, 3, 1)
    assert len(seen) == count
    assert set(seen) == set(range(3))


def test_scalar_action_row_fails_on_a_wrong_law(monkeypatch):
    monkeypatch.setattr(verifysuite, "scalar_action_check",
                        lambda m: m.s != 2)
    with pytest.raises(AssertionError, match="scalar law fails"):
        verifysuite.check_scalar_action(ES2, 3, 1)


@pytest.mark.parametrize("kind,p,n", [(ES1, 3, 1), (ES2, 3, 2)])
def test_aut_count_row_fails_on_a_map_that_is_not_bijective(monkeypatch, kind, p, n):
    verifysuite.check_aut_count(kind, p, n)
    real = verifysuite.family_images

    def merged(*args):  # one map of the last block sends element 1 where 0 goes
        blocks = list(real(*args))
        blocks[-1][1][1, -1] = blocks[-1][1][0, -1]
        return iter(blocks)

    monkeypatch.setattr(verifysuite, "family_images", merged)
    with pytest.raises(AssertionError, match="not bijective"):
        verifysuite.check_aut_count(kind, p, n)


def test_aut_count_row_fails_on_a_wrong_count(monkeypatch):
    monkeypatch.setattr(verifysuite.counting, "aut_order", lambda *args: 431)
    with pytest.raises(AssertionError, match=r"\|Aut es1\(3,1\)\| enumerated 432 != formula 431"):
        verifysuite.check_aut_count(ES1, 3, 1)


def test_polynomial_rows_compare_the_twins_with_the_echelon_cells(monkeypatch):
    monkeypatch.setattr(oracle, "cell_polynomial", lambda *_args: ())
    with pytest.raises(AssertionError, match="alpha_k polynomial at n=1 k=0 differs"):
        verifysuite.check_polynomials(1)


QUICK_ROWS = [
    "group-laws-es1(3,1)", "group-laws-es2(3,1)", "group-laws-es1~(3,1)",
    "group-laws-es2~(3,1)", "lambda-iso-(3,1)", "delta-iso-(3,1)",
    "hom-search-es1(3,1)", "hom-search-es2(3,1)", "endo-count-es1(3,1)",
    "endo-count-es2(3,1)", "endo-count-es1~(3,1)", "endo-count-es2~(3,1)",
    "aut-count-es1(3,1)", "aut-count-es2(3,1)", "aut-count-es1~(3,1)",
    "aut-count-es2~(3,1)", "orbits-es1(3,1)", "orbits-es2(3,1)", "orbits-es1~(3,1)",
    "orbits-es2~(3,1)", "degeneration-order-es1(3,1)", "degeneration-order-es2(3,1)",
    "degeneration-order-es1~(3,1)", "degeneration-order-es2~(3,1)",
    "counting-scans-(3,1)", "counting-polynomials-n1",
    "im-phi2-(3,1)", "scalar-action-es1(3,1)", "scalar-action-es2(3,1)",
]
FULL_ONLY_ROWS = {
    "lambda-iso-(5,1)", "delta-iso-(5,1)", "lambda-iso-(3,2)", "delta-iso-(3,2)",
    "hom-search-es1(5,1)", "hom-search-es2(5,1)", "endo-count-es1(5,1)",
    "endo-count-es2(5,1)", "aut-count-es2(3,2)", "orbits-es2(3,2)",
    "degeneration-order-es2(3,2)", "counting-scans-(3,2)", "counting-scans-(5,1)",
    "counting-polynomials-n2", "counting-polynomials-n3",
}


def test_battery_row_names_are_pinned():
    quick = [name for name, _ in verifysuite.checks("quick")]
    full = [name for name, _ in verifysuite.checks("full")]
    assert quick == QUICK_ROWS
    assert full[:len(quick)] == quick
    assert len(full) == len(set(full)) == 44
    assert set(full) == set(QUICK_ROWS) | FULL_ONLY_ROWS


@pytest.mark.parametrize("suite", ["quick", "full"])
def test_readme_states_each_suite_size(suite):
    text = " ".join((ROOT / "README.md").read_text().split())
    stated = re.findall(rf"`--suite {suite}` runs (\d+)", text)
    assert stated == [str(len(verifysuite.checks(suite)))]


def test_readme_library_example_runs_and_prints_its_comments(capsys):
    text = (ROOT / "README.md").read_text()
    block = re.search(r"## Library\n\n```python\n(.*?)```", text, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    out = capsys.readouterr().out.splitlines()
    assert out == ["(1, 1, 1)", "True 1", "Mat(3, [[1, 0], [0, 1]]) 1", "432", "729", "252801"]
    # each print's comment states what it prints
    comments = [line.split("#")[1].strip() for line in block.splitlines() if "print(" in line]
    assert all(c.startswith(o) for c, o in zip(comments, out, strict=True))
