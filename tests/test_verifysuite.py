"""The verify battery: it keeps checking under python -O, and its batched
checks still fail when the law or the map under test is wrong."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from extraspecial import oracle, verifysuite
from extraspecial.groups import ES1, ES2, ES2_TILDE, Group, GroupId, group
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

    monkeypatch.setattr(Group, "mul", wrong)
    with pytest.raises(AssertionError, match="batched and tuple products differ"):
        verifysuite.check_group_laws(ES1, 3, 1)


def test_iso_check_rejects_the_identity_coordinate_map():
    # es2~ and es2 share coordinates but not the cocycle
    with pytest.raises(AssertionError, match="not a homomorphism"):
        verifysuite._check_iso(group(ES2_TILDE, 3, 2), group(ES2, 3, 2), lambda c: c)


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

    def record(m, exhaustive=True):
        seen.append(m.scalar_mod_p)
        return law(m, exhaustive)

    monkeypatch.setattr(verifysuite, "scalar_action_check", record)
    verifysuite.check_scalar_action(kind, 3, 1)
    assert len(seen) == count
    assert set(seen) == set(range(3))


def test_scalar_action_row_fails_on_a_wrong_law(monkeypatch):
    monkeypatch.setattr(verifysuite, "scalar_action_check",
                        lambda m, exhaustive=True: m.scalar_mod_p != 2)
    with pytest.raises(AssertionError, match="scalar law fails"):
        verifysuite.check_scalar_action(ES2, 3, 1)


def test_polynomial_rows_compare_the_twins_with_the_echelon_cells(monkeypatch):
    monkeypatch.setattr(oracle, "cell_polynomial", lambda *_args: ())
    with pytest.raises(AssertionError, match="alpha_k polynomial at n=1 k=0 differs"):
        verifysuite.check_polynomials(1)


@pytest.mark.parametrize("suite", ["quick", "full"])
def test_readme_states_each_suite_size(suite):
    text = " ".join((ROOT / "README.md").read_text().split())
    stated = re.findall(rf"`--suite {suite}` runs (\d+)", text)
    assert stated == [str(len(verifysuite.checks(suite)))]
