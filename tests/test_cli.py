"""Command-line surface: output conventions, exit codes, census determinism."""

import concurrent.futures
import hashlib
import json
import multiprocessing
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from extraspecial import cli, config, counting, oracle
from extraspecial.groups import parse_element

SRC = Path(__file__).resolve().parents[1] / "src"


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_mul(capsys):
    code, out, _ = run(capsys, "mul", "es1(3,1):[1|0|0]", "es1(3,1):[0|1|0]")
    assert code == 0
    assert out.strip() == "es1(3,1):[1|1|1]"


def test_mul_output_reparses(capsys):
    code, out, _ = run(capsys, "mul", "es2(3,2):[8|1|2|0]", "es2(3,2):[4|2|1|1]")
    assert code == 0
    e = parse_element(out.strip())
    assert e.group.kind == "es2"


def test_mul_mixed_groups_exit_1(capsys):
    code, _, err = run(capsys, "mul", "es1(3,1):[1|0|0]", "es1(5,1):[1|0|0]")
    assert code == 1
    assert "error" in err


def test_parse_failure_exit_2(capsys):
    code, _, err = run(capsys, "mul", "es1(3,1):[1|0]", "es1(3,1):[0|1|0]")
    assert code == 2
    assert "error" in err


def test_order(capsys):
    code, out, _ = run(capsys, "order", "es2(3,1):[1|0]")
    assert code == 0 and out.strip() == "9"
    code, out, _ = run(capsys, "order", "es2(3,1):[3|0]")
    assert code == 0 and out.strip() == "3"


def test_classify_plain_and_json(capsys):
    code, out, _ = run(capsys, "classify", "es2(3,1):[3|2]")
    assert code == 0 and out.strip() == "ES2_OB(2)"
    code, out, _ = run(capsys, "classify", "es2(3,1):[3|2]", "--json")
    doc = json.loads(out)
    assert doc["label"] == "ES2_OB(2)"
    assert doc["orbit_cardinality"] == 3
    assert doc["image_class"] == "SUBGROUP_H"


def test_endo_identity(capsys):
    code, out, _ = run(capsys, "endo", "es1(3,1)", "A=[1]", "B=[1]")
    assert code == 0
    assert out.strip() == "valid automorphism, l=1"


def test_endo_check_and_apply(capsys):
    code, out, _ = run(capsys, "endo", "es1(3,1)", "A=[1]", "B=[1]", "alpha=[1]",
                       "--check", "--apply", "[1|0|0]")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "valid automorphism, l=1"
    assert lines[1] == "scalar action check passed (exhaustive)"
    assert lines[2] == "es1(3,1):[1|0|1]"


def test_endo_check_reports_a_failed_scalar_action(capsys, monkeypatch):
    monkeypatch.setattr(cli, "scalar_action_check", lambda morph: False)
    code, out, _ = run(capsys, "endo", "es1(3,1)", "A=[1]", "B=[1]", "--check")
    assert code == 1
    assert out.strip().splitlines() == ["valid automorphism, l=1",
                                        "scalar action check FAILED"]


def test_endo_check_is_exhaustive_up_to_the_table_cap(capsys):
    # es1(11,1) has 1331 elements: under TABLE_CAP = 2048, over the old limit of 1000
    code, out, _ = run(capsys, "endo", "es1(11,1)", "A=[1]", "B=[1]", "--check")
    assert code == 0
    assert out.strip().splitlines() == ["valid automorphism, l=1",
                                        "scalar action check passed (exhaustive)"]


def _identity(n):
    return "[" + ",".join(str(int(i == j)) for i in range(n) for j in range(n)) + "]"


def test_endo_check_samples_past_the_element_cap(capsys):
    # es1(11,3) has 19,487,171 elements, past ELEMENT_CAP: the sampled pairs are
    # drawn coordinate by coordinate, with no table of all elements
    one = _identity(3)
    code, out, _ = run(capsys, "endo", "es1(11,3)", f"A={one}", f"B={one}",
                       "alpha=[1,0,0]", "--check")
    assert code == 0
    assert out.strip().splitlines() == ["valid automorphism, l=1",
                                        "scalar action check passed (sampled)"]


def test_endo_check_samples_a_group_of_a_million_elements(capsys):
    # es2(103,1) has 1,092,727 elements; its 400 sampled rows once needed a
    # 4.2 M-cell table of central shifts and were refused
    code, out, _ = run(capsys, "endo", "es2(103,1)", "A=[1]", "B=[1]", "--check")
    assert code == 0
    assert out.strip().splitlines() == ["valid automorphism, a=1",
                                        "scalar action check passed (sampled)"]


@pytest.mark.parametrize("spec,blocks,x,image", [
    ("es2(4099,1)", ["A=[1]", "B=[1]"], "[5|7]", "[5|7]"),
    # u1 -> 2 u1 + p q, q = (1/2) 14 u1^2 = 198 mod 2053; w1 -> 7 u1 + w1
    ("es2(2053,1)", ["A=[2]", "B=[1]", "D=[7]"], "[100|5]", "[406694|705]"),
], ids=["identity", "quadratic-term"])
def test_endo_applies_one_element_of_a_large_es2(capsys, spec, blocks, x, image):
    # one row once paid for a table of p^2 central shifts, refused past 4 M cells
    code, out, _ = run(capsys, "endo", spec, *blocks, "--apply", x)
    assert code == 0
    assert out.strip().splitlines()[1] == f"{spec}:{image}"


@pytest.mark.parametrize("action", [["--check"], ["--apply", "[1,0,0,0,0|0,0,0,0,0|0]"]])
def test_endo_past_int64_indices_exit_1(capsys, action):
    # es1(101,5) has 101^11 > 2^63 elements: refused, not a traceback
    one = _identity(5)
    code, out, err = run(capsys, "endo", "es1(101,5)", f"A={one}", f"B={one}", *action)
    assert code == 1
    assert out.strip() == "valid automorphism, l=1"
    assert err.startswith("error:") and "int64" in err


def test_endo_es2_lift_tag(capsys):
    code, out, _ = run(capsys, "endo", "es2(3,1)", "A=[1]", "B=[1]", "a=4",
                       "--apply", "[1|0]")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "valid automorphism, a=4"
    assert lines[1] == "es2(3,1):[4|0]"


def test_endo_invalid_names_identity(capsys):
    code, out, _ = run(capsys, "endo", "es2(3,2)", "A=[1,1,0,1]", "B=[1,0,0,1]")
    assert code == 1
    assert out.strip() == "invalid: first-row constraint a_{1j}=0 violated"
    code, out, _ = run(capsys, "endo", "es1(3,2)", "A=[1,0,0,1]", "B=[1,1,0,1]")
    assert code == 1
    assert out.strip().startswith("invalid: not in symp^scalar")


def test_endo_bad_params_exit_2(capsys):
    code, _, err = run(capsys, "endo", "es1(3,1)", "A=[1,0]")
    assert code == 2
    code, _, err = run(capsys, "endo", "es1(3,1)", "Q=[1]")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["es1(3,1)", "A=[1]", "B=[1]", "a=5"],  # es1 has no central lift
    ["es1(3,1)", "A=[1]", "B=[1]", "A=[2]"],
    ["es2(3,1)", "A=[1]", "B=[1]", "a=1", "a=4"],
    ["es1(3,1)", "A=[1]", "B=[1]", "--apply", "[1|0]"],
    ["es1(3,1)", "A=[1]", "B=[1]", "--check", "--apply", "[1|x|0]"],
    ["es1(3,1)", "A=[1]", "B=[1]", "alpha=[1,2]"],  # alpha has n = 1 entries on es1
])
def test_endo_malformed_input_exits_2_before_any_output(capsys, argv):
    code, out, err = run(capsys, "endo", *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:")


def test_orbits_inventory(capsys):
    code, out, _ = run(capsys, "orbits", "es2(3,2)")
    assert code == 0
    rows = json.loads(out)
    assert [r["label"] for r in rows] == [
        "IDENTITY", "CENTRAL_NONID", "ES2_OB(1)", "ES2_OB(2)",
        "ES2_H_MINUS_K", "ES2_ORDER_P2"]
    assert [r["cardinality_value"] for r in rows] == [1, 2, 3, 3, 72, 162]
    assert sum(r["cardinality_value"] for r in rows) == 3 ** 5


def test_orbits_formula_text_evaluates_to_the_value(capsys):
    formulas = set()
    for kind in ("es1", "es2"):
        for p, n in ((3, 1), (3, 2), (5, 1), (5, 3), (7, 2)):
            code, out, _ = run(capsys, "orbits", f"{kind}({p},{n})")
            assert code == 0
            for row in json.loads(out):
                # "p^(2n+1)-p" -> "p**(2*n+1)-p"
                text = re.sub(r"(\d)([pn])", r"\1*\2", row["cardinality_formula"])
                value = eval(text.replace("^", "**"), {"p": p, "n": n})
                assert value == row["cardinality_value"], (kind, p, n, row)
                formulas.add(row["cardinality_formula"])
    assert formulas == {"1", "p-1", "p^(2n+1)-p", "p", "p^(2n)-p^2", "p^(2n+1)-p^(2n)"}


def test_closed_stdout_ends_quietly():
    # the read end is closed before the CLI starts, so its first write fails
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run([sys.executable, "-m", "extraspecial.cli", "orbits", "es2(7,3)"],
                              stdout=write, stderr=subprocess.PIPE, env=_env(), timeout=120)
    finally:
        os.close(write)
    assert b"Traceback" not in done.stderr and b"BrokenPipe" not in done.stderr
    assert done.returncode == 141


def test_importing_the_cli_leaves_numpy_unloaded():
    # numpy is imported inside the functions that use it, so start-up stays fast
    script = "import sys, extraspecial, extraspecial.cli; print('numpy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", script], env=_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_count_json(capsys):
    code, out, _ = run(capsys, "count", "--quantity", "end_order", "--group", "es1",
                       "--p", "3", "--n", "1", "--oracle")
    assert code == 0
    doc = json.loads(out)
    assert doc["formula"] == 729 and doc["oracle"] == 729 and doc["match"] is True


@pytest.mark.parametrize("tilde,kind,coords", [("es1~", "es1", "[1,0|2,0|1]"),
                                               ("es2~", "es2", "[3|0|2|0]")])
def test_tilde_kinds_answer_as_their_partners(capsys, tilde, kind, coords):
    # es1~ is es1 and es2~ is es2, written another way: every command takes them
    def answer(k, *argv):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        return out.replace(k, "<kind>")

    for argv in (["count", "--quantity", "end_order", "--group", "{}", "-p", "3", "-n", "2",
                  "--oracle"],
                 ["census", "--group", "{}", "--quantities", "aut_order,partial_order",
                  "--oracle"],
                 ["orbits", "{}(5,2)"], ["classify", "--json", "{}(3,2):" + coords],
                 ["order", "{}(3,2):" + coords]):
        assert answer(tilde, *(a.format(tilde) for a in argv)) == answer(
            kind, *(a.format(kind) for a in argv))


def test_count_missing_k_or_group_exit_2(capsys):
    # a usage error, as an invalid (p, n) is; both once exited 1
    code, out, err = run(capsys, "count", "--quantity", "alpha_k", "--p", "3", "--n", "1")
    assert code == 2 and out == "" and "needs a subspace dimension k" in err
    code, out, err = run(capsys, "count", "--quantity", "aut_order", "--p", "3", "--n", "1",
                         "--oracle")
    assert code == 2 and out == "" and "needs a group kind" in err


@pytest.mark.parametrize("argv", [
    ["--quantity", "alpha_k", "-k", "-2", "--oracle"],
    ["--quantity", "sp_order", "-k", "4"],
    ["--quantity", "count_X", "--group", "es1", "--oracle"],
    ["--quantity", "alpha_k", "-k", "1", "--group", "es2"],
    ["--quantity", "aut_order", "--group", "es1", "-k", "1"],
])
def test_count_negative_or_unused_argument_exits_2(capsys, argv):
    code, out, err = run(capsys, "count", "-p", "3", "-n", "1", *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:")


def test_count_k_past_n_is_a_zero_count(capsys):
    code, out, _ = run(capsys, "count", "--quantity", "beta_k", "-p", "3", "-n", "1",
                       "-k", "2", "--oracle")
    assert code == 0
    doc = json.loads(out)
    assert (doc["formula"], doc["oracle"], doc["match"]) == (0, 0, True)


def test_count_gamma_k_past_the_dimension_answers_under_any_scan_cap(capsys, monkeypatch):
    monkeypatch.setenv("EXTRASPECIAL_SCAN_CAP", "1")
    code, out, _ = run(capsys, "count", "--quantity", "gamma_k", "-p", "3", "-n", "1",
                       "-k", "9", "--oracle")
    assert code == 0
    doc = json.loads(out)
    assert (doc["formula"], doc["oracle"], doc["match"]) == (0, 0, True)


def test_count_gamma_k_refuses_a_surjection_scan_past_the_cap_before_it_starts(
        capsys, monkeypatch):
    # 3^16 candidates are under SCAN_CAP, but each is tested against 40 lines
    monkeypatch.delenv("EXTRASPECIAL_SCAN_CAP", raising=False)

    def forbidden(*_args):
        raise RuntimeError("the surjection scan started")

    monkeypatch.setattr(oracle, "_projective_lines", forbidden)
    code, out, err = run(capsys, "count", "--quantity", "gamma_k", "-p", "3", "-n", "2",
                         "-k", "4", "--oracle")
    assert (code, out) == (1, "")
    assert "against 40 lines" in err and "SCAN_CAP" in err


def test_count_unknown_quantity_is_a_usage_error(capsys):
    for argv in (["--quantity", "nonsense", "--p", "3", "--n", "1"],
                 # argparse reads -p, -n and -k with the one integer grammar
                 ["--quantity", "alpha_k", "-p", "1_1", "-n", "1", "-k", "1"],
                 ["--quantity", "alpha_k", "-p", "3", "-n", "\u0661", "-k", "1"],
                 ["--quantity", "alpha_k", "-p", "3", "-n", "1", "-k", "0_1"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(["count", *argv])
        assert exc.value.code == 2
    capsys.readouterr()


@pytest.fixture
def any_int_text():
    """Lift the int <-> text digit limit, where this Python has one, so the
    test can read the CLI's long answers back."""
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    old = sys.get_int_max_str_digits() if set_limit else None
    if set_limit:
        set_limit(0)
    yield
    if set_limit:
        set_limit(old)


@pytest.mark.parametrize("argv, want", [
    (["count", "--quantity", "sp_order", "-p", "3", "-n", "100"],
     lambda: counting.sp_order(100, 3)),
    (["count", "--quantity", "end_order", "-p", "3", "-n", "100", "--group", "es1"],
     lambda: counting.end_order("es1", 3, 100)),
    (["census", "--p-list", "3", "--n-list", "100", "--quantities", "sp_order",
      "--format", "json"], lambda: counting.sp_order(100, 3)),
])
def test_answers_past_4300_digits_print_in_full(capsys, any_int_text, argv, want):
    # each once ended in Python 3.11's int-to-text ValueError traceback
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    value = (doc[0] if isinstance(doc, list) else doc)["formula"]
    assert value == want() and len(str(value)) > 4300


def test_orbits_of_a_large_group_build_no_group(capsys, any_int_text, monkeypatch):
    # es1(3,4600) once spent 17 s on a cocycle the inventory never reads
    monkeypatch.setattr(cli, "parse_group_spec", None)
    code, out, err = run(capsys, "orbits", "es1(3,4600)")
    assert (code, err) == (0, "")
    assert json.loads(out)[-1]["cardinality_value"] == 3 ** 9201 - 3


def test_the_cli_runs_on_a_python_with_no_digit_limit(capsys, monkeypatch):
    monkeypatch.delattr(sys, "set_int_max_str_digits", raising=False)
    code, out, err = run(capsys, "count", "--quantity", "sp_order", "-p", "3", "-n", "1")
    assert (code, err) == (0, "") and json.loads(out)["formula"] == 24


def test_the_cli_restores_the_digit_limit(capsys):
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this Python has no int <-> text digit limit")
    before = sys.get_int_max_str_digits()
    assert run(capsys, "count", "--quantity", "sp_order", "-p", "3", "-n", "100")[0] == 0
    assert sys.get_int_max_str_digits() == before


@pytest.mark.parametrize("argv", [
    ["count", "--quantity", "alpha_k", "-p", "3", "-n", "400", "-k", "1"],
    ["count", "--quantity", "end_order", "-p", "1000003", "-n", "100", "--group", "es2"],
    ["census", "--p-list", "3", "--n-list", "1,400", "--quantities", "sp_order"],
    ["orbits", f"es1(3,{10 ** 6})"],
])
def test_answers_past_the_output_cap_are_refused_before_any_arithmetic(
        capsys, monkeypatch, argv):
    monkeypatch.setattr(counting, "compute_report", None)
    monkeypatch.setattr(cli.orbits, "orbit_labels", None)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert f"> OUTPUT_DIGITS = {config.cap('OUTPUT_DIGITS')}" in err


def test_a_census_under_the_output_cap_answers(capsys):
    # 81 alpha_k rows of about 124k digits in all; summing a p^(2nk) bound
    # per row once charged about 247k digits and refused it
    code, out, _ = run(capsys, "census", "--p-list", "3", "--n-list", "80",
                       "--quantities", "alpha_k")
    assert code == 0
    assert len(out.splitlines()) == 1 + 81


def test_order_of_an_element_is_constant_work(capsys):
    # es2(3001,1) once multiplied up to p^2 times: 32.7 s
    assert run(capsys, "order", "es2(3001,1):[1|0]")[:2] == (0, "9006001\n")
    assert run(capsys, "order", "es1(2305843009213693951,1):[1|1|1]")[:2] == (
        0, "2305843009213693951\n")


def test_primes_past_the_miller_rabin_bound_are_refused(capsys):
    code, out, err = run(capsys, "count", "--quantity", "sp_order", "-n", "1",
                         "-p", "3317044064679887385961983")
    assert (code, out) == (2, "")
    assert "3317044064679887385961981" in err


def test_census_end_order(capsys):
    code, out, _ = run(capsys, "census", "--p-list", "3", "--n-list", "1",
                       "--quantities", "end_order", "--oracle")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "quantity,group,p,n,k,formula,oracle,match,reason"
    assert lines[1] == "end_order,es1,3,1,,729,729,True,"
    assert lines[2] == "end_order,es2,3,1,,135,135,True,"


def test_census_alpha_grid_row_count(capsys):
    code, out, _ = run(capsys, "census", "--p-list", "3,5,7", "--n-list", "1,2,3",
                       "--quantities", "alpha_k")
    assert code == 0
    lines = out.strip().splitlines()
    # one row per (p, n, k), k = 0..n, so 3 primes x (2 + 3 + 4) rows
    assert len(lines) == 1 + 3 * 9
    assert all(line.endswith(",skipped,n/a,oracle not requested") for line in lines[1:])


def test_census_partial_order_rows(capsys):
    code, out, _ = run(capsys, "census", "--quantities", "partial_order",
                       "--p-list", "3", "--n-list", "1", "--oracle")
    assert code == 0
    lines = out.strip().splitlines()
    es1_row = next(l for l in lines if l.startswith("partial_order,es1"))
    es2_row = next(l for l in lines if l.startswith("partial_order,es2"))
    assert es1_row.endswith(
        ",PARTIAL_ORDER,chain IDENTITY < CENTRAL_NONID < ES1_NONCENTRAL,True,")
    assert "NO_PARTIAL_ORDER" in es2_row and "witness" in es2_row
    # witness serialization swaps commas so the CSV stays 9 columns wide
    assert all(len(l.split(",")) == 9 for l in lines[1:])


def test_census_cap_exceeded_rows_are_skipped(capsys):
    code, out, _ = run(capsys, "census", "--p-list", "5", "--n-list", "2",
                       "--quantities", "count_X", "--oracle")
    assert code == 0
    lines = out.strip().splitlines()
    # 5^16 matrices exceed the scan cap, which the reason names
    assert ",skipped,n/a,matrix scan of 4x4 matrices over F_5: 152587890625 > SCAN_CAP" in lines[1]


def test_census_n3_skips_rows_no_oracle_covers(capsys):
    code, out, _ = run(capsys, "census", "--p-list", "3", "--n-list", "3",
                       "--quantities", "count_X,aut_order,gamma_k", "--oracle",
                       "--format", "json")
    assert code == 0
    rows = json.loads(out)
    skipped = [r for r in rows if r["oracle"] == "skipped"]
    # count_X and both aut_order rows need a dim-6 matrix scan; gamma_3 is
    # 3^18 cells, past the scan cap
    assert len(skipped) == 4
    assert all(r["match"] == "n/a" and r["reason"] for r in skipped)
    assert {r["reason"] for r in skipped if r["quantity"] != "gamma_k"} == {
        "matrix scans cover dim 2 and 4, got 6"}
    assert all(r["match"] is True and r["reason"] is None
               for r in rows if r["oracle"] != "skipped")


def test_census_deterministic(capsys):
    args = ("census", "--p-list", "3,5", "--n-list", "1",
            "--quantities", "aut_order,alpha_k,sp_order")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    rows = first.strip().splitlines()[1:]
    assert rows == sorted(rows, key=lambda r: (r.split(",")[0], int(r.split(",")[2])))


def test_census_oracle_grid_is_pinned(capsys, monkeypatch):
    # the whole --oracle grid, byte for byte, under the default caps
    for name in ("ELEMENT", "MORPHISM", "HOM", "SCAN", "SUBSPACE"):
        monkeypatch.delenv(f"EXTRASPECIAL_{name}_CAP", raising=False)
    code, out, _ = run(capsys, "census", "--p-list", "3,5", "--n-list", "1,2",
                       "--oracle", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 70
    assert sum(r["oracle"] == "skipped" for r in rows) == 11
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "5462ed05ea29ab670478be17b766ac2b5486b8c5fcf5a629982752eee1312ac6")


def test_census_json_format(capsys):
    code, out, _ = run(capsys, "census", "--p-list", "3", "--n-list", "1",
                       "--quantities", "aut_order", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert {r["group"]: r["formula"] for r in rows} == {"es1": 432, "es2": 54}


def test_census_out_file(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code, out, _ = run(capsys, "census", "--p-list", "3", "--n-list", "1",
                       "--quantities", "sp_order", "--out", str(target))
    assert code == 0
    assert out == ""
    text = target.read_text()
    assert text.splitlines()[1] == "sp_order,,3,1,,24,skipped,n/a,oracle not requested"


@pytest.mark.parametrize("target", ["missing/rows.csv", "."])
def test_census_unwritable_out_is_rejected_before_any_row(tmp_path, capsys, monkeypatch, target):
    def no_rows(*_args):
        raise AssertionError("a row was computed for an unwritable --out")

    monkeypatch.setattr(cli, "_census_rows", no_rows)
    # a missing directory, then a directory itself
    code, out, err = run(capsys, "census", "--p-list", "3", "--n-list", "1",
                         "--quantities", "partial_order", "--oracle",
                         "--out", str(tmp_path / target))
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: cannot write --out")


def test_census_rejects_unknown_inputs(capsys):
    code, _, err = run(capsys, "census", "--quantities", "bogus")
    assert code == 2
    code, _, err = run(capsys, "census", "--group", "heis")
    assert code == 2


@pytest.mark.parametrize("p,n", [(4, 1), (1, 1), (3, 0), (3, -1)])
def test_invalid_p_or_n_is_a_parse_error(capsys, p, n):
    code, out, err = run(capsys, "count", "--quantity", "aut_order", "--group", "es1",
                         "--p", str(p), "--n", str(n))
    assert code == 2 and out == ""
    want = "p must be an odd prime" if p in (4, 1) else "n must be a positive integer"
    assert want in err
    code, out, err = run(capsys, "census", "--p-list", f"3,{p}", "--n-list", f"1,{n}")
    assert code == 2 and out == ""
    assert want in err


def test_verify_quick(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "quick")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines and all(l.startswith("PASS ") for l in lines)


def test_verify_stops_at_the_first_failing_check(capsys, monkeypatch):
    from extraspecial import verifysuite

    def broken():
        raise AssertionError("planted failure")

    monkeypatch.setattr(verifysuite, "checks", lambda suite: [("first", lambda: None),
                                                              ("planted", broken),
                                                              ("never", None)])
    code, out, err = run(capsys, "verify")
    assert code == 1 and err == ""
    assert out.splitlines() == ["PASS first", "FAIL planted: planted failure"]


def test_a_failed_check_under_census_oracle_exits_1_without_a_traceback(capsys, monkeypatch):
    # the closed form loses the centre, so the brute degeneration check fails
    real = cli.orbits.image_contains
    monkeypatch.setattr(cli.orbits, "image_contains",
                        lambda g, cls, c: real(g, "TRIVIAL" if cls == "CENTER" else cls, c))
    code, out, err = run(capsys, "census", "--quantities", "partial_order", "--p-list", "3",
                         "--n-list", "1", "--group", "es1", "--oracle")
    assert (code, out) == (1, "")
    assert err == "error: brute degeneration disagrees with image classes\n"


@pytest.mark.parametrize("flag,value", [("--p-list", "3,x"), ("--n-list", "1,y"),
                                        ("--p-list", "1_1"), ("--n-list", "1,\u0663")])
def test_census_bad_list_is_a_parse_error(capsys, flag, value):
    code, _, err = run(capsys, "census", flag, value)
    assert code == 2
    assert "non-integer entry" in err


@pytest.mark.parametrize("argv,position,entry", [
    (["census", "--p-list=-3,-"], 3, "-"),
    (["census", "--n-list", "1, 2,x"], 5, "x"),
    (["endo", "es1(3,1)", "A=[1]", "B=[1]", "alpha=[-1,-]"], 4, "-"),
    (["endo", "es1(3,1)", "A=[ 1 ,y]"], 5, "y"),
    (["order", "es1(3,1):[1_0|0|0]"], 10, "1_0"),
    (["classify", "es2(3,1):[\u0663|1]"], 10, "\u0663"),
    (["census", "--p-list", "3,1_1"], 2, "1_1"),
    (["endo", "es1(3,1)", "A=[+1_0]"], 1, "+1_0"),
])
def test_parse_errors_name_the_bad_entrys_own_position(capsys, argv, position, entry):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: parse error at position {position}: ")
    assert err.rstrip().endswith(f"non-integer entry {entry!r}")


@pytest.mark.parametrize("argv", [
    ["endo", "es1(3,1)", "A"],
    ["endo", "es1(3,1)", "Q=[1]"],
    ["endo", "es1(3,1)", "A=[1]", "A=[2]"],
    ["endo", "es2(3,1)", "a=x"],
    ["endo", "es2(3,1)", "A=[1]", "B=[1]", "a=1_1"],
    ["endo", "es2(3,1)", "A=[1]", "B=[1]", "a=\u0663"],
    ["endo", "es1(3,1)", "A=[1,0]"],
    ["endo", "es1(3,1)", "A=1"],
    ["endo", "es1(3,1)", "beta=[0,0]"],
    ["census", "--quantities", "bogus"],
    ["census", "--group", "heis"],
])
def test_usage_errors_without_a_position_name_none(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "position" not in err


@pytest.mark.parametrize("flag,value", [
    ("--p-list", ","), ("--n-list", ""), ("--quantities", " , "), ("--group", ",")])
def test_census_empty_list_is_a_parse_error(capsys, flag, value):
    code, out, err = run(capsys, "census", "--quantities", "sp_order", flag, value)
    assert code == 2 and out == ""
    assert err == f"error: {flag} names no entry\n"


@pytest.mark.parametrize("flag,value,entry", [
    ("--p-list", "3,5,3", "3"), ("--n-list", "1, 01", "1"),
    ("--quantities", "sp_order,aut_order,sp_order", "'sp_order'"), ("--group", "es1,es1", "'es1'")])
def test_census_repeated_entry_is_a_parse_error(capsys, flag, value, entry):
    # each once printed its rows twice and exited 0
    code, out, err = run(capsys, "census", "--quantities", "sp_order", flag, value)
    assert code == 2 and out == ""
    assert err == f"error: {flag} names {entry} twice\n"


def test_malformed_cap_override_is_a_parse_error(capsys, monkeypatch):
    # an override is a count: 1_0, the Arabic-Indic zero and -1 once each set a
    # cap, so the scan was skipped and the census exited 0
    for raw in ("abc", "1_0", "\u0660", "-1"):
        monkeypatch.setenv("EXTRASPECIAL_SCAN_CAP", raw)
        code, out, err = run(capsys, "census", "--quantities", "sp_order", "--oracle")
        assert (code, out) == (2, "")
        assert err == f"error: EXTRASPECIAL_SCAN_CAP wants a count, got {raw!r}\n"


@pytest.mark.parametrize("command", [
    ["count", "--quantity", "sp_order", "--p", "3", "--n", "1"],
    ["census"],
])
def test_jobs_option_is_gone(capsys, monkeypatch, command):
    # the scans run in one process; parsing --jobs fails before any work
    def forbidden(*_args, **_kwargs):
        raise AssertionError("a process was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", forbidden)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", forbidden)
    monkeypatch.setattr(subprocess, "Popen", forbidden)
    with pytest.raises(SystemExit) as exc:
        cli.main(command + ["--jobs", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
