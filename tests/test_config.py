"""The one refusal policy: every limit is charged through config.charge, and
each refusal names its limit and ceiling before the work it guards starts."""

import re
from pathlib import Path

import numpy as np
import pytest

from extraspecial import cli, config, counting, groups, morphisms, oracle, orbits
from extraspecial.errors import CapExceeded, ParseError
from extraspecial.groups import ES1, ES2, Group, group

SRC = Path(__file__).resolve().parents[1] / "src" / "extraspecial"


def test_only_config_raises_cap_exceeded_or_reads_a_cap():
    for path in SRC.glob("*.py"):
        text = path.read_text()
        if path.name == "config.py":
            assert text.count("raise CapExceeded") == 1
        else:
            assert "raise CapExceeded" not in text, path.name
            assert not re.search(r"\bcap\(", text), path.name


def test_the_limit_table_lists_nine_limits_five_overridable():
    assert len(config.LIMITS) == 9
    assert sorted(name for name, (_, env) in config.LIMITS.items() if env) == [
        "ELEMENT_CAP", "HOM_CAP", "MORPHISM_CAP", "SCAN_CAP", "SUBSPACE_CAP"]
    for name in config.LIMITS:
        assert name in config.__doc__


def test_fixed_limits_ignore_the_environment(monkeypatch):
    monkeypatch.setenv("EXTRASPECIAL_TABLE_CAP", "1")
    assert config.cap("TABLE_CAP") == groups.TABLE_CAP == 2048
    config.charge("TABLE_CAP", 2048, "a table")


def test_one_message_format(monkeypatch):
    monkeypatch.delenv("EXTRASPECIAL_SCAN_CAP", raising=False)
    with pytest.raises(CapExceeded) as exc:
        oracle.scan_matrices(4, 5, 1)
    assert str(exc.value) == ("matrix scan of 4x4 matrices over F_5: 152587890625 > "
                              "SCAN_CAP = 100000000 (EXTRASPECIAL_SCAN_CAP)")
    with pytest.raises(CapExceeded, match=r"^a table: 2049 > TABLE_CAP = 2048$"):
        config.charge("TABLE_CAP", 2049, "a table")
    with pytest.raises(CapExceeded, match=r": 6 > MORPHISM_CAP = 5 \(limit=\)$"):
        config.charge("MORPHISM_CAP", 6, "a walk", 5)
    # an override is a count in the one integer grammar: int() would take 1_0
    # and the Arabic-Indic zero
    for raw in ("ten", "1_0", "\u0660", "-1"):
        monkeypatch.setenv("EXTRASPECIAL_SCAN_CAP", raw)
        with pytest.raises(ParseError, match="EXTRASPECIAL_SCAN_CAP"):
            config.charge("SCAN_CAP", 1, "a scan")


def _fail(what):
    def reached(*_args, **_kwargs):
        raise AssertionError(f"{what} was reached before the refusal")
    return reached


def _elements(mp):
    mp.setattr(groups, "product", _fail("the element product"))
    return lambda: group(ES1, 3, 1).elements()


def _morphisms(mp):
    mp.setattr(morphisms, "_images", _fail("the image kernel"))
    return lambda: orbits._reach_tables(group(ES1, 3, 1), True, None)


def _homs(mp):
    mp.setattr(oracle, "satisfies_relations", _fail("the relation check"))
    return lambda: next(oracle.enumerate_homs_by_generators(group(ES1, 3, 1)))


def _matrix_scan(mp):
    mp.setattr(oracle, "_gram_count", _fail("the Gram count"))
    return lambda: oracle.scan_matrices(2, 3, 1)


def _surjection_scan(mp):
    mp.setattr(oracle, "_projective_lines", _fail("the line table"))
    return lambda: oracle.scan_surjections(2, 3, 1)


def _subspace_scan(mp):
    mp.setattr(oracle, "combinations", _fail("the echelon cells"))
    return lambda: oracle.scan_subspaces(4, 3, 2)


def _mult_table(mp):
    mp.setattr(Group, "coords_matrix", _fail("the element matrix"))
    return lambda: oracle.mult_table(group(ES1, 3, 3))


def _f_table(mp):
    mp.setattr(oracle, "mult_table", _fail("the multiplication table"))
    return lambda: morphisms.f_table(group(ES1, 3, 3))


def _reach_table(mp):
    mp.setattr(orbits, "image_sets", _fail("the image sets"))
    return lambda: orbits.orbits_bruteforce(group(ES1, 5, 2))


def _pairing_table(mp):
    mp.setattr(morphisms, "all_vectors", _fail("the quotient vectors"))
    return lambda: next(morphisms.enumerate_morphisms(group(ES1, 3, 4)))


def _index_limit(mp):
    mp.setattr(Group, "_quotient_rows", _fail("the quotient rows"))
    return lambda: morphisms._walk_inputs(group(ES2, 3, 20), [[2 ** 70] * 40], [])


def _output_digits(mp):
    mp.setattr(counting, "compute_report", _fail("the count"))
    return lambda: cli.cmd_count(cli.build_parser().parse_args(
        ["count", "--quantity", "sp_order", "-p", "3", "-n", "400"]))


# (limit, environment override, the call with its guarded work made to fail)
REFUSALS = [
    ("ELEMENT_CAP", 26, _elements),
    ("MORPHISM_CAP", 431, _morphisms),
    ("HOM_CAP", 27 ** 2 - 1, _homs),
    ("SCAN_CAP", 80, _matrix_scan),
    ("SCAN_CAP", 8, _surjection_scan),
    ("SUBSPACE_CAP", 129, _subspace_scan),
    ("TABLE_CAP", None, _mult_table),
    ("TABLE_CAP", None, _f_table),
    ("TABLE_CAP", None, _reach_table),
    ("PAIRING_CELLS", None, _pairing_table),
    ("INDEX_LIMIT", None, _index_limit),
    ("OUTPUT_DIGITS", None, _output_digits),
]


@pytest.mark.parametrize("name,override,setup", REFUSALS,
                         ids=[f"{name}-{setup.__name__[1:]}" for name, _, setup in REFUSALS])
def test_each_limit_refuses_by_name_before_its_work(monkeypatch, name, override, setup):
    if override is not None:
        monkeypatch.setenv(f"EXTRASPECIAL_{name}", str(override))
    call = setup(monkeypatch)
    with pytest.raises(CapExceeded) as exc:
        call()
    ceiling, env = config.LIMITS[name]
    note = f" (EXTRASPECIAL_{name})" if env else ""
    assert str(exc.value).endswith(f" > {name} = {override or ceiling}{note}")


def test_every_limit_has_a_refusal_test():
    assert {name for name, _, _ in REFUSALS} == set(config.LIMITS)


def test_a_callers_limit_is_named_as_such(monkeypatch):
    monkeypatch.setattr(morphisms, "_images", _fail("the image kernel"))
    with pytest.raises(CapExceeded, match=r"of es1\(3,1\): 216 > MORPHISM_CAP = 200 \(limit=\)$"):
        orbits._reach_tables(group(ES1, 3, 1), True, 200)


@pytest.mark.parametrize("argv", [
    ["endo", "es1(18446744073709551557,1)", "A=[-1]", "B=[-1]", "--apply", "[1|1|1]"],
    ["endo", "es1(18446744073709551557,1)", "A=[1]", "B=[1]", "--check"],
    ["census", "--p-list", "18446744073709551557", "--quantities", "partial_order", "--oracle"],
])
def test_groups_past_int64_indices_are_refused_before_numpy(capsys, argv):
    # each once ended in an OverflowError or ValueError traceback
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code == (0 if argv[0] == "census" else 1)
    assert "> INDEX_LIMIT = 9223372036854775808" in err + out


def test_a_family_too_large_for_the_cap_is_refused_before_its_functionals(monkeypatch):
    # es2(3,7) has 3^14 functionals per quotient matrix, past MORPHISM_CAP
    monkeypatch.delenv("EXTRASPECIAL_MORPHISM_CAP", raising=False)
    monkeypatch.setattr(morphisms, "product", _fail("the functional list"))
    g = group(ES2, 3, 7)
    row = np.zeros((1, len(g.ranges)), dtype=np.int64)
    for walk in (morphisms.family_images, morphisms.image_sets):
        with pytest.raises(CapExceeded, match=r"a family of morphisms of es2\(3,7\): 4782969 > "):
            next(walk(g, row, True))
    with pytest.raises(CapExceeded, match="MORPHISM_CAP"):
        next(morphisms.enumerate_morphisms(g))
