"""Fuzzing the CLI grammar: every call exits 0, 1 or 2 with no traceback.

Group specs draw p from primes and non-primes below 2^64 and n up to 10^4;
`endo` and `partial_order` stay at n <= 20, where the cubic pure-Python
similitude test stays cheap.  Each test draws valid inputs and, separately,
flawed ones, so that most calls get past parsing.  Every example runs
`cli.main` in-process under hypothesis's per-example deadline.
"""

import contextlib
import io
from datetime import timedelta

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from extraspecial import cli, counting

PRIMES = (3, 5, 7, 11, 1009, 3001, 1000000007, 2305843009213693951, 18446744073709551557)
NON_PRIMES = (-3, 0, 1, 2, 4, 9, 561, 3 ** 40, 2 ** 64 - 1)

primes = st.sampled_from(PRIMES)
any_p = st.one_of(primes, st.sampled_from(NON_PRIMES), st.integers(-5, 2 ** 64 - 1))
good_n = st.integers(1, 10 ** 4)
any_n = st.integers(-1, 10 ** 4)
small_n = st.integers(1, 20)
kinds = st.sampled_from(["es1", "es2", "es1~", "es2~"])
any_kind = st.sampled_from(["es1", "es2", "es3", "es1~", ""])
# a deliberate flaw in an element text
flaws = st.sampled_from(["segment", "entry", "bracket", "colon"])

FUZZ = settings(max_examples=60, deadline=timedelta(seconds=5), derandomize=True,
                database=None, suppress_health_check=[HealthCheck.too_slow])


def call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue() + out.getvalue(), argv
    return code


def element_text(kind, p, n, value, flaw=None, spec=True):
    """An element of kind(p, n) in its [u|w|z] or [u1|u|w1|w] layout, the
    coordinates value, value + 1, ..., with at most one flaw."""
    widths = [n, n, 1] if kind not in ("es2", "es2~") else [w for w in (1, n - 1, 1, n - 1) if w]
    if flaw == "segment":
        widths.append(1)
    body = "|".join(",".join(str(value + i) for i in range(max(w, 0))) for w in widths)
    if flaw == "entry":
        body = body.replace(str(value), "x", 1) if body else "x"
    if flaw != "bracket":
        body = f"[{body}]"
    return f"{kind}({p},{n}){'' if flaw == 'colon' else ':'}{body}" if spec else body


values = st.integers(-10, 10 ** 20)
commands = st.sampled_from(["order", "classify", "classify --json"])


@FUZZ
@given(commands, kinds, primes, good_n, values)
def test_element_commands(command, kind, p, n, value):
    assert call(command.split() + [element_text(kind, p, n, value)]) in (0, 1)


@FUZZ
@given(commands, any_kind, any_p, any_n, values, flaws)
def test_element_commands_on_flawed_text(command, kind, p, n, value, flaw):
    call(command.split() + [element_text(kind, p, n, value, flaw)])


@FUZZ
@given(kinds, primes, good_n, values, st.sampled_from([None, "segment", "entry", "bracket"]))
def test_mul(kind, p, n, value, flaw):
    """y in the bare bracket form, whose flaws are all but the missing colon."""
    x = element_text(kind, p, n, value)
    code = call(["mul", x, element_text(kind, p, n, 2 * value + 1, flaw, spec=False)])
    assert code == (0 if flaw is None else 2)


@FUZZ
@given(kinds, primes, good_n)
def test_orbits(kind, p, n):
    assert call(["orbits", f"{kind}({p},{n})"]) in (0, 1)


@FUZZ
@given(any_kind, any_p, any_n)
def test_orbits_of_any_spec(kind, p, n):
    call(["orbits", f"{kind}({p},{n})"])


quantities = st.sampled_from(sorted(counting.QUANTITIES))


@FUZZ
@given(quantities, primes, good_n, st.integers(0, 12), kinds)
def test_count(quantity, p, n, k, kind):
    """With the -k or --group the quantity takes."""
    argv = ["count", "--quantity", quantity, "-p", str(p), "-n", str(n)]
    arg = counting.QUANTITIES[quantity].arg
    argv += ["-k", str(k)] if arg == "k" else ["--group", kind] if arg == "group" else []
    assert call(argv) in (0, 1)


@FUZZ
@given(quantities, any_p, any_n, st.integers(-1, 12), kinds)
def test_count_of_any_request(quantity, p, n, k, kind):
    call(["count", "--quantity", quantity, "-p", str(p), "-n", str(n), "-k", str(k),
          "--group", kind])


def _listed(entries, junk=None):
    return ",".join(map(str, entries)) + ("" if junk is None else f",{junk}")


@FUZZ
@given(st.lists(primes, min_size=1, max_size=3, unique=True),
       st.lists(good_n, min_size=1, max_size=3, unique=True),
       st.lists(quantities, min_size=1, max_size=3, unique=True),
       st.sampled_from(["csv", "json"]),
       st.one_of(st.none(), st.sampled_from(["", "x", "-", "1"])))
def test_census(ps, ns, quantities, fmt, junk):
    call(["census", "--p-list", _listed(ps, junk), "--n-list", _listed(ns, junk),
          "--quantities", ",".join(quantities), "--format", fmt])


@FUZZ
@given(st.lists(any_p, max_size=3), st.lists(any_n, max_size=3))
def test_census_any_lists(ps, ns):
    call(["census", "--p-list", _listed(ps), "--n-list", _listed(ns),
          "--quantities", "sp_order"])


@FUZZ
@given(st.lists(primes, min_size=1, max_size=2, unique=True),
       st.lists(small_n, min_size=1, max_size=2, unique=True), st.booleans())
def test_census_partial_order(ps, ns, oracle):
    call(["census", "--p-list", _listed(ps), "--n-list", _listed(ns),
          "--quantities", "partial_order"] + (["--oracle"] if oracle else []))


@FUZZ
@given(kinds, primes, small_n, st.integers(-3, 3), st.sampled_from(["", "--check", "--apply"]),
       st.booleans())
def test_endo(kind, p, n, scale, option, lift):
    """A = B = scale * Id, a similitude of scalar scale^2, with the lift a =
    scale that es2 needs (or an extra one es1 refuses)."""
    eye = ",".join(str(scale if i % (n + 1) == 0 else 0) for i in range(n * n))
    argv = ["endo", f"{kind}({p},{n})", f"A=[{eye}]", f"B=[{eye}]"]
    argv += [f"a={scale}"] if lift else []
    if option == "--apply":
        argv += ["--apply", element_text(kind, p, n, 1, spec=False)]
    call(argv + ([option] if option == "--check" else []))
