"""Command-line front end.

    extraspecial mul "es1(3,1):[1|0|0]" "es1(3,1):[0|1|0]"
    extraspecial order "es2(3,1):[1|0]"
    extraspecial classify "es2(3,2):[3|0|2|0]" --json
    extraspecial endo "es1(3,1)" "A=[1]" "B=[1]" "alpha=[1]" --apply "[1|0|0]"
    extraspecial orbits "es2(3,1)"
    extraspecial count --quantity aut_order --group es2 --p 3 --n 2 --oracle
    extraspecial census --p-list 3,5 --n-list 1 --oracle --format csv
    extraspecial verify --suite quick

Exit codes: 0 success, 1 domain failure (invalid morphism, cap exceeded,
failed verification), 2 malformed input, 141 (128 + SIGPIPE) when stdout
closes early, e.g. under `| head`: the rest of the output is dropped quietly.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from collections import Counter

from . import counting, orbits
from .config import charge, integer
from .errors import (CapExceeded, ContextError, DimensionError,
                     MorphismValidationError, ParseError)
from .groups import (PLAIN_KINDS, TABLE_CAP, Element, format_element, group, parse_element,
                     parse_group_id, parse_group_spec, parse_ints)
from .modp import Mat
from .morphisms import build_endo, scalar_action_check


def _element_arg(g, text: str) -> Element:
    # accept both the bare bracket form and the fully qualified one
    e = parse_element(text if ":" in text else f"{g.gid}:{text}")
    if e.group.gid != g.gid:
        raise ContextError(f"element belongs to {e.group.gid}, command targets {g.gid}")
    return e


def _check_request(quantity: str | None, p: int, n: int, k=None, group_kind=None):
    """Reject an invalid (p, n), or a missing k or --group, as a usage error."""
    try:
        counting.validate_request(quantity, p, n, k, group_kind)
    except ContextError as exc:
        raise ParseError(str(exc)) from None


def _charge_digits(p: int, exponent: int, what: str):
    """Charge OUTPUT_DIGITS, before any arithmetic, with the digits of
    p^exponent, a bound on the answers."""
    charge("OUTPUT_DIGITS", math.ceil(exponent * math.log10(p)), what)


def _endo_call(g, tokens: list) -> dict:
    """build_endo's keyword arguments after g from key=value tokens: A, B, C, D
    (zero if omitted), alpha and beta (zero if omitted), and the lift a where
    g's power form is nonzero."""
    n, p = g.n, g.p
    omega = g.power_form()
    keys = ("A", "B", "C", "D", "alpha", "beta") + (("a",) if any(omega) else ())
    params = {}
    for tok in tokens:
        if "=" not in tok:
            raise ParseError(f"expected key=value, got {tok!r}")
        key, _, val = tok.partition("=")
        key = key.strip()
        if key not in keys:
            raise ParseError(f"unknown parameter {key!r} for {g.gid}")
        if key in params:
            raise ParseError(f"parameter {key!r} given twice")
        if key == "a":
            try:
                params[key] = integer(val)
            except ValueError:
                raise ParseError(f"a wants an integer, got {val!r}") from None
        else:
            val = val.strip()
            if not (val.startswith("[") and val.endswith("]")):
                raise ParseError(f"{key} wants a bracketed list like [1,0,2]")
            params[key] = parse_ints(val[1:-1], key, offset=1)
    for key in "ABCD":
        flat = params.get(key, [0] * (n * n))
        if len(flat) != n * n:
            raise ParseError(f"{key} wants {n * n} entries row-major, got {len(flat)}")
        params[key] = Mat(p, tuple(tuple(flat[i * n:(i + 1) * n]) for i in range(n)))
    params.setdefault("alpha", [0] * omega[:n].count(0))  # the x_i outside omega's support
    params.setdefault("beta", [0] * n)
    return params


def cmd_mul(args) -> int:
    a = parse_element(args.x)
    b = _element_arg(a.group, args.y)
    print(format_element(a * b))
    return 0


def cmd_order(args) -> int:
    print(parse_element(args.element).order())
    return 0


def cmd_classify(args) -> int:
    e = parse_element(args.element)
    g = e.group
    label = orbits.classify(e)
    if args.json:
        _charge_digits(g.p, 2 * g.n + 1, f"digits of an orbit size of {g.gid}")
        print(json.dumps({
            "group": str(g.gid),
            "element": format_element(e),
            "label": str(label),
            "orbit_cardinality": orbits.orbit_cardinality(label, g),
            "image_class": orbits.endo_image_class(e),
        }))
    else:
        print(str(label))
    return 0


def cmd_endo(args) -> int:
    g = parse_group_spec(args.group)
    params = _endo_call(g, args.params)
    e = None if args.apply is None else _element_arg(g, args.apply)
    try:
        morph = build_endo(g, **params)
    except DimensionError as exc:  # a wrong alpha or beta length
        raise ParseError(str(exc)) from None
    except MorphismValidationError as exc:
        print(str(exc))
        return 1
    kindword = "automorphism" if morph.is_automorphism else "endomorphism"
    print(f"valid {kindword}, {morph.scalar_name}={morph.scalar}")
    if args.check:
        if not scalar_action_check(morph):
            print("scalar action check FAILED")
            return 1
        mode = "exhaustive" if g.size <= TABLE_CAP else "sampled"
        print(f"scalar action check passed ({mode})")
    if e is not None:
        print(format_element(morph.apply(e)))
    return 0


def cmd_orbits(args) -> int:
    g = parse_group_id(args.group)
    labels = orbits.label_count(g)
    _charge_digits(g.p, labels * (2 * g.n + 1),  # |G| bounds each orbit
                   f"digits of at most {labels} orbit sizes of {g}")
    rows = [{"label": str(label),
             "cardinality_formula": orbits.orbit_row(g, label.tag).formula,
             "cardinality_value": orbits.orbit_cardinality(label, g)}
            for label in orbits.orbit_labels(g)]
    print(json.dumps(rows, indent=2))
    return 0


def cmd_count(args) -> int:
    _check_request(args.quantity, args.p, args.n, args.k, args.group)
    _charge_digits(args.p, 4 * args.n ** 2 + 2 * args.n,  # |End| <= |G|^2n
                   f"digits of an answer at p={args.p}, n={args.n}")
    rep = counting.compute_report(args.quantity, args.p, args.n, k=args.k,
                                  group_kind=args.group, oracle=args.oracle)
    print(json.dumps(rep.to_json_dict()))
    return 0 if rep.match in (None, True) else 1


def _census_rows(p_list, n_list, quantities, kinds, oracle):
    rows = []
    for p in p_list:
        for n in n_list:
            for q in quantities:
                if q == "partial_order":
                    rows.extend(_partial_order_row(kind, p, n, oracle) for kind in kinds)
                else:
                    rows.extend(_count_row(q, p, n, k, kind, oracle)
                                for k, kind in counting.row_args(q, n, kinds))
    rows.sort(key=lambda r: (r["quantity"], r["p"], r["n"],
                             r["k"] if r["k"] is not None else -1,
                             r["group"] or ""))
    return rows


_NO_ORACLE = "oracle not requested"


def _skipped(row, reason):
    row.update(oracle="skipped", match="n/a", reason=reason)
    return row


def _count_row(q, p, n, k, kind, oracle):
    rep = counting.compute_report(q, p, n, k=k, group_kind=kind, oracle=False)
    row = rep.to_json_dict()
    if not oracle:
        return _skipped(row, _NO_ORACLE)
    try:
        ov = counting.oracle_value(q, p, n, k=k, group_kind=kind)
    except (CapExceeded, ContextError) as exc:
        # out of the cap, or a size no oracle route covers (n >= 3 matrix scans)
        return _skipped(row, str(exc))
    row.update(oracle=ov, match=(ov == row["formula"]), reason=None)
    return row


def _partial_order_row(kind, p, n, oracle):
    g = group(kind, p, n)
    row = {"quantity": "partial_order", "group": kind, "p": p, "n": n, "k": None,
           "formula": orbits.partial_order_report(g, verify=False).verdict}
    if not oracle:
        return _skipped(row, _NO_ORACLE)
    try:
        rep = orbits.partial_order_report(g, verify=True)
    except CapExceeded as exc:
        return _skipped(row, str(exc))
    if rep.witness is not None:
        row["oracle"] = "witness " + " <-> ".join(str(w) for w in rep.witness)
    else:
        row["oracle"] = "chain " + " < ".join(r.tag for r in orbits.orbit_rows(g))
    row.update(match=True, reason=None)
    return row


def _census_text(rows, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(rows, indent=2)
    lines = ["quantity,group,p,n,k,formula,oracle,match,reason"]
    for r in rows:  # a witness or a reason swaps its commas, to keep the columns
        cells = (r["quantity"], r["group"] or "", r["p"], r["n"], "" if r["k"] is None else r["k"],
                 r["formula"], r["oracle"], r["match"], r["reason"] or "")
        lines.append(",".join(str(c).replace(",", ";") for c in cells))
    return "\n".join(lines)


def cmd_census(args) -> int:
    p_list = parse_ints(args.p_list, "--p-list", skip_empty=True)
    n_list = parse_ints(args.n_list, "--n-list", skip_empty=True)
    for p in p_list:
        for n in n_list:
            _check_request(None, p, n)
    if args.quantities == "all":
        quantities = list(counting.QUANTITIES) + ["partial_order"]
    else:
        quantities = [t.strip() for t in args.quantities.split(",") if t.strip()]
        for q in quantities:
            if q not in counting.QUANTITIES and q != "partial_order":
                raise ParseError(f"unknown quantity {q!r}")
    kinds = [t.strip() for t in args.group.split(",") if t.strip()]
    for kind in kinds:
        if kind not in PLAIN_KINDS:
            raise ParseError(f"unknown group kind {kind!r}")
    # an empty list would print a bare header, a repeated entry repeated rows:
    # both silent answers
    for flag, entries in (("--p-list", p_list), ("--n-list", n_list),
                          ("--quantities", quantities), ("--group", kinds)):
        if not entries:
            raise ParseError(f"{flag} names no entry")
        repeated = [x for x, count in Counter(entries).items() if count > 1]
        if repeated:
            raise ParseError(f"{flag} names {repeated[0]!r} twice")
    if set(quantities) - {"partial_order"}:  # a verdict has no size to cap
        p, n = max(p_list), max(n_list)  # the largest answers are there
        _charge_digits(p, 4 * n ** 2 + 2 * n, f"digits of an answer at p={p}, n={n}")
    # open the target before any row is computed, so a bad path costs no work
    try:
        target = open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout)
    except OSError as exc:
        raise ParseError(f"cannot write --out {args.out}: {exc.strerror}") from None
    with target as fh:
        rows = _census_rows(p_list, n_list, quantities, kinds, args.oracle)
        fh.write(_census_text(rows, args.format) + "\n")
    return 0


def cmd_verify(args) -> int:
    from . import verifysuite  # numpy loads for this command only

    for name, fn in verifysuite.checks(args.suite):
        try:
            fn()
        except Exception as exc:  # report the first failing invariant
            print(f"FAIL {name}: {exc}")
            return 1
        print(f"PASS {name}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="extraspecial",
        description="extra-special p-group endomorphism toolkit")
    sub = top.add_subparsers(dest="command", required=True)

    pm = sub.add_parser("mul", help="multiply two elements")
    pm.add_argument("x")
    pm.add_argument("y")
    pm.set_defaults(fn=cmd_mul)

    po = sub.add_parser("order", help="order of an element")
    po.add_argument("element")
    po.set_defaults(fn=cmd_order)

    pc = sub.add_parser("classify", help="automorphism-orbit label of an element")
    pc.add_argument("element")
    pc.add_argument("--json", action="store_true")
    pc.set_defaults(fn=cmd_classify)

    pe = sub.add_parser("endo", help="build an endomorphism from block parameters")
    pe.add_argument("group")
    pe.add_argument("params", nargs="*",
                    help="A=[..] B=[..] C=[..] D=[..] alpha=[..] beta=[..] a=N")
    pe.add_argument("--apply", metavar="ELT")
    pe.add_argument("--check", action="store_true",
                    help="verify the induced scalar action on commutators")
    pe.set_defaults(fn=cmd_endo)

    pr = sub.add_parser("orbits", help="orbit inventory of a group")
    pr.add_argument("group")
    pr.set_defaults(fn=cmd_orbits)

    pq = sub.add_parser("count", help="one counting quantity, formula vs oracle")
    pq.add_argument("--quantity", choices=tuple(counting.QUANTITIES), required=True)
    pq.add_argument("-p", "--p", type=integer, required=True)
    pq.add_argument("-n", "--n", type=integer, required=True)
    pq.add_argument("-k", "--k", type=integer, default=None)
    pq.add_argument("--group", choices=PLAIN_KINDS, default=None)
    pq.add_argument("--oracle", action="store_true")
    pq.set_defaults(fn=cmd_count)

    ps = sub.add_parser("census", help="counting table over a (p, n) grid")
    ps.add_argument("--p-list", default="3")
    ps.add_argument("--n-list", default="1")
    ps.add_argument("--quantities", default="all")
    ps.add_argument("--group", default=",".join(PLAIN_KINDS))
    ps.add_argument("--oracle", action="store_true")
    ps.add_argument("--format", choices=("csv", "json"), default="csv")
    ps.add_argument("--out", default=None)
    ps.set_defaults(fn=cmd_census)

    pv = sub.add_parser("verify", help="run the invariant battery")
    pv.add_argument("--suite", choices=("quick", "full"), default="quick")
    pv.set_defaults(fn=cmd_verify)
    return top


def main(argv=None) -> int:
    # lift Python's int <-> text digit limit for this call only; config's
    # OUTPUT_DIGITS bounds the answers instead (some 3.10 builds have no limit to lift)
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        return _run(argv)
    old = sys.get_int_max_str_digits()
    set_limit(0)
    try:
        return _run(argv)
    finally:
        set_limit(old)


def _run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # so a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader has gone: send what is still buffered nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ContextError, DimensionError, MorphismValidationError,
            CapExceeded, AssertionError) as exc:  # AssertionError: a failed check
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
