"""Closed-form counts: frozen values, decomposition identity, the formulas
in Z[x], and differential references written once for both rings."""

import argparse
import dataclasses
import hashlib
import inspect
import json
from math import prod

import pytest

from extraspecial import cli, counting, oracle, verifysuite
from extraspecial.errors import ContextError
from extraspecial.groups import ES1, ES1_TILDE, ES2, ES2_TILDE
from extraspecial.modp import is_odd_prime, p_binomial
from extraspecial.polyz import ZERO, X, Poly

PRIMES_TO_97 = [q for q in range(3, 98) if is_odd_prime(q)]


def test_sp_order_frozen():
    assert counting.sp_order(0, 3) == 1
    assert counting.sp_order(1, 3) == 24
    assert counting.sp_order(2, 3) == 51840
    assert counting.sp_order(1, 5) == 120
    assert counting.sp_order(3, 3) == 9170703360


def test_im_phi2_order_frozen():
    assert counting.im_phi2_order(1, 3) == 6
    assert counting.im_phi2_order(2, 3) == 1296
    assert counting.im_phi2_order(1, 5) == 20
    with pytest.raises(ContextError):
        counting.im_phi2_order(0, 3)


def test_alpha_beta_gamma_frozen():
    assert [counting.alpha_k(3, 1, k) for k in (0, 1)] == [1, 4]
    assert [counting.beta_k(3, 1, k) for k in (0, 1)] == [1, 1]
    assert [counting.gamma_k(3, 1, k) for k in (0, 1)] == [1, 8]
    assert [counting.alpha_k(3, 2, k) for k in (0, 1, 2)] == [1, 40, 40]
    assert [counting.beta_k(3, 2, k) for k in (0, 1, 2)] == [1, 13, 4]
    assert counting.alpha_k(3, 2, 3) == 0
    assert counting.beta_k(3, 1, -1) == 0


def test_count_x_y_frozen():
    assert counting.count_X(3, 1) == 33
    assert counting.count_Y(3, 1) == 9
    assert counting.count_X(3, 2) == 252801
    assert counting.count_Y(3, 2) == 26001
    assert counting.count_X(5, 1) == 145
    assert counting.count_Y(5, 1) == 25


def test_aut_end_frozen():
    assert counting.aut_order(ES1, 3, 1) == 432
    assert counting.aut_order(ES2, 3, 1) == 54
    assert counting.aut_order(ES2, 3, 2) == 104976
    assert counting.end_order(ES1, 3, 1) == 729
    assert counting.end_order(ES2, 3, 1) == 135
    assert counting.end_order(ES2, 5, 1) == 1125
    assert counting.end_order(ES1, 3, 2) == 28874961
    assert counting.end_order(ES2, 3, 2) == 2211057
    # a presentation answers as its partner, over Z and Z[x]; an unknown kind raises
    for tilde, kind in ((ES1_TILDE, ES1), (ES2_TILDE, ES2)):
        for count in (counting.aut_order, counting.end_order):
            for p, n in ((3, 1), (5, 1), (3, 2)):
                assert count(tilde, p, n) == count(kind, p, n)
                assert count(tilde, X, n).coeffs == count(kind, X, n).coeffs
    with pytest.raises(ContextError, match="unknown group kind 'es3'"):
        counting.aut_order("es3", 3, 1)


def test_end_es1_31_is_the_free_count():
    # at (p, 1) the es1 group is relatively free on two generators, so every
    # generator-image pair extends: |End| = |G|^2
    for p in (3, 5, 7):
        assert counting.end_order(ES1, p, 1) == (p ** 3) ** 2


def test_x_plus_invertibles_fill_the_matrix_space():
    # n = 1: singular 2x2 matrices (X) plus GL_2 exhaust all p^4 matrices
    for p in (3, 5, 7, 11):
        gl = (p * p - 1) * (p * p - p)
        assert counting.count_X(p, 1) + gl == p ** 4


def test_x_and_y_horner_sums_equal_the_termwise_sums():
    # count_X and count_Y nest gamma's factors; the termwise sum is sum a_k gamma_k
    def termwise(p, n, series):
        return sum(a * g for a, g in zip(series(p, n), counting._gammas(p, n)))

    for n in range(1, 7):
        for p in (3, 5, 7):
            assert counting.count_X(p, n) == termwise(p, n, counting._alphas)
            assert counting.count_Y(p, n) == termwise(p, n, counting._betas)
    for n in (1, 2, 3):
        for count, series in ((counting.count_X, counting._alphas),
                              (counting.count_Y, counting._betas)):
            horner = count(X, n)
            assert isinstance(horner, Poly)
            assert horner.coeffs == (ZERO + termwise(X, n, series)).coeffs


def test_decomposition_identity_all_small_parameters():
    for p in PRIMES_TO_97:
        for n in range(1, 7):
            assert counting.end_order(ES1, p, n) == (
                counting.aut_order(ES1, p, n) + p ** (2 * n) * counting.count_X(p, n))
            assert counting.end_order(ES2, p, n) == (
                counting.aut_order(ES2, p, n) + p ** (2 * n) * counting.count_Y(p, n))


def test_gamma_is_surjection_count():
    # gamma_k(p, n, k) = prod_{i<k} (p^{2n} - p^i) for every k up to 2n, and 0
    # one past it, where the factor i = 2n vanishes
    for p in (3, 5):
        for n in (1, 2, 3, 4):
            for k in range(2 * n + 2):
                expected = 1
                for i in range(k):
                    expected *= p ** (2 * n) - p ** i
                assert expected == 0 if k == 2 * n + 1 else expected > 0
                assert counting.gamma_k(p, n, k) == expected


def test_polynomials_evaluate_to_formulas():
    for n in (1, 2, 3):
        for p in (3, 5, 7):
            for q, route in counting.QUANTITIES.items():
                for k, kind in counting.row_args(q, n):
                    arg = counting.validate_request(q, p, n, k, kind)
                    assert isinstance(route.poly(n, arg), Poly)
                    assert route.poly(n, arg).eval(p) == route.formula(p, n, arg), (q, n, arg)


def test_alpha_beta_polynomials_nonnegative():
    for n in (1, 2, 3, 4):
        for k in range(n + 1):
            for q in ("alpha_k", "beta_k"):
                assert all(c >= 0 for c in counting.QUANTITIES[q].poly(n, k).coeffs)


# differential references: the closed forms the running products replaced,
# each written once for p an int or X

def _gamma_inclusion_exclusion(p, n, k):
    """All p^{2nm} maps F_p^{2n} -> F_p^m less those onto each proper subspace."""
    vals = [1]
    for m in range(1, k + 1):
        vals.append(p ** (2 * n * m) - sum(p_binomial(m, i, p) * vals[i] for i in range(m)))
    return vals[k]


def _alpha_reference(p, n, k):
    return p_binomial(n, k, p) * prod(p ** (n - i) + 1 for i in range(k))


def _beta_reference(p, n, k):
    if k in (0, 1):
        return p_binomial(2 * n - 1, k, p)  # all k-subspaces of v[0] = 0
    head = (p ** k * (p ** (n - k) + 1) * p_binomial(n - 1, k, p)
            + p_binomial(n - 1, k - 1, p))
    return head * prod(p ** (n - i) + 1 for i in range(1, k))


def _references(p, n):
    """Quantity name -> {arg: value}, every row at (p, n), from the references."""
    ks = range(n + 1)
    alpha = {k: _alpha_reference(p, n, k) for k in ks}
    beta = {k: _beta_reference(p, n, k) for k in ks}
    gamma = {k: _gamma_inclusion_exclusion(p, n, k) for k in ks}
    sp = p ** (n * n) * prod(p ** (2 * j) - 1 for j in range(1, n + 1))
    sp_less = p ** ((n - 1) ** 2) * prod(p ** (2 * j) - 1 for j in range(1, n))
    phi2 = p ** (2 * n - 1) * (p - 1) * sp_less
    aut = {ES1: p ** (2 * n) * (p - 1) * sp, ES2: p ** (2 * n) * phi2}
    x = sum(alpha[k] * gamma[k] for k in ks)
    y = sum(beta[k] * gamma[k] for k in ks)
    end = {ES1: aut[ES1] + p ** (2 * n) * x, ES2: aut[ES2] + p ** (2 * n) * y}
    return {"alpha_k": alpha, "beta_k": beta, "gamma_k": gamma,
            "count_X": {None: x}, "count_Y": {None: y}, "sp_order": {None: sp},
            "im_phi2_order": {None: phi2}, "aut_order": aut, "end_order": end}


def _grid_rows(n):
    for q in counting.QUANTITIES:
        for k, kind in counting.row_args(q, n):
            yield q, k, kind, {"k": k, "group": kind}.get(counting.QUANTITIES[q].arg)


def test_nine_quantities_match_the_references_and_the_frozen_grid():
    lines = []
    for p in (3, 5, 7):
        for n in range(1, 9):
            refs = _references(p, n)
            for q, k, kind, arg in _grid_rows(n):
                value = counting.formula_value(q, p, n, k, kind)
                assert value == refs[q][arg], (q, p, n, arg)
                lines.append(f"{q} {p} {n} {k} {kind} {value}")
    # the 588 values of the inclusion-exclusion and twin-based code this replaced
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "9cffd2141fe750c0b0f284a2d12c00790151896258a4ff942005b49b048c3634"


def test_nine_polynomials_match_the_references_coefficientwise():
    for n in range(1, 7):
        refs = _references(X, n)
        for q, _k, _kind, arg in _grid_rows(n):
            assert counting.QUANTITIES[q].poly(n, arg).coeffs == (ZERO + refs[q][arg]).coeffs, (q, n, arg)


def test_series_past_their_ends_are_zero():
    for p in (3, X):
        assert counting.alpha_k(p, 2, 3) == counting.beta_k(p, 2, 3) == 0
        assert counting.gamma_k(p, 2, 5) == 0 and counting.gamma_k(p, 2, -1) == 0
        assert counting.gamma_k(p, 1, 2) == _gamma_inclusion_exclusion(p, 1, 2)
    assert counting.gamma_k(3, 1, 10 ** 30) == 0  # answered without walking the series


def test_a_division_that_leaves_a_remainder_is_refused(monkeypatch):
    real = Poly.__divmod__
    monkeypatch.setattr(Poly, "__divmod__", lambda a, d: real(a + 1, d))
    with pytest.raises(AssertionError, match="left a remainder"):
        counting.count_X(X, 2)


def test_compute_report_roundtrip():
    rep = counting.compute_report("count_X", 3, 1, oracle=True)
    assert rep.formula_value == 33 and rep.oracle_value == 33 and rep.match
    d = rep.to_json_dict()
    assert d["quantity"] == "count_X" and d["formula"] == 33 and d["match"] is True
    rep2 = counting.compute_report("aut_order", 3, 1, group_kind=ES2)
    assert rep2.formula_value == 54 and rep2.oracle_value is None
    # k or the group kind missing: the oracle once crashed with a TypeError
    for value in (counting.formula_value, counting.oracle_value):
        with pytest.raises(ContextError, match="needs a subspace dimension k"):
            value("alpha_k", 3, 1)
        with pytest.raises(ContextError, match="needs a group kind"):
            value("end_order", 3, 1)
    with pytest.raises(ContextError, match="needs a group kind"):
        counting.compute_report("aut_order", 3, 1, oracle=True)


def test_negative_k_or_an_argument_the_quantity_does_not_take_is_rejected():
    # alpha_k with k = -2 once answered 0 = 0; a stray k or group was dropped
    for k in (-1, -2):
        with pytest.raises(ContextError, match="needs a subspace dimension k >= 0"):
            counting.compute_report("alpha_k", 3, 1, k=k, oracle=True)
    with pytest.raises(ContextError, match="sp_order takes no k"):
        counting.formula_value("sp_order", 3, 1, k=4)
    with pytest.raises(ContextError, match="alpha_k takes no group"):
        counting.oracle_value("alpha_k", 3, 1, k=1, group_kind=ES1)
    with pytest.raises(ContextError, match="end_order takes no k"):
        counting.validate_request("end_order", 3, 1, k=0, group_kind=ES2)
    # k > n stays valid: no isotropic subspace of that size exists
    for q in ("alpha_k", "beta_k"):
        rep = counting.compute_report(q, 3, 1, k=2, oracle=True)
        assert (rep.formula_value, rep.oracle_value, rep.match) == (0, 0, True)


@pytest.mark.parametrize("p, n", [(4, 1), (1, 1), (3, 0), (3, -1)])
def test_invalid_p_or_n_is_rejected(p, n):
    # p=4 once gave an aut_order formula value of 2880 with no error
    with pytest.raises(ContextError):
        counting.formula_value("aut_order", p, n, group_kind=ES1)
    with pytest.raises(ContextError):
        counting.oracle_value("count_X", p, n)
    with pytest.raises(ContextError):
        counting.compute_report("aut_order", p, n, group_kind=ES1)


# the dispatch around the table; every other function in counting is a closed
# form or one of the series the closed forms read
_DISPATCH = {"validate_request", "formula_value", "oracle_value", "compute_report",
             "row_args", "_scans"}
_CLOSED_FORMS = sorted(name for name, obj in vars(counting).items()
                       if inspect.isfunction(obj) and obj.__module__ == counting.__name__
                       and name not in _DISPATCH)
_ORACLE_FUNCTIONS = sorted(name for name, obj in vars(oracle).items()
                           if inspect.isfunction(obj) and obj.__module__ == oracle.__name__)
_TABLE_ROWS_31 = [(q, k, kind) for q in counting.QUANTITIES
                  for k, kind in counting.row_args(q, 1)]


def _patch_to_raise(monkeypatch, module, names):
    for name in names:
        def boom(*_args, _name=name, **_kwargs):
            raise AssertionError(f"{_name} was called")
        monkeypatch.setattr(module, name, boom)


def test_closed_forms_cover_every_quantity_in_both_rings():
    for q in counting.QUANTITIES:
        assert q in _CLOSED_FORMS
    # one body per quantity: no polynomial twin, and the poly route is the formula at X
    assert not [name for name in _CLOSED_FORMS if name.endswith("_poly")]
    assert [f.name for f in dataclasses.fields(counting.Quantity)] == ["arg", "formula", "oracle"]
    assert counting.QUANTITIES["end_order"].poly(1, ES1) == counting.end_order(ES1, X, 1)
    assert {"scan_matrices", "scan_subspaces", "scan_surjections",
            "sigma_scan_count", "cell_polynomial"} <= set(_ORACLE_FUNCTIONS)


@pytest.mark.parametrize("q, k, kind", _TABLE_ROWS_31)
def test_oracle_route_needs_no_closed_form(monkeypatch, q, k, kind):
    want = counting.formula_value(q, 3, 1, k, kind)
    oracle._gram_count.cache_clear()  # so a matrix-scan route runs the scan
    _patch_to_raise(monkeypatch, counting, _CLOSED_FORMS)
    assert counting.oracle_value(q, 3, 1, k, kind) == want


@pytest.mark.parametrize("q, k, kind", _TABLE_ROWS_31)
def test_formula_and_poly_routes_need_no_scan(monkeypatch, q, k, kind):
    want = counting.oracle_value(q, 3, 1, k, kind)
    arg = counting.validate_request(q, 3, 1, k, kind)
    _patch_to_raise(monkeypatch, oracle, _ORACLE_FUNCTIONS)
    assert counting.formula_value(q, 3, 1, k, kind) == want
    assert counting.QUANTITIES[q].poly(1, arg).eval(3) == want


def test_count_census_and_verify_cover_the_table(monkeypatch, capsys):
    table = set(counting.QUANTITIES)
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    quantity = next(a for a in sub.choices["count"]._actions if a.dest == "quantity")
    assert set(quantity.choices) == table

    assert cli.main(["census", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert {r["quantity"] for r in rows} - {"partial_order"} == table

    seen = set()
    real = counting.compute_report

    def spy(quantity, *args, **kwargs):
        seen.add(quantity)
        return real(quantity, *args, **kwargs)

    monkeypatch.setattr(counting, "compute_report", spy)
    verifysuite.check_counting_scans(3, 1)
    assert seen == table
