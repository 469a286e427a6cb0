"""Which extraspecial functions the traced runs wrap, and the per-layer metrics.

Layers are the modules of src/extraspecial.  polyz, config and errors do
negligible work in the benchmark workloads and are not wrapped.  Scan sizes
(cells, candidates) are computed from each call's (p, n, k) arguments; call
and item counts come from the wrappers.
"""

from __future__ import annotations

from extraspecial.modp import p_binomial
from spans import Tracer, install

PACKAGE = "extraspecial"

# (module, attribute, span name): the functions the four workloads reach
SPECS = (
    ("groups", "Group.mul", "groups.mul"),
    ("groups", "Group.inv", "groups.inv"),
    ("groups", "Group.power", "groups.power"),
    ("groups", "Group.commutator", "groups.commutator"),
    ("groups", "Group.symplectic_f", "groups.symplectic_f"),
    ("groups", "Group.coords_matrix", "groups.coords_matrix"),
    ("groups", "lambda_iso", "groups.lambda_iso"),
    ("groups", "delta_iso", "groups.delta_iso"),
    ("modp", "Mat.mul_vec", "modp.mul_vec"),
    ("modp", "dot", "modp.dot"),
    ("modp", "rref", "modp.rref"),
    ("modp", "rank", "modp.rank"),
    ("symplectic", "pairing", "symplectic.pairing"),
    ("morphisms", "Morphism.apply_coords", "morphisms.apply"),
    ("morphisms", "Morphism.table", "morphisms.table"),
    ("morphisms", "enumerate_sigma", "morphisms.sigma"),
    ("morphisms", "enumerate_endomorphisms", "morphisms.enum"),
    ("morphisms", "enumerate_automorphisms", "morphisms.enum"),
    ("morphisms", "build_endo_es2", "morphisms.build"),
    ("morphisms", "f_table", "morphisms.f_table"),
    ("orbits", "orbits_bruteforce", "orbits.bruteforce"),
    ("orbits", "partial_order_report", "orbits.partial_order_report"),
    ("orbits", "_verify_es1_total_order", "orbits.verify_es1_total_order"),
    ("orbits", "classify", "orbits.classify"),
    ("orbits", "orbit_cardinality", "orbits.orbit_cardinality"),
    ("orbits", "degeneration", "orbits.degeneration"),
    ("oracle", "enumerate_homs_by_generators", "oracle.hom"),
    ("oracle", "mult_table", "oracle.mult_table"),
    ("oracle", "scan_matrices", "oracle.matrix"),
    ("oracle", "scan_subspaces", "oracle.subspace"),
    ("oracle", "scan_surjections", "oracle.surjection"),
    ("oracle", "sigma_scan_count", "oracle.sigma_scan_count"),
    ("counting", "compute_report", "counting.compute_report"),
    ("counting", "formula_value", "counting.formula_value"),
    ("counting", "oracle_value", "counting.oracle_value"),
    ("cli", "main", "cli.main"),
    ("cli", "_census_rows", "cli.census_rows"),
    ("verifysuite", "check_group_laws", "verifysuite.check_group_laws"),
    ("verifysuite", "check_lambda_iso", "verifysuite.check_lambda_iso"),
    ("verifysuite", "check_delta_iso", "verifysuite.check_delta_iso"),
    ("verifysuite", "_check_iso", "verifysuite.check_iso"),
    ("verifysuite", "check_hom_oracle", "verifysuite.check_hom_oracle"),
)

LAYERS = ("groups", "modp", "symplectic", "morphisms", "orbits", "oracle",
          "counting", "cli", "verifysuite")


def _matrix_cells(tracer, a, _result):
    tracer.counts["oracle.matrix.cells"] += a["p"] ** (a["dim"] ** 2)


def _subspace_cells(tracer, a, _result):
    if a["k"] > 0:  # the space the scan's own cap counts
        tracer.counts["oracle.subspace.cells"] += p_binomial(a["dim"], a["k"], a["p"])


def _surjection_cells(tracer, a, result):
    if a["k"] > 0:
        tracer.counts["oracle.surjection.cells"] += a["p"] ** (a["k"] * a["dim"])
        tracer.counts["oracle.surjection.hits"] += result


def _hom_candidates(tracer, a, _result):
    g = a["g"]
    tracer.counts["oracle.hom.candidates"] += g.size ** (2 * g.n)


def _census_rows(tracer, _a, rows):
    tracer.counts["cli.rows"] += len(rows)
    tracer.counts["cli.rows_skipped"] += sum(r["oracle"] == "skipped" for r in rows)


HOOKS = {
    "oracle.matrix": _matrix_cells,
    "oracle.subspace": _subspace_cells,
    "oracle.surjection": _surjection_cells,
    "oracle.hom": _hom_candidates,
    "cli.census_rows": _census_rows,
}


def start(refusal) -> tuple[Tracer, object]:
    """A tracer with every probe installed; call .undo() on the second value."""
    tracer = Tracer(refusal=refusal)
    return tracer, install(tracer, PACKAGE, SPECS, HOOKS)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def metrics(t: Tracer) -> dict:
    """name -> (value, unit) for every per-layer metric but trace.overhead_s.

    A ratio whose base is 0 (nothing of that kind ran) reads 0.
    """
    c = t.counts
    sigmas = t.items["morphisms.sigma"]
    out = {
        "groups.mul.calls": (t.calls("groups.mul"), "count"),
        "groups.inv.calls": (t.calls("groups.inv"), "count"),
        "oracle.hom.candidates": (c["oracle.hom.candidates"], "count"),
        "oracle.hom.hit_ratio": (_ratio(t.items["oracle.hom"], c["oracle.hom.candidates"]), "ratio"),
        "oracle.hom_s": (t.self_s["oracle.hom"], "s"),
        "oracle.mult_table_s": (t.self_s["oracle.mult_table"], "s"),
        "morphisms.tables": (t.calls("morphisms.table"), "count"),
        "morphisms.table_s": (t.self_s["morphisms.table"], "s"),
        "morphisms.apply.calls": (t.calls("morphisms.apply"), "count"),
        "morphisms.apply_s": (t.self_s["morphisms.apply"], "s"),
        "modp.mul_vec.calls": (t.calls("modp.mul_vec"), "count"),
        "morphisms.sigmas": (sigmas, "count"),
        "morphisms.sigma_s": (t.self_s["morphisms.sigma"], "s"),
        "morphisms.pairings_per_sigma": (
            _ratio(t.edges["morphisms.sigma", "symplectic.pairing"], sigmas), "ratio"),
        "symplectic.pairing.calls": (t.calls("symplectic.pairing"), "count"),
        "morphisms.morphisms": (t.items["morphisms.enum"], "count"),
        "morphisms.enum_s": (t.self_s["morphisms.enum"], "s"),
        "orbits.refusals": (t.refusals["orbits"], "count"),
        "orbits.refusal_s": (t.refusal_s["orbits"], "s"),
        "oracle.surjection.cells": (c["oracle.surjection.cells"], "count"),
        "oracle.surjection_s": (t.self_s["oracle.surjection"], "s"),
        "oracle.surjection.hit_ratio": (
            _ratio(c["oracle.surjection.hits"], c["oracle.surjection.cells"]), "ratio"),
        "modp.rref.calls": (t.calls("modp.rref"), "count"),
        "oracle.matrix.cells": (c["oracle.matrix.cells"], "count"),
        "oracle.matrix_s": (t.self_s["oracle.matrix"], "s"),
        "oracle.subspace.cells": (c["oracle.subspace.cells"], "count"),
        "oracle.subspace_s": (t.self_s["oracle.subspace"], "s"),
        "oracle.refusals": (t.refusals["oracle"], "count"),
        "cli.rows": (c["cli.rows"], "count"),
        "cli.rows_skipped": (c["cli.rows_skipped"], "count"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (t.layer_self_s(layer), "s")
    return out
