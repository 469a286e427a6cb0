"""Extra-special p-groups of odd order and their endomorphism monoids.

Two families of order p^(2n+1): exponent p (es1) and exponent p^2 (es2),
each with a twisted-cocycle presentation (es1~, es2~) and comparison
isomorphisms.  Endomorphisms are parametrized by symplectic-similitude
block matrices plus central data; the package classifies automorphism
orbits and endomorphism images, decides the degeneration order, and
carries exact counting formulas cross-checked by brute-force oracles.
"""

from .errors import (CapExceeded, ContextError, DimensionError,
                     MorphismValidationError, ParseError)
from .groups import (ES1, ES1_TILDE, ES2, ES2_TILDE, Element, Group, GroupId,
                     delta_iso, format_element, group, lambda_iso,
                     parse_element, parse_group_spec, symplectic_f)
from .modp import Mat, half, inv_mod, is_odd_prime, p_binomial
from .symplectic import pairing, symp_scalar_test
from .morphisms import (Morphism, build_endo, compose, enumerate_morphisms,
                        inner_automorphism, is_im_phi2_matrix,
                        params_from_generator_images, scalar_action_check)
from .orbits import (CENTER, CENTRAL_NONID, ES1_NONCENTRAL, ES2_H_MINUS_K,
                     ES2_ORDER_P2, IDENTITY, NO_PARTIAL_ORDER, PARTIAL_ORDER,
                     SUBGROUP_H, TRIVIAL, WHOLE_GROUP, DegenerationReport,
                     OrbitLabel, classify, degeneration, endo_image_class,
                     ob_label, orbit_cardinality, orbit_labels,
                     orbits_bruteforce, partial_order_report)
from .counting import (CountReport, alpha_k, aut_order, beta_k, compute_report,
                       count_X, count_Y, end_order, gamma_k, im_phi2_order,
                       sp_order)
from .polyz import Poly

__version__ = "0.1.0"

__all__ = [
    "CapExceeded", "ContextError", "DimensionError",
    "MorphismValidationError", "ParseError",
    "ES1", "ES1_TILDE", "ES2", "ES2_TILDE", "Element", "Group", "GroupId",
    "delta_iso", "format_element", "group", "lambda_iso",
    "parse_element", "parse_group_spec", "symplectic_f",
    "Mat", "half", "inv_mod", "is_odd_prime", "p_binomial",
    "pairing", "symp_scalar_test",
    "Morphism", "build_endo", "compose", "enumerate_morphisms",
    "inner_automorphism", "is_im_phi2_matrix",
    "params_from_generator_images", "scalar_action_check",
    "CENTER", "CENTRAL_NONID", "ES1_NONCENTRAL", "ES2_H_MINUS_K",
    "ES2_ORDER_P2", "IDENTITY", "NO_PARTIAL_ORDER", "PARTIAL_ORDER",
    "SUBGROUP_H", "TRIVIAL", "WHOLE_GROUP", "DegenerationReport",
    "OrbitLabel", "classify", "degeneration", "endo_image_class",
    "ob_label", "orbit_cardinality", "orbit_labels",
    "orbits_bruteforce", "partial_order_report",
    "CountReport", "alpha_k", "aut_order", "beta_k", "compute_report",
    "count_X", "count_Y", "end_order", "gamma_k", "im_phi2_order",
    "sp_order",
    "Poly",
    "__version__",
]
