"""Verification toolkit for APN functions over GF(2^n).

Everything is organized around the surface polynomial of f,

    phi(x, y, z) = (f(x) + f(y) + f(z) + f(x + y + z)) / ((x+y)(x+z)(y+z)),

whose rational points encode the APN property.  The package builds these
surfaces, proves or refutes coprimality against the degree 2^k + 1 product
of linear forms, measures differential spectra, and screens
polynomials for exceptional-APN candidacy with a replayable verdict trace.
"""

from .ddt import (
    FAMILY_TAGS,
    DiffSpectrum,
    FamilySpec,
    corollary_bound,
    diff_spectrum,
    ekp_admissible_u,
    family_exponent,
    family_poly,
    is_apn,
    projective_point_count,
    prop1_check,
)
from .field import FieldCtx, create_field, subfield_embedding
from .phi import (
    build_phi,
    build_phi_j,
    denominator_surface,
    even_reduction,
    gold_product,
    numerator_surface,
)
from .poly import (
    ConstraintViolated,
    NotDivisible,
    PolyParseError,
    TriPoly,
    UniPoly,
    embed_tripoly,
    exact_div_linear,
    linear_form,
    parse_unipoly,
    shift_xy,
    tri_mul,
)
from .screen import (
    AuditReport,
    Verdict,
    coprime_bruteforce,
    coprime_gold_formula,
    cubic_divisor_check,
    exhaustive_cubic_search,
    gold_param,
    heuristic_phi_certificate,
    kasami_param,
    linear_form_divides,
    lucas_mod2,
    replay_trace,
    root_of_unity_audit,
    screen_exceptional,
    theorem1_min_field,
)

__version__ = "0.1.0"

__all__ = [
    "AuditReport",
    "ConstraintViolated",
    "DiffSpectrum",
    "FAMILY_TAGS",
    "FamilySpec",
    "FieldCtx",
    "NotDivisible",
    "PolyParseError",
    "TriPoly",
    "UniPoly",
    "Verdict",
    "build_phi",
    "build_phi_j",
    "coprime_bruteforce",
    "coprime_gold_formula",
    "corollary_bound",
    "create_field",
    "cubic_divisor_check",
    "denominator_surface",
    "diff_spectrum",
    "ekp_admissible_u",
    "embed_tripoly",
    "even_reduction",
    "exact_div_linear",
    "exhaustive_cubic_search",
    "family_exponent",
    "family_poly",
    "gold_param",
    "gold_product",
    "heuristic_phi_certificate",
    "is_apn",
    "kasami_param",
    "linear_form",
    "linear_form_divides",
    "lucas_mod2",
    "numerator_surface",
    "parse_unipoly",
    "projective_point_count",
    "prop1_check",
    "replay_trace",
    "root_of_unity_audit",
    "screen_exceptional",
    "shift_xy",
    "subfield_embedding",
    "theorem1_min_field",
    "tri_mul",
]
