"""Exact-arithmetic calculator for nef and pseudoeffective cones of
projectivized bundles over curves and surfaces, and their fibre products.

Everything runs over exact rationals: intersection rings are graded
monomial rewrite systems, cones are finitely generated with
double-description duality, and weak Zariski decompositions come with
machine-checkable certificates.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> defining module; a name is imported on first use (PEP 562),
# so a CLI call loads only the modules its command needs
_EXPORTS = {
    "bundles": (
        "HNCurveBundle", "SurfaceBundleData", "mu_max", "mu_min", "slope",
        "sub_bundle_after_step", "validate_hn",
    ),
    "catalog": (
        "ConeReport", "fibre_product_cones", "homogeneity_cones",
        "iterated_fibre_product_cones", "k_homogeneous_check", "miyaoka_cones",
        "nef_fibre_product", "psef_fibre_product", "surface_cone_report",
    ),
    "cli": ("WorkspaceSpec", "parse_workspace", "run_command"),
    "cones": ("Pairing", "RationalCone", "primitive"),
    "errors": ("CalcError", "InputError", "InternalError"),
    "presets": ("NumClass", "SpacePreset"),
    "ring": (
        "IntersectionRing", "build_curve_bundle_ring", "build_fibre_product_ring",
        "build_lambda_ring_surface", "build_xi_ring_surface", "parse_expression",
        "verify_lambda_vanishing",
    ),
    "selftest": ("nonneg_combination_feasible", "run_selftest"),
    "zariski": (
        "ReductionStep", "VerifyResult", "ZariskiCertificate", "decompose",
        "reduce_step", "terminal_decompose", "verify",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    # an unknown name raises AttributeError, so that ``from conecalc import
    # selftest`` falls back to importing the submodule
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
