"""Exact-arithmetic calculator for nef and pseudoeffective cones of
projectivized bundles over curves and surfaces, and their fibre products.

Everything runs over exact rationals: intersection rings are graded
monomial rewrite systems, cones are finitely generated with
double-description duality, and weak Zariski decompositions come with
machine-checkable certificates.
"""

from .bundles import (
    HNCurveBundle,
    SurfaceBundleData,
    mu_max,
    mu_min,
    slope,
    sub_bundle_after_step,
    sym_twist_c1,
    validate_hn,
)
from .catalog import (
    ConeReport,
    eff_k_ruled,
    eff_k_surface_rho1,
    fibre_product_cones,
    homogeneity_cones,
    iterated_fibre_product_cones,
    k_homogeneous_check,
    miyaoka_cones,
    nef_fibre_product,
    psef_fibre_product,
    semistable_bundle_cone,
    surface_cone_report,
)
from .cli import WorkspaceSpec, parse_workspace, run_command
from .cones import (
    Pairing,
    RationalCone,
    primitive,
)
from .errors import CalcError, InputError, InternalError
from .ring import (
    IntersectionRing,
    NumClass,
    SpacePreset,
    build_curve_bundle_ring,
    build_fibre_product_ring,
    build_lambda_ring_surface,
    build_xi_ring_surface,
    parse_expression,
    verify_lambda_vanishing,
)
from .selftest import nonneg_combination_feasible, run_selftest
from .zariski import (
    ReductionStep,
    VerifyResult,
    ZariskiCertificate,
    decompose,
    extremal_ray_decompositions,
    reduce_step,
    terminal_decompose,
    verify,
)

__version__ = "0.1.0"

__all__ = [
    "CalcError",
    "ConeReport",
    "HNCurveBundle",
    "InputError",
    "InternalError",
    "IntersectionRing",
    "NumClass",
    "Pairing",
    "RationalCone",
    "ReductionStep",
    "SpacePreset",
    "SurfaceBundleData",
    "VerifyResult",
    "WorkspaceSpec",
    "ZariskiCertificate",
    "build_curve_bundle_ring",
    "build_fibre_product_ring",
    "build_lambda_ring_surface",
    "build_xi_ring_surface",
    "decompose",
    "eff_k_ruled",
    "eff_k_surface_rho1",
    "extremal_ray_decompositions",
    "fibre_product_cones",
    "homogeneity_cones",
    "iterated_fibre_product_cones",
    "k_homogeneous_check",
    "miyaoka_cones",
    "mu_max",
    "mu_min",
    "nef_fibre_product",
    "nonneg_combination_feasible",
    "parse_expression",
    "parse_workspace",
    "primitive",
    "psef_fibre_product",
    "reduce_step",
    "run_command",
    "run_selftest",
    "semistable_bundle_cone",
    "slope",
    "sub_bundle_after_step",
    "surface_cone_report",
    "sym_twist_c1",
    "terminal_decompose",
    "validate_hn",
    "verify",
    "verify_lambda_vanishing",
]
