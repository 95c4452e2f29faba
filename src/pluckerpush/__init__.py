"""Exact push-forwards of Pluecker-class powers on Grassmann bundles.

Everything is computed in exact arithmetic (arbitrary-precision integers and
rationals); every formula ships with an independent brute-force oracle.
"""

from .partitions import (
    Partition,
    add_rectangle,
    enumerate_partitions,
    hook_lengths,
    multiset_permutations,
    parse_partition,
    rectangle,
)
from .tableaux import ENUMERATION_CAP, syt_count_hook, syt_count_product, syt_enumerate
from .schur import (
    complete_homogeneous_values,
    jacobi_trudi_det,
    schur_via_jacobi_trudi,
)
from .chowring import (
    BundleModel,
    FormalBundle,
    GradedPoly,
    GradedRing,
    SplitBundle,
    integrate_over_pm,
    ring_of,
    segre_classes,
)
from .pushforward import (
    degree_grassmann_bundle_terms,
    degree_grassmannian_classical,
    monomial_coefficients,
    pushforward_plucker_power,
    pushforward_rational_form,
    rational_form_coefficients,
    schur_coefficients,
    schur_form_terms,
)
from .oracles import (
    box_pieri_degree,
    localization_pushforward,
    pieri_walk,
    run_suites,
    schur_form_at_roots,
    schur_form_pushforward,
    suite_degrees,
    suite_remark,
    suite_theorem,
    verify_pushforward,
)
from .rng import SplitMix64

__version__ = "0.1.0"

__all__ = [
    "Partition",
    "add_rectangle",
    "enumerate_partitions",
    "hook_lengths",
    "multiset_permutations",
    "parse_partition",
    "rectangle",
    "ENUMERATION_CAP",
    "syt_count_hook",
    "syt_count_product",
    "syt_enumerate",
    "complete_homogeneous_values",
    "jacobi_trudi_det",
    "schur_via_jacobi_trudi",
    "BundleModel",
    "FormalBundle",
    "GradedPoly",
    "GradedRing",
    "SplitBundle",
    "integrate_over_pm",
    "ring_of",
    "segre_classes",
    "degree_grassmann_bundle_terms",
    "degree_grassmannian_classical",
    "monomial_coefficients",
    "pushforward_plucker_power",
    "pushforward_rational_form",
    "rational_form_coefficients",
    "schur_coefficients",
    "schur_form_terms",
    "box_pieri_degree",
    "localization_pushforward",
    "pieri_walk",
    "run_suites",
    "schur_form_at_roots",
    "schur_form_pushforward",
    "suite_degrees",
    "suite_remark",
    "suite_theorem",
    "verify_pushforward",
    "SplitMix64",
    "__version__",
]
