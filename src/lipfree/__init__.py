"""Exact computations in Lipschitz-free spaces over finite metric spaces.

Norms are Kantorovich-Rubinstein transport values computed by exact
rational linear programming, with a dual norming function and a primal
transport plan certifying every result.
"""

from .free import (
    FreeElement,
    FreeNormResult,
    Molecule,
    all_molecules,
    free_dist,
    free_norm,
    molecule_distance_formula,
    molecules_in_slice,
)
from .functions import (
    LipFunction,
    annulus_case_extension,
    daugavet_recursive_construction,
    delta_hat_family,
    mcshane_extend,
    nearest_point_function,
    tail_plateau,
)
from .metric import (
    FiniteMetricSpace,
    build_example1_space,
    build_example2_space,
    build_half_line_space,
    build_hat_space,
    build_recursion_space,
    build_two_anchor_space,
    extract_separated_pairs,
    seg,
    validate,
)
from .reports import CertificateReport, CheckRecord
from .scalars import as_float, rat, rat_str

__version__ = "0.1.0"

__all__ = [
    "CertificateReport",
    "CheckRecord",
    "FiniteMetricSpace",
    "FreeElement",
    "FreeNormResult",
    "LipFunction",
    "Molecule",
    "all_molecules",
    "annulus_case_extension",
    "as_float",
    "build_example1_space",
    "build_example2_space",
    "build_half_line_space",
    "build_hat_space",
    "build_recursion_space",
    "build_two_anchor_space",
    "daugavet_recursive_construction",
    "delta_hat_family",
    "extract_separated_pairs",
    "free_dist",
    "free_norm",
    "mcshane_extend",
    "molecule_distance_formula",
    "molecules_in_slice",
    "nearest_point_function",
    "rat",
    "rat_str",
    "seg",
    "tail_plateau",
    "validate",
]
