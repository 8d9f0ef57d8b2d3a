"""Exact computations in Lipschitz-free spaces over finite metric spaces.

Norms are Kantorovich-Rubinstein transport values computed by exact
rational linear programming, with a dual norming function and a primal
transport plan certifying every result.

Every submodule is bound here at import but runs its body only when one of
its attributes is first used (``importlib.util.LazyLoader``), and the
exported names are looked up in their home modules on each access, so
``import lipfree`` runs no submodule and a command runs only those it uses.
Under Python 3.11 a first use from two threads at once is not safe.
"""

import importlib.util
import sys

_MODULES = "cli diametral free functions lp metric reports reproduce sampling scalars".split()


def _lazy(name: str):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


globals().update((name, _lazy(name)) for name in _MODULES)

# home module of each exported name; looked up on every access and never
# cached here, so a name rebound in its home module shows through lipfree.<name>
_HOME = {
    name: module
    for module, names in {
        "free": "FreeElement FreeNormResult Molecule all_molecules free_dist free_norm "
        "molecule_distance_formula molecules_in_slice",
        "functions": "LipFunction annulus_case_extension daugavet_recursive_construction "
        "delta_hat_family mcshane_extend nearest_point_function tail_plateau",
        "metric": "FiniteMetricSpace build_example1_space build_example2_space "
        "build_half_line_space build_hat_space build_recursion_space build_two_anchor_space "
        "extract_separated_pairs seg validate",
        "reports": "CertificateReport CheckRecord",
        "scalars": "as_float rat rat_str",
    }.items()
    for name in names.split()
}


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)


def __dir__() -> list:
    return sorted({*globals(), *_HOME})


__version__ = "0.1.0"

__all__ = sorted(_HOME)
