"""gepnerstab: exact stability data for graded matrix factorizations.

Modules:
    exactmath   cyclotomic field arithmetic, certified enclosures, phases
    polynomials weighted-homogeneous polynomials over the rationals
    mfcore      graded matrix factorizations and the supertrace charge
    classify    weight-system enumeration and target geometry
    geomcharge  eigen-row central charges on elliptic/K3 targets
    hearts      the five numerical heart lattices, phases, windows
    extcalc     graded Ext tables along the 2-periodic resolution
    gfield      small finite fields and subspace enumeration
    quiverrep   heart quivers, named objects, stability, HN filtrations
    cli         the command-line surface

The names of ``exactmath``, which every other module imports, are bound
when the package is imported.  The other public names are imported from
their module on first access (PEP 562), so ``import gepnerstab`` does not
compile the modules a caller never uses.
"""

from importlib import import_module

from .exactmath import CycloNum, RationalPhase, cyclo, embed, phase_of

_LAZY = {
    "mfcore": ("GradedFreeModule", "GradedMF", "WeightedType", "koszul_c", "shift", "tau", "zg"),
    "classify": ("enumerate_types", "k3_constraint", "normalize_gcd", "table_rows"),
    "geomcharge": ("ChClass", "MukaiVector", "build_M", "constants", "mukai", "solve_alpha", "zg_geom", "zg_k3"),
    "hearts": (
        "CaseLattice",
        "build_lattice",
        "finite_phases",
        "lattice_for",
        "phase_table",
        "slope_mu",
        "verify_gepner",
        "zg_class",
    ),
    "extcalc": ("ext_cc", "ext_cm", "split_w", "yoneda_relations"),
    "quiverrep": (
        "QuiverRep",
        "StabilitySpec",
        "all_subreps",
        "heart_quiver",
        "hn_filtration",
        "is_stable",
        "named_object",
        "reduce_rep",
    ),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}

__all__ = ["CycloNum", "RationalPhase", "cyclo", "embed", "phase_of", *_HOME]
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
