"""mapvir: exact symbolic computation for map Virasoro algebras Vir (x) A.

Brackets with central term, PBW straightening over U(V_-), Verma modules and
singular vectors, quasifiniteness and reducibility decision procedures,
intermediate-series and (generalized) evaluation modules, tensor weight
tables, and classification records.  All arithmetic is exact rational.

Every public name is served from the submodule that defines it, which is
imported on first use (PEP 562), so a caller compiles only what it touches.
``liealg`` is imported here, so MAPVIR_MODE_MAX is read once, at import.
"""

import importlib

from . import liealg  # noqa: F401  (reads MAPVIR_MODE_MAX)

_EXPORTS = {
    "algebra": (
        "Algebra", "AlgebraElement", "Ideal", "PrincipalIdeal", "QuotientMap",
        "algebra_from_spec", "algebra_to_spec", "format_element", "ideal_closure",
        "ideal_intersection", "ideal_power", "ideal_product", "point_ideal",
        "quotient_algebra"),
    "classify": (
        "ClassificationRecord", "Component", "TrichotomyProfile", "classify_module",
        "involute_functional", "trichotomy_profile"),
    "errors": (
        "AlgebraMismatch", "ImproperIdeal", "InfiniteDimensionalAlgebra", "MapVirError",
        "MissingWindow", "ModeRangeError", "NotLowering", "UnsupportedKind",
        "WindowOverflow"),
    "evalmod": (
        "AnnihilatorReport", "GeneralizedEvalHandle", "IntSeriesEvalHandle",
        "IntSeriesSpec", "IrreducibleQuotientHandle", "ModuleHandle", "TensorHandle",
        "VermaHandle", "WeightTable", "annihilator_support", "eval_act",
        "int_series_act", "local_quotient", "module_from_spec", "module_to_spec",
        "weight_multiplicities"),
    "exprs": ("parse_algebra_element", "parse_lie_element", "parse_word"),
    "liealg": (
        "GradeComponent", "LieElement", "bracket", "c_term", "central_scalar", "d_term",
        "format_lie_element", "grade_decompose", "mode_max"),
    "pbw": (
        "EnvElement", "format_env", "format_monomial", "height_hm", "monomial_weight",
        "pbw_basis", "straighten"),
    "scalars": ("Scalar", "as_scalar", "format_scalar", "parse_scalar"),
    "verma": (
        "Functional", "QuasifiniteVerdict", "ReducibilityVerdict", "VermaVector",
        "check_quasifinite", "check_verma_reducible", "depth_one_vector",
        "functional_from_spec", "functional_to_spec", "highest_weight_vector",
        "in_maximal_submodule", "largest_d0_ideal", "largest_v0_ideal", "module_dims",
        "pairing_matrix", "quotient_dims", "singular_vectors", "split_phi", "verma_act"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset([*_EXPORTS, "cli", "linalg", "polyutil", "recurrence", "selftest"])

__all__ = sorted(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name: str):
    """Import the submodule behind ``name`` and bind the name here."""
    if name in _SOURCE:
        value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_SOURCE, *_SUBMODULES})
