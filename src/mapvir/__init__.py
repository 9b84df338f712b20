"""mapvir: exact symbolic computation for map Virasoro algebras Vir (x) A.

Brackets with central term, PBW straightening over U(V_-), Verma modules and
singular vectors, quasifiniteness and reducibility decision procedures,
intermediate-series and (generalized) evaluation modules, tensor weight
tables, and classification records.  All arithmetic is exact rational.
"""

from .algebra import (
    Algebra,
    AlgebraElement,
    Ideal,
    LocalFactor,
    PrincipalIdeal,
    QuotientMap,
    algebra_from_spec,
    algebra_to_spec,
    format_element,
    ideal_closure,
    ideal_intersection,
    ideal_power,
    ideal_product,
    local_decomposition,
    multiply,
    point_ideal,
    quotient_algebra,
)
from .classify import (
    ClassificationRecord,
    Component,
    TrichotomyProfile,
    classify_module,
    involute_functional,
    trichotomy_profile,
)
from .errors import (
    AlgebraMismatch,
    ImproperIdeal,
    InfiniteDimensionalAlgebra,
    MapVirError,
    MissingWindow,
    ModeRangeError,
    NotLowering,
    UnsupportedKind,
    WindowOverflow,
)
from .evalmod import (
    AnnihilatorReport,
    GeneralizedEvalHandle,
    IntSeriesEvalHandle,
    IntSeriesSpec,
    IrreducibleQuotientHandle,
    ModuleHandle,
    TensorHandle,
    VermaHandle,
    WeightTable,
    annihilator_support,
    eval_act,
    int_series_act,
    local_quotient,
    module_from_spec,
    module_to_spec,
    weight_multiplicities,
)
from .exprs import parse_algebra_element, parse_lie_element, parse_word
from .liealg import (
    GradeComponent,
    LieElement,
    bracket,
    c_term,
    central_scalar,
    d_term,
    format_lie_element,
    grade_decompose,
    mode_max,
)
from .pbw import (
    EnvElement,
    format_env,
    format_monomial,
    height_hm,
    monomial_weight,
    pbw_basis,
    straighten,
)
from .scalars import Scalar, as_scalar, format_scalar, parse_scalar
from .verma import (
    Functional,
    QuasifiniteVerdict,
    ReducibilityVerdict,
    VermaVector,
    check_quasifinite,
    check_verma_reducible,
    depth_one_vector,
    functional_from_spec,
    functional_to_spec,
    highest_weight_vector,
    in_maximal_submodule,
    largest_d0_ideal,
    largest_v0_ideal,
    module_dims,
    pairing_matrix,
    quotient_dims,
    singular_vectors,
    split_phi,
    verma_act,
)

__version__ = "0.1.0"
