"""Numerical laboratory for dyadic harmonic analysis on sampled windows.

Shifted dyadic grids, cell-constant sampled functions, Young functions
with Luxemburg norms, fractional maximal operators and discrete Riesz
potentials, stopping-time sparse families, two-weight joint constants,
and operator-norm lower-bound estimation, together with reproductions of
the standing example constructions and a batch CLI (``dyadlab``).

The subpackages stay importable on their own; this module re-exports the
working vocabulary so interactive use can start from ``import dyadlab``.
"""

from types import ModuleType as _ModuleType

from .constants import (
    ConstantReport,
    WeightPair,
    ainfty_exp,
    ainfty_m,
    ap_constant,
    apq_alpha,
    apq_alpha_constant,
    apq_bump,
    md_sp_testing,
    mixed_one_sup,
    outer_testing_constant,
    sawyer_maximal_testing,
)
from .grid import (
    Box,
    DyadicCube,
    GridFamily,
    all_shifts,
    box_from_obj,
    box_to_obj,
    cube_from_obj,
    cube_to_obj,
    parent,
    realize,
    shifted_grids,
)
from .normest import (
    NormEstimate,
    TestFamily,
    equivalence_report,
    estimate_norm,
    orlicz_norm_quadrature,
    potential_testing_chain,
    unit_pair,
)
from .operators import (
    dyadic_frac_maximal,
    dyadic_riesz,
    frac_maximal,
    geometric_maximal,
    orlicz_maximal,
    outer_riesz,
    weighted_dyadic_maximal,
)
from .orlicz import (
    CONVERGENT,
    DIVERGENT,
    INCONCLUSIVE,
    BpReport,
    NumericConjugate,
    PowerLog,
    PowerScaled,
    YoungFunction,
    borderline,
    bp_classify,
    log_bump,
    luxemburg,
    orlicz_holder_check,
    power,
    power_log,
    rescale_identity_check,
)
from .pairs import (
    build_E,
    case1_pair,
    case2_divergence,
    classical_pair,
    factored_pair,
    verify_E_maximal,
)
from .sampled import (
    ExponentTuple,
    SampledFunction,
    average,
    integrate,
    lp_norm,
    make_exponents,
    parse_rational,
)
from .sparse import (
    CarlesonSequence,
    SparseFamily,
    StoppingCube,
    build_sparse,
    certify_carleson,
    sparse_operator,
)

__version__ = "0.1.0"

# every name imported above; the submodules bound by those imports stay out
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
