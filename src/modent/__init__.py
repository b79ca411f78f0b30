"""Exact arithmetic for entropy of probability distributions modulo a prime."""

from .characterization import (
    ConstraintSystem,
    SolutionSpace,
    build_system,
    compare_with_entropy,
    entropy_vector,
    solve,
)
from .distributions import (
    ModDist,
    ModMeasure,
    compose,
    entropy,
    entropy_measure,
    entropy_of_representatives,
    measure_entropy_of_representatives,
    pad_zeros,
    tensor,
    uniform,
)
from .errors import (
    ArityMismatch,
    CompositionMismatch,
    DegreeTooHigh,
    DenominatorDivisibleByP,
    DivisibleByP,
    DuplicateLabel,
    IndexOutOfRange,
    InvalidDistribution,
    InvalidPolynomial,
    InvalidResidue,
    InvalidSize,
    ModentError,
    ModulusMismatch,
    NotCommonDenominator,
    NotMeasurePreserving,
    NotPrime,
    ParseError,
    RangeGuard,
    SumNotOne,
    UnknownLabel,
)
from .finprob import (
    FinProbSpace,
    MPMap,
    compose_maps,
    conditional_defect,
    convex_combine_maps,
    identity_map,
    info_loss,
    info_loss_conditional,
    make_map,
    map_from_dict,
    map_to_dict,
    one_point_space,
    space_from_dict,
    space_to_dict,
    terminal_map,
)
from .modular import (
    LiftedResidue,
    PrimeModulus,
    Residue,
    fermat_quotient,
    fq_section,
    is_prime,
    p_derivation,
    verify_fq_laws,
    verify_hom_uniqueness,
)
from .polynomials import (
    MultiPoly,
    check_cocycle,
    check_fundamental,
    check_grouping,
    check_poly_chain_rule,
    check_pounds1_formula,
    check_symmetry_pounds1,
    entropy_poly,
    homogenize,
    homogenize_check,
    identity_reports,
    interpolate,
    pounds1,
)
from .residue import (
    RationalDist,
    check_residue_well_defined,
    real_entropy_equal,
    reduce_mod,
    residue_additive,
    residue_entropy,
    tensor_rational,
)
from .verification import VerificationReport

__version__ = "0.1.0"
