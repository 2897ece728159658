"""Generalized dominance orders on non-negative arrays.

Dominance by prefix sums, constructive step certificates (transfers and
increases), Lorenz curves with the Gini index, and a CLI for timeline data.
"""

from .core import (
    DEFAULT_EPS,
    EXACT,
    Array,
    DominanceOutcome,
    EmptyArray,
    Increase,
    IndexOutOfBounds,
    LengthMismatch,
    MajorizeError,
    NegativeComponent,
    NonPositiveAmount,
    SortDesc,
    SortStepNotEii,
    Step,
    Transfer,
    TransferExceedsSource,
    apply_eii,
    as_eps,
    componentwise_leq,
    dominance_matrix,
    dominates_or_equal,
    generalized_compare,
    make_array,
    sort_asc,
    sort_desc,
)
from .decompose import (
    Certificate,
    CertificateMode,
    FailureReason,
    MalformedCertificate,
    NotDominated,
    SumsNotEqual,
    TargetNotDecreasing,
    VerificationReport,
    decompose_decreasing,
    decompose_general,
    decompose_transfers,
    random_dominated_pair,
    replay,
    verify_certificate,
)
from .lorenz import (
    ZeroTotal,
    classical_majorizes,
    convex_inequality_holds,
    default_convex_family,
    gini,
    lorenz_points,
)

__version__ = "0.1.0"
