"""orthoieq: orthogonal polynomials as solutions of nonlinear integral equations.

Build the unique degree-n polynomial solving
P(x) = integral over (alpha, beta) of w(y) P(y) P(x+y) dy
from the moments of w, verify it independently, and do the same for the
multiplicative, linearly shifted, and functional-argument variants.
"""

from .classical import chebyshev_U_star, jacobi_G, laguerre, legendre, match_up_to_scale
from .errors import (
    ConfigurationError,
    ConstantFunctionError,
    DegenerateDegreeError,
    DegreeMismatchError,
    InconsistentPatternError,
    InsufficientMomentsError,
    IntegrabilityError,
    ModeError,
    NormalizationError,
    NotProportionalError,
    OrthoieqError,
    QuadratureError,
    SingularHankelError,
    SingularSystemError,
    UnknownIdentifierError,
    WeightSyntaxError,
)
from .hankel import (
    hankel_condition,
    normalization,
    polynomial_via_determinants,
    solve_polynomial,
)
from .moments import MomentSequence, contour_moments, generalized_moments, moments
from .numeric import (
    DEFAULT_PRECISION,
    PrecisionContext,
    Scalar,
    scalar_eq,
    with_precision,
)
from .polynomials import (
    Polynomial,
    inner_moment,
    integral_image,
    multiplicative_image,
    orthogonality,
    shifted_inner,
)
from .variants import (
    Additive,
    ArbitraryF,
    ArbitraryFReport,
    Functional,
    LinearShift,
    Multiplicative,
    MultiplicativeCandidate,
    VerificationReport,
    check_arbitrary_f,
    check_functional_orthogonality,
    default_samples,
    enumerate_multiplicative,
    parity_measure_moments,
    parity_pattern,
    solve_functional,
    solve_linear_shift,
    solve_multiplicative,
    verify,
)
from .weights import (
    Interval,
    Weight,
    contour_weight,
    normalize,
    parse_weight,
    preset_weight,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
