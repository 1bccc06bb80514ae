"""weylfun: exact Weyl-algebra arithmetic, Hermite/Laguerre/Bessel
generators derived from it, and a harness that verifies every identity
the package claims.
"""

from .algebra import (
    GaussRational,
    ShiftedPoly,
    UniPoly,
    binom_shifted,
    format_poly,
    shifted_derivative,
)
from .errors import (
    AccuracyError,
    BlowUpError,
    DomainError,
    NonConvergenceError,
    NotCentralError,
    SingularityError,
    UnknownCheckError,
    WeylfunError,
)
from .weyl import (
    ConjugationResult,
    Eigen,
    Terminated,
    WeylOp,
    apply_exp_taylor,
    apply_to_poly,
    central_bch_prefactor,
    commutator,
    hadamard_conjugate,
    xp_plus_px,
)

__version__ = "0.1.0"

__all__ = [
    "AccuracyError",
    "BlowUpError",
    "ConjugationResult",
    "DomainError",
    "Eigen",
    "GaussRational",
    "NonConvergenceError",
    "NotCentralError",
    "ShiftedPoly",
    "SingularityError",
    "Terminated",
    "UniPoly",
    "UnknownCheckError",
    "WeylOp",
    "WeylfunError",
    "apply_exp_taylor",
    "apply_to_poly",
    "binom_shifted",
    "central_bch_prefactor",
    "commutator",
    "format_poly",
    "hadamard_conjugate",
    "shifted_derivative",
    "xp_plus_px",
    "__version__",
]
