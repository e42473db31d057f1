"""Exception types shared across the package."""


class CvWitnessError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(CvWitnessError):
    """Matrix or vector dimensions are inconsistent."""


class PatternMismatchError(CvWitnessError):
    """A covariance matrix cannot be brought to the requested family."""


class PartitionError(CvWitnessError):
    """A partition leaves a party empty or names a mode the state lacks."""


class ScaleOverflowError(CvWitnessError):
    """A covariance matrix is too large for its decision in double precision:
    products of its entries overflow, or its symplectic spectrum does not
    converge; or a detector's product-state maximizer is not a positive
    finite double."""


class SingularSumError(CvWitnessError):
    """det(gamma_G + gamma_M), and so det(ccm_G + ccm_M), vanishes: the
    detector mean of a non-Gaussian state is undefined."""


class ConstraintViolatedError(CvWitnessError):
    """Werner-Wolf family parameters violate ad - bc > 0 or ce - a > 0."""


class NonPositiveDeterminantError(CvWitnessError):
    """det(gamma_M + gamma_A (+) gamma_B) is non-positive on the search domain."""


class OptimizerStalledError(CvWitnessError):
    """The Fock seesaw stopped making progress: its objective decreased
    along a start."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class CutoffTooSmallError(CvWitnessError):
    """Fock truncation leaves too much tail mass for the requested accuracy."""


class DegeneratePreparationError(CvWitnessError):
    """Photon addition/subtraction annihilates the kernel state."""


class OrderTooHighError(CvWitnessError):
    """Total ladder-operator order exceeds the supported maximum."""


class NonZeroMeanError(CvWitnessError):
    """Input state carries nonzero first moments, which are not supported."""
