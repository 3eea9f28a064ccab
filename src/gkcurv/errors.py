"""Exception types shared across the engine."""


class GKCurvError(Exception):
    """Base class for all engine errors."""


class DivisionByZero(GKCurvError):
    """Division by an expression whose canonical form is zero."""


class EvaluationPole(GKCurvError):
    """Denominator vanishes at the requested point."""


class FieldClosureError(GKCurvError):
    """Requested operation would leave the exact coefficient field."""


class ChartMismatch(GKCurvError):
    """Operands live on different charts."""


class SingularMap(GKCurvError):
    """Affine map matrix is not invertible."""


class NotClosed(GKCurvError):
    """2-form argument must be d-closed."""


class NotBivector(GKCurvError):
    """Argument must have vector components only."""


class ZeroSpinor(GKCurvError):
    """Spinor vanishes at the requested point."""


class ImpureSpinor(GKCurvError):
    """Form does not have a maximal isotropic annihilator."""


class DegenerateOmega(GKCurvError):
    """2-form is not invertible where an inverse is required."""


class DecompositionFailed(GKCurvError):
    """The derivative of the spinor does not decompose in the expected shape."""


class ExtractionResidue(GKCurvError):
    """The curvature's scalar invariant came out non-real; conventions broken."""


class VanishingVolume(GKCurvError):
    """Spinor pairing vanishes where it must not."""


class NotMeanZero(GKCurvError):
    """Hamiltonian function must integrate to zero against the spinor volume."""


class NotRealStructure(GKCurvError):
    """A quantity that must be real is not."""


class NotExactlyIntegrable(GKCurvError):
    """Exact integration requires a fully periodic chart and trig-polynomial data."""


class DimensionMismatch(GKCurvError):
    """Simultaneous eigenspaces do not have the expected dimensions."""


class WrongBidegree(GKCurvError):
    """Deformation direction has components outside the allowed bidegrees."""


class SceneError(GKCurvError):
    """Scene file failed validation; message carries the offending field."""
