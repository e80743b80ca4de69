"""Exception taxonomy. Every library-raised error derives from TwoToneError."""


class TwoToneError(Exception):
    pass


class ModelValidationError(TwoToneError):
    """Model parameters or sampled invariants (e.g. frequency separation) violated."""


class UnsupportedModelError(TwoToneError):
    """Operation requires exactly two components."""


class DegenerateAmplitudeError(TwoToneError):
    """Reference amplitude vanishes where a ratio is needed."""


class SolverFailureError(TwoToneError):
    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals


class HypothesisViolationError(TwoToneError):
    """Inputs outside the hypotheses of the closed-form result (e.g. a != 1)."""


class NoBifurcationError(TwoToneError):
    """Gap too large for ridge bifurcation: pi^2 sigma^2 delta^2 exceeds 2."""


class PhaseUndefinedError(TwoToneError):
    """Phase requested at a (near-)zero of the transform."""


class DomainError(TwoToneError):
    """Scalar argument outside its mathematical domain."""


class PreconditionError(TwoToneError):
    """Operation precondition violated (e.g. mollifier width constraint)."""


class OutOfBranchError(TwoToneError):
    def __init__(self, message, gamma=None):
        super().__init__(message)
        self.gamma = gamma


class ContourThroughZeroError(TwoToneError):
    """Winding contour passes through (or too close to) a zero."""


class InconclusiveCountError(TwoToneError):
    """Maxima counts disagree between resolutions."""


class PropagationError(TwoToneError):
    """Non-finite value encountered while evaluating a signal."""


class ConfigError(TwoToneError):
    """CLI configuration parse or validation failure."""
