"""Exception hierarchy shared across the package."""


class SepvarError(Exception):
    """Base class for all errors raised by sepvar."""


class InvalidInputError(SepvarError, ValueError):
    """Inputs violate a documented precondition (shapes, ranges, monotonicity)."""


class RankDeficiencyError(SepvarError):
    """A basis matrix lost full column rank.

    ``rank`` is the detected numerical rank; ``dataset`` (when set) identifies
    which right-hand side triggered the failure.
    """

    def __init__(self, message, rank=None, dataset=None):
        super().__init__(message)
        self.rank = rank
        self.dataset = dataset


class ModelOverflowError(SepvarError):
    """A model's exponent (the Beer absorption, or -alpha_j t of the exp
    basis) passed ``model.EXP_OVERFLOW_LIMIT``; ``index`` is the offending
    grid point."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class EvaluationError(SepvarError):
    """A residual or Jacobian callback returned NaN/Inf; carries the iterate."""

    def __init__(self, message, x=None):
        super().__init__(message)
        self.x = x


class ProblemTooLargeError(SepvarError):
    """A problem's arrays would exceed an element budget: the dense
    block-diagonal formulation, a slit's Toeplitz blocks or the datasets
    of a synthetic problem."""


class GenerationError(SepvarError):
    """Synthetic data generation failed to produce a usable instance."""
