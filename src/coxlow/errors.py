"""Exception types shared across the package."""


class CoxlowError(Exception):
    """Base class for all coxlow errors."""


class NonSymmetricMatrix(CoxlowError):
    pass


class InvalidBondLabel(CoxlowError):
    pass


class OverrideOnFiniteBond(CoxlowError):
    pass


class OverrideAboveMinusOne(CoxlowError):
    pass


class IrrationalEntryForExactBackend(CoxlowError):
    pass


class DimensionMismatch(CoxlowError):
    pass


class ClosureCapExceeded(CoxlowError):
    """The small-root closure ran past its iteration cap.

    Mathematically the closure is finite, so hitting the cap signals a
    numeric-tolerance problem (duplicate roots not being identified)."""


class NonReducedInput(CoxlowError):
    pass


class NumericallyAmbiguous(CoxlowError):
    """A feasibility solve landed in the gray zone between accept and reject."""


class RankNotThree(CoxlowError):
    pass


class ConstructionFailed(CoxlowError):
    pass


class ZeroSum(CoxlowError):
    pass


class ParseError(CoxlowError):
    pass


class OutputError(CoxlowError):
    """An output file could not be written."""


class ValidationError(CoxlowError):
    pass
