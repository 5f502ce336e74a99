"""Exception types shared across the package."""


class UltrametricError(Exception):
    """Base class for all package errors."""


class CertificationFailed(UltrametricError):
    """A certificate's own check failed: the computation it vouches for is wrong."""


class InvalidPrime(UltrametricError):
    pass


class NotPAdicInteger(UltrametricError):
    pass


class PrecisionMismatch(UltrametricError):
    pass


class NotAUnit(UltrametricError):
    pass


class DivergentSeries(UltrametricError):
    pass


class InvalidResidue(UltrametricError):
    pass


class RadixMismatch(UltrametricError):
    pass


class NotComparable(UltrametricError):
    """Raised when no projection witness is found between two radices.

    ``reason`` is "coprime" when refuted outright, "search-exhausted" when
    the bounded witness search ran out; ``search_depth`` records the bound,
    ``level`` the first level l whose ``modulus`` R_l divides no R'_n.
    """

    def __init__(self, message, reason, search_depth, level, modulus):
        super().__init__(message)
        self.reason = reason
        self.search_depth = search_depth
        self.level = level
        self.modulus = modulus


class HenselPreconditionFailed(UltrametricError):
    pass


class KMismatch(UltrametricError):
    pass


class OverlappingCylinders(UltrametricError):
    pass


class ScaleMismatch(UltrametricError):
    pass


class InvalidGauge(UltrametricError):
    pass


class GridMismatch(UltrametricError):
    pass


class DegenerateMeasure(UltrametricError):
    pass


class DegeneratePartition(UltrametricError):
    pass


class NotNonnegative(UltrametricError):
    pass


class ExponentOutOfRange(UltrametricError):
    pass


class EmptySet(UltrametricError):
    pass
