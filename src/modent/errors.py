"""Exception types shared across the package."""


class ModentError(Exception):
    """Base class for all errors raised by modent."""


class DivisibleByP(ModentError):
    """An integer that must be coprime to p is divisible by p."""


class RangeGuard(ModentError):
    """A computation was asked to run beyond its size guard."""


class NotPrime(ModentError, ValueError):
    """A modulus that must be prime is not."""


class InvalidDistribution(ModentError, ValueError):
    """Entries cannot form a distribution: there are none, or one is negative."""


class ArityMismatch(ModentError):
    """Tuple lengths do not line up (composition, evaluation points, ...)."""


class ModulusMismatch(ModentError):
    """Operands live over different primes."""


class IndexOutOfRange(ModentError, IndexError):
    """A position argument is outside the valid range."""


class NotMeasurePreserving(ModentError):
    """A map fails the fibre-sum condition; the offending fibre is reported."""

    def __init__(self, label, expected, actual):
        self.label = label
        self.expected = expected
        self.actual = actual
        super().__init__(
            f"fibre over {label!r} sums to {actual}, but the target weight is {expected}"
        )


class UnknownLabel(ModentError, KeyError):
    """A label does not belong to the space it was used with."""


class CompositionMismatch(ModentError):
    """Two maps cannot be composed: middle spaces differ."""


class DenominatorDivisibleByP(ModentError):
    """A rational entry cannot be reduced mod p; identifies the entry."""

    def __init__(self, index, entry, p):
        self.index = index
        self.entry = entry
        self.p = p
        super().__init__(f"entry {index} = {entry} has denominator divisible by {p}")


class DegreeTooHigh(ModentError):
    """A univariate polynomial exceeds the degree bound for homogenization."""


class ParseError(ModentError, ValueError):
    """Malformed textual input."""


class SumNotOne(ModentError, ValueError):
    """Distribution entries do not sum to 1; the computed sum is reported."""

    def __init__(self, computed_sum, message=None):
        self.computed_sum = computed_sum
        super().__init__(message or f"entries sum to {computed_sum}, expected 1")
