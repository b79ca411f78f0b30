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


class InvalidPolynomial(ModentError, ValueError):
    """A polynomial's prime is not a PrimeModulus, its variable count, an
    exponent or a power is not a nonnegative int, or a coefficient is not an int."""


class InvalidResidue(ModentError, TypeError):
    """A residue was given a value that is neither an int nor a residue, or
    an entropy of representatives a representative that is not an int."""


class ArityMismatch(ModentError, ValueError):
    """Tuple lengths do not line up (composition, evaluation points, labels
    and probabilities, weights and maps, block sizes and outer slots, ...)."""


class InvalidSize(ModentError, ValueError):
    """A size or count is out of range: a truncation arity below 1, a
    uniform distribution on no points, a negative count, a block size below 1."""


class DuplicateLabel(ModentError, ValueError):
    """A finite probability space was given the same label twice."""


class NotCommonDenominator(ModentError, ValueError):
    """An integer does not clear the denominator of every entry."""


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
