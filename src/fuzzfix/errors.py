"""Exception types shared across the package."""


class FuzzfixError(Exception):
    """Base class for all library errors."""


class UnknownPoint(FuzzfixError):
    """A point does not belong to the space it was used with."""


class NotBijective(FuzzfixError):
    """A map offered as a bijection fails structural validation."""


class HorizonExceeded(FuzzfixError):
    """Modulus iterates never reach the target: they cycle above it."""


class PhiInvalid(FuzzfixError):
    """A modulus failed the admissibility checks required by an operation."""


class InvalidK(FuzzfixError):
    """Contraction ratio outside the open interval (0, 1)."""


class InverseUndefined(FuzzfixError):
    """A table bijection has no preimage for the requested value."""


class NoAdmissibleSuccessor(FuzzfixError):
    """No image point satisfies the strict successor bound at this step."""


class NotDemicompact(FuzzfixError):
    """Set-valued solve on a non-finite space without the caller's assertion."""


class ConfigError(FuzzfixError):
    """Base class for configuration problems (CLI exit code 2)."""


class ParseError(ConfigError):
    """Configuration document is not well formed."""


class ValidationError(ConfigError):
    """Configuration parsed but violates a structural invariant."""
