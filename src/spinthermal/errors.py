"""Exception hierarchy shared by every module in the package."""


class SpinThermalError(Exception):
    """Base class for all errors raised by this package."""


class NotHermitian(SpinThermalError):
    """A matrix expected to be Hermitian is not, beyond tolerance."""


class NoConvergence(SpinThermalError):
    """The Jacobi eigensolver hit its sweep cap before converging."""


class NotPSD(SpinThermalError):
    """A matrix expected to be positive semidefinite has a clearly
    negative eigenvalue."""


class NaNResult(SpinThermalError):
    """A computed quantity came out NaN, so there is no value to report."""


class InvalidTemperature(SpinThermalError):
    """Temperature outside the domain of the requested operation."""


class UnsupportedModel(SpinThermalError):
    """No closed form exists for this model variant."""


class NoRoot(SpinThermalError):
    """Root bracketing failed: no sign change over the search interval."""


class OutOfDomain(SpinThermalError):
    """Argument lies outside the mathematical domain of the expression."""


class InvalidGrid(SpinThermalError):
    """A sweep grid is empty, reversed, or otherwise malformed."""


class ConfigError(SpinThermalError):
    """Base class for configuration problems."""


class ParseError(ConfigError):
    """Malformed configuration line."""


class ValidationError(ConfigError):
    """Missing or ill-typed configuration field."""


class UnknownKey(ConfigError):
    """Unrecognized configuration key."""
