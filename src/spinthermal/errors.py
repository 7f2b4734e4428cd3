"""Exception hierarchy shared by every module in the package.

Each error class owns its command-line exit code as ``exit_code``:
:class:`InputError` and everything under it mean the request itself is
outside what the package accepts (a malformed config, a grid, a
temperature or an argument outside a formula's domain) and exit with 2;
every other :class:`SpinThermalError` is a numeric failure of a valid
request and exits with 3.
"""


class SpinThermalError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 3


class InputError(SpinThermalError):
    """Base class for requests outside the accepted input or domain."""

    exit_code = 2


class NotHermitian(SpinThermalError):
    """A matrix expected to be Hermitian is not, beyond tolerance."""


class NoConvergence(SpinThermalError):
    """The Jacobi eigensolver hit its sweep cap before converging."""


class NotPSD(SpinThermalError):
    """A matrix expected to be positive semidefinite has a clearly
    negative eigenvalue."""


class NaNResult(SpinThermalError):
    """A computed quantity came out NaN, so there is no value to report."""


class FloatOverflow(SpinThermalError):
    """A quantity the computation cannot do without lies beyond the float range."""


class InvalidState(SpinThermalError, ValueError):
    """A density matrix or its parameters fail a check every state passes."""


class InvalidTemperature(InputError):
    """Temperature outside the domain of the requested operation."""


class UnsupportedModel(InputError):
    """No closed form exists for this model variant."""


class NoRoot(InputError):
    """Root bracketing failed: no sign change over the search interval."""


class OutOfDomain(InputError):
    """Argument lies outside the mathematical domain of the expression."""


class InvalidGrid(InputError):
    """A sweep grid is empty, reversed, or otherwise malformed."""


class ConfigError(InputError):
    """Base class for configuration problems."""


class ParseError(ConfigError):
    """Malformed configuration line."""


class ValidationError(ConfigError):
    """Missing or ill-typed configuration field."""


class UnknownKey(ConfigError):
    """Unrecognized configuration key."""
