"""Thermal pairwise entanglement in three-qubit Heisenberg rings.

Builds the ring Hamiltonians (XX, XXZ, XXZ in a uniform field, general
XYZ), diagonalizes them exactly, forms Gibbs states and two-qubit
reductions, and evaluates the Wootters concurrence both numerically and
through closed forms, plus the critical temperatures, entanglement
regions and zero-temperature transition values that follow.
"""

import types

from .analysis import (
    CriticalPoint,
    RegionVerdict,
    SweepAxis,
    SweepConfig,
    Z0,
    field_region,
    sweep,
    xx_critical,
    xxx_field_threshold,
    xxz_critical,
    xxz_region,
)
from .concurrence import (
    ConcurrenceResult,
    XStateParams,
    concurrence_closed_form,
    concurrence_general,
    concurrence_xstate,
)
from .errors import (
    ConfigError,
    FloatOverflow,
    InputError,
    InvalidGrid,
    InvalidState,
    InvalidTemperature,
    NaNResult,
    NoConvergence,
    NoRoot,
    NotHermitian,
    NotPSD,
    OutOfDomain,
    ParseError,
    SpinThermalError,
    UnknownKey,
    UnsupportedModel,
    ValidationError,
)
from .linalg import Spectrum, hermitian_eigen, psd_sqrt
from .spinmodel import (
    ModelSpec,
    Q,
    SHIFT_PHASES,
    analytic_eigenstates,
    analytic_energies,
    basis_index,
    build_hamiltonian,
    cyclic_shift,
)
from .thermalstate import (
    DensityMatrix,
    gibbs_density,
    partial_trace,
    partition_function,
)

__version__ = "0.1.0"

# every public name imported above, and nothing else
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, types.ModuleType))
