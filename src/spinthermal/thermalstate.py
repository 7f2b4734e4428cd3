"""Gibbs states of the ring models and their two-qubit reductions.

Temperatures are in units with the Boltzmann constant equal to 1.  For
``T > 0`` the thermal state is built from the numerically obtained
spectrum with energies shifted by the ground energy before
exponentiation, so inverse temperatures up to ``1e3`` never overflow
(the shift cancels in the normalized state).  ``T = 0`` means the
equal-weight mixture over the degenerate ground group, which is exactly
how the zero-temperature concurrence limits arise.  Matrices are lists
of rows of ``complex`` (see :func:`spinthermal.linalg.as_rows`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidState, InvalidTemperature
from .linalg import (TRACE_TOL, as_rows, check_hermitian, degenerate_groups, exp_or_inf,
                     jacobi_eigen, mixture, shape)
from .spinmodel import ModelSpec, build_hamiltonian


@dataclass(frozen=True)
class DensityMatrix:
    """Validated density matrix (4x4 or 8x8): finite, Hermitian, unit trace.

    ``mat`` is a fresh tuple of rows, each a tuple of ``complex``, made
    from the matrix given, any nested sequence of numbers; the checks run
    once, here, and hold for as long as the object lives.
    """

    mat: tuple

    def __post_init__(self) -> None:
        mat = tuple(map(tuple, as_rows(self.mat)))
        object.__setattr__(self, "mat", mat)
        if shape(mat) not in ((4, 4), (8, 8)):
            raise ValueError(f"expected a 4x4 or 8x8 matrix, got {shape(mat)}")
        check_hermitian(mat)
        trace = sum(row[k] for k, row in enumerate(mat))
        if math.hypot(trace.real - 1.0, trace.imag) > TRACE_TOL:  # abs() can overflow
            raise InvalidState(f"trace must be 1, got {trace!r}")


def partition_function(spec: ModelSpec, T: float) -> float:
    """Sum of Boltzmann weights over the numerically obtained spectrum: ``exp(-E_min/T)``
    (``inf`` where it overflows) times the fsum of :func:`gibbs_density`'s weights."""
    if T <= 0.0:
        raise InvalidTemperature(f"partition function needs T > 0, got {T}")
    energies = jacobi_eigen(build_hamiltonian(spec))[0]  # built exactly Hermitian
    emin = energies[0]
    # an exponent below the float range weighs 0
    shifted = math.fsum(math.exp((emin - e) / T) for e in energies)
    return exp_or_inf(-emin / T) * shifted  # shifted >= 1, so an inf factor stays inf


def gibbs_density(spec: ModelSpec, T: float) -> DensityMatrix:
    """Thermal equilibrium state ``exp(-H/T) / Z`` of the model.

    At ``T = 0`` this is the projector onto the degenerate ground group
    divided by its degeneracy (grouping per
    :func:`spinthermal.linalg.degenerate_groups`).  The matrix is
    exactly Hermitian, with a real diagonal.
    """
    if T < 0.0:
        raise InvalidTemperature(f"temperature must be >= 0, got {T}")
    energies, vectors = jacobi_eigen(build_hamiltonian(spec))  # built exactly Hermitian
    if T == 0.0:
        ground = degenerate_groups(energies)[0]
        weights = [1.0 / len(ground) if k in ground else 0.0 for k in range(len(energies))]
    else:
        emin = energies[0]
        # an exponent below the float range weighs 0
        weights = [math.exp((emin - e) / T) for e in energies]
        total = sum(weights)
        weights = [w / total for w in weights]
    return DensityMatrix(mixture(weights, vectors))


def partial_trace(rho, site: int = 3):
    """Trace one qubit out of an 8x8 operator.

    ``site`` counts from 1; the returned 4x4 operator keeps the two
    remaining qubits in their original order.  A plain matrix input (any
    nested sequence, useful for unnormalized projector sums) returns a
    list of rows, a :class:`DensityMatrix` returns a :class:`DensityMatrix`.
    """
    if site not in (1, 2, 3):
        raise ValueError(f"site must be 1, 2 or 3, got {site}")
    mat = rho.mat if isinstance(rho, DensityMatrix) else as_rows(rho)
    if shape(mat) != (8, 8):
        raise ValueError(f"expected an 8x8 matrix, got {shape(mat)}")
    # index of the traced qubit's bit t inserted into a 2-bit index of the kept ones
    low = 3 - site
    full = [[(a >> low << low + 1) | (t << low) | (a & ((1 << low) - 1)) for t in (0, 1)]
            for a in range(4)]
    reduced = [[mat[i0][j0] + mat[i1][j1] for j0, j1 in full] for i0, i1 in full]
    if isinstance(rho, DensityMatrix):
        return DensityMatrix(reduced)
    return reduced
