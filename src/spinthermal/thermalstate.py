"""Gibbs states of the ring models and their two-qubit reductions.

Temperatures are in units with the Boltzmann constant equal to 1.  For
``T > 0`` the thermal state is built from the numerically obtained
spectrum with energies shifted by the ground energy before
exponentiation, so inverse temperatures up to ``1e3`` never overflow
(the shift cancels in the normalized state).  ``T = 0`` means the
equal-weight mixture over the degenerate ground group, which is exactly
how the zero-temperature concurrence limits arise.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .errors import InvalidState, InvalidTemperature
from .linalg import TRACE_TOL, check_hermitian, degenerate_groups, exp_or_inf, hermitian_eigen
from .spinmodel import ModelSpec, build_hamiltonian


@dataclass(frozen=True)
class DensityMatrix:
    """Validated density matrix (4x4 or 8x8): finite, Hermitian, unit trace."""

    mat: np.ndarray

    def __post_init__(self) -> None:
        mat = np.asarray(self.mat, dtype=complex)
        object.__setattr__(self, "mat", mat)
        if mat.shape not in ((4, 4), (8, 8)):
            raise ValueError(f"expected a 4x4 or 8x8 matrix, got {mat.shape}")
        check_hermitian(mat)
        trace = complex(np.trace(mat))
        if abs(trace - 1.0) > TRACE_TOL:
            raise InvalidState(f"trace must be 1, got {trace!r}")


def partition_function(spec: ModelSpec, T: float) -> float:
    """Sum of Boltzmann weights over the numerically obtained spectrum."""
    if T <= 0.0:
        raise InvalidTemperature(f"partition function needs T > 0, got {T}")
    energies = hermitian_eigen(build_hamiltonian(spec)).eigenvalues
    beta = min(1.0 / T, sys.float_info.max)  # 1/T is inf below T = 5.6e-309, and inf * 0 NaN
    emin = float(energies.min())
    with np.errstate(over="ignore"):  # an overflowing exponent weighs exp(-inf) = 0
        shifted = float(np.exp(-beta * (energies - emin)).sum())
    return exp_or_inf(-beta * emin) * shifted  # shifted >= 1, so an inf factor stays inf


def gibbs_density(spec: ModelSpec, T: float) -> DensityMatrix:
    """Thermal equilibrium state ``exp(-H/T) / Z`` of the model.

    At ``T = 0`` this is the projector onto the degenerate ground group
    divided by its degeneracy (grouping per
    :func:`spinthermal.linalg.degenerate_groups`).
    """
    if T < 0.0:
        raise InvalidTemperature(f"temperature must be >= 0, got {T}")
    spectrum = hermitian_eigen(build_hamiltonian(spec))
    vecs = spectrum.eigenvectors
    if T == 0.0:
        ground = degenerate_groups(spectrum.eigenvalues)[0]
        cols = vecs[:, ground]
        rho = (cols @ cols.conj().T) / len(ground)
    else:
        energies = spectrum.eigenvalues
        with np.errstate(over="ignore"):  # an overflowing exponent weighs exp(-inf) = 0
            weights = np.exp(-(energies - energies.min()) / T)
        rho = (vecs * weights) @ vecs.conj().T / weights.sum()
    return DensityMatrix((rho + rho.conj().T) / 2.0)


def partial_trace(rho, site: int = 3):
    """Trace one qubit out of an 8x8 operator.

    ``site`` counts from 1; the returned 4x4 operator keeps the two
    remaining qubits in their original order.  A plain array input
    returns a plain array (useful for unnormalized projector sums), a
    :class:`DensityMatrix` returns a :class:`DensityMatrix`.
    """
    if site not in (1, 2, 3):
        raise ValueError(f"site must be 1, 2 or 3, got {site}")
    mat = getattr(rho, "mat", rho)
    mat = np.asarray(mat, dtype=complex)
    if mat.shape != (8, 8):
        raise ValueError(f"expected an 8x8 matrix, got {mat.shape}")
    cube = mat.reshape(2, 2, 2, 2, 2, 2)
    reduced = np.trace(cube, axis1=site - 1, axis2=site + 2).reshape(4, 4)
    if isinstance(rho, DensityMatrix):
        return DensityMatrix(reduced)
    return reduced
