"""Wootters concurrence for two-qubit states.

Three routes are provided:

* :func:`concurrence_general`: the spin-flip definition for an
  arbitrary 4x4 density matrix.  The eigenvalues of ``rho @ rho_tilde``
  (not Hermitian in general) are obtained through the Hermitian,
  positive-semidefinite similarity ``sqrt(rho) @ rho_tilde @ sqrt(rho)``,
  which has the same spectrum, so all spectral work stays inside the
  Jacobi solver.
* :func:`concurrence_xstate`: the shortcut for the X-shaped reduced
  states produced by the ring models, parameterized by
  :class:`XStateParams`.
* :func:`closed_route`: the closed form for the XX, XXZ and
  uniform-field models, and the independent check against the numeric
  pipeline: ground-shifted Boltzmann weights over the six analytic
  levels of :mod:`spinthermal.spinmodel`, so no ``|J|/T`` or ``|B|/T``
  overflows, and the degenerate ground group at ``T = 0``;
  :func:`closed_route_array` gives its ``(C, Z)`` over arrays, bit for
  bit, for sweeps.

Complex conjugation in the spin flip is taken entry-wise in the
computational basis fixed by :mod:`spinthermal.spinmodel`; pinning the
basis makes every intermediate quantity reproducible.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import InvalidTemperature
from .linalg import (PSD_FLOOR, degenerate_groups, hermitian_eigen, kron, map_floats,
                     psd_sqrt)
from .spinmodel import SIGMA_Y, ModelSpec, level_energies

#: Two-qubit spin-flip operator; real antidiagonal (-1, 1, 1, -1).
SPIN_FLIP = kron(SIGMA_Y, SIGMA_Y)

#: ``Tr_3`` of each level's projector (its states in ``spinmodel.LEVELS``) in
#: sixths: ``(<00|r|00>, <11|r|11>, <01|r|01> = <10|r|10>, <01|r|10>)``.
LEVEL_REDUCED_SIXTHS = ((6, 0, 0, 0), (4, 0, 4, -2), (2, 0, 2, 2),
                        (0, 4, 4, -2), (0, 2, 2, 2), (0, 6, 0, 0))
_SIXTHS_COLUMNS = tuple(zip(*LEVEL_REDUCED_SIXTHS))

_XSTATE_TRACE_TOL = 1e-10


@dataclass(frozen=True)
class ConcurrenceResult:
    """Sorted spin-flip eigenvalue roots and the concurrence they give."""

    lambdas: tuple[float, float, float, float]
    C: float


@dataclass(frozen=True)
class XStateParams:
    """Closed-form parameters of the ring's reduced two-qubit state.

    The reduced state is ``(2 / (3 Z)) * [[u, 0, 0, 0], [0, w, y, 0],
    [0, y, w, 0], [0, 0, 0, v]]`` in the (00, 01, 10, 11) basis, so unit
    trace pins ``2 (u + v + 2 w) = 3 Z``.  Field-free models have
    ``u == v``.
    """

    u: float
    v: float
    w: float
    y: float
    Z: float

    def __post_init__(self) -> None:
        values = (self.u, self.v, self.w, self.y, self.Z)
        if not all(math.isfinite(x) for x in values):
            return  # extreme-parameter overflow; consistency is meaningless
        if min(self.u, self.v, self.w) < 0.0 or self.Z <= 0.0:
            raise ValueError("u, v, w must be nonnegative and Z positive")
        trace = 2.0 * (self.u + self.v + 2.0 * self.w) / (3.0 * self.Z)
        if abs(trace - 1.0) > _XSTATE_TRACE_TOL:
            raise ValueError(f"parameters violate unit trace: {trace!r}")

    def reduced_matrix(self) -> np.ndarray:
        """The 4x4 density matrix described by these parameters."""
        scale = 2.0 / (3.0 * self.Z)
        out = np.zeros((4, 4), dtype=complex)
        out[0, 0] = scale * self.u
        out[3, 3] = scale * self.v
        out[1, 1] = out[2, 2] = scale * self.w
        out[1, 2] = out[2, 1] = scale * self.y
        return out


def _as_matrix(rho) -> np.ndarray:
    mat = getattr(rho, "mat", rho)
    mat = np.asarray(mat, dtype=complex)
    if mat.shape != (4, 4):
        raise ValueError(f"expected a 4x4 density matrix, got shape {mat.shape}")
    return mat


def spin_flip(rho) -> np.ndarray:
    """The tilde transform ``(sy x sy) conj(rho) (sy x sy)``."""
    mat = _as_matrix(rho)
    return SPIN_FLIP @ mat.conj() @ SPIN_FLIP


def concurrence_general(rho) -> ConcurrenceResult:
    """Concurrence of an arbitrary two-qubit density matrix.

    Accepts a plain 4x4 array or anything exposing ``.mat``.  The four
    lambdas are the square roots of the eigenvalues of the spin-flipped
    product, descending; the concurrence is
    ``max(l1 - l2 - l3 - l4, 0)``.
    """
    mat = _as_matrix(rho)
    root = psd_sqrt(mat)
    mixed = root @ spin_flip(mat) @ root
    vals = hermitian_eigen((mixed + mixed.conj().T) / 2.0).eigenvalues
    if float(vals.min()) < PSD_FLOOR:
        raise ValueError(f"spin-flip product eigenvalue {vals.min():.3e} < 0")
    lams = np.sqrt(np.clip(vals, 0.0, None))[::-1]
    diff = float(lams[0] - lams[1] - lams[2] - lams[3])
    return ConcurrenceResult(lambdas=tuple(float(x) for x in lams), C=max(diff, 0.0))


def concurrence_xstate(params: XStateParams) -> float:
    """Concurrence of the X-shaped reduced state: ``(4 / 3Z) max(|y| - sqrt(uv), 0)``."""
    gap = abs(params.y) - math.sqrt(params.u * params.v)
    return (4.0 / (3.0 * params.Z)) * max(gap, 0.0)


def closed_route(J: float, delta: float, B: float, T: float) -> tuple[float, ...]:
    """``(C, Z, rho00, rho11, rho_w, rho_y)`` of a uniform ring at ``T >= 0``.

    Level weights ``p = exp(-(E - E_min)/T)`` in ``(0, 1]`` mix the rows
    of :data:`LEVEL_REDUCED_SIXTHS` into the reduced state, whose four
    distinct entries close the tuple; only ``Z = exp(-E_min/T) sum p deg``
    can overflow, and it saturates to ``inf``.  At ``T = 0`` the ground
    group (:func:`spinthermal.linalg.degenerate_groups`) weighs 1, the
    rest 0.
    """
    levels = level_energies(J, delta, B)
    emin = min(levels)
    if T > 0.0:
        weights = [math.exp((emin - e) / T) for e in levels]
        try:
            scale = math.exp(-emin / T)
        except OverflowError:
            scale = math.inf
    elif T == 0.0:
        ranked = sorted(levels)
        top = ranked[len(degenerate_groups(ranked)[0]) - 1]
        weights = [float(e <= top) for e in levels]
        scale = math.inf if emin else 1.0  # E_min <= min(-3B, 3B) <= 0
    else:
        raise InvalidTemperature(f"temperature must be >= 0, got {T}")
    # fsum rounds correctly, so rho00 == rho11 exactly at B = 0
    s00, s11, s_w, s_y = [math.fsum(map(operator.mul, weights, column))
                          for column in _SIXTHS_COLUMNS]
    trace = s00 + s11 + 2.0 * s_w
    rho00, rho11, rho_w, rho_y = s00 / trace, s11 / trace, s_w / trace, s_y / trace
    # max() last: unentangled points share the constant 0.0 (sweeps keep every C)
    C = max(2.0 * (abs(rho_y) - math.sqrt(rho00 * rho11)), 0.0)
    return C, scale * trace / 6.0, rho00, rho11, rho_w, rho_y


def _exp_or_inf(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def closed_route_array(J: np.ndarray, delta: np.ndarray, B: np.ndarray,
                       T: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(C, Z)`` of :func:`closed_route` over equal-length 1-D arrays with ``T > 0``.

    Bit for bit the scalar values: numpy does only the IEEE-exact steps,
    in the scalar order, and every ``exp`` and ``fsum`` goes through
    :func:`~spinthermal.linalg.map_floats`.  Run it under
    ``np.errstate(over="ignore", invalid="ignore")`` to get the silent
    ``inf`` and ``nan`` of Python float arithmetic.
    """
    levels = np.stack(level_energies(J, delta, B), axis=1)
    emin = levels.min(axis=1)
    weights = map_floats(math.exp, ((emin[:, None] - levels) / T[:, None]).ravel())
    weights = weights.reshape(levels.shape)
    s00, s11, s_w, s_y = [map_floats(math.fsum, weights * np.array(column, float))
                          for column in _SIXTHS_COLUMNS]
    trace = s00 + s11 + 2.0 * s_w
    gap = 2.0 * (np.abs(s_y / trace) - np.sqrt((s00 / trace) * (s11 / trace)))
    C = np.where(0.0 > gap, 0.0, gap)  # max(gap, 0.0)
    return C, map_floats(_exp_or_inf, -emin / T) * trace / 6.0


def closed_form_xstate(J: float, delta: float, B: float, T: float) -> XStateParams:
    """:class:`XStateParams` of :func:`closed_route` at ``T > 0``; ``u == v`` at ``B = 0``.

    Where ``Z`` saturates to ``inf``, so do the nonzero parameters.
    """
    if T <= 0.0:
        raise InvalidTemperature(f"closed forms need T > 0, got {T}")
    _, Z, *rho = closed_route(J, delta, B, T)
    return XStateParams(*(1.5 * Z * r if r else 0.0 for r in rho), Z=Z)


def concurrence_closed_form(spec: ModelSpec, T: float) -> float:
    """Concurrence of :func:`closed_route` for the spec's model.

    Raises ``UnsupportedModel`` for the general XYZ variant and
    ``InvalidTemperature`` for ``T <= 0``.
    """
    J, delta, B = spec.closed_form_params()
    if T <= 0.0:
        raise InvalidTemperature(f"closed forms need T > 0, got {T}")
    return closed_route(J, delta, B, T)[0]
