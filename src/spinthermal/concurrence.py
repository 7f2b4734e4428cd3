"""Wootters concurrence for two-qubit states.

Three routes are provided:

* :func:`concurrence_general`: the spin-flip definition for an
  arbitrary 4x4 density matrix.  The square roots of the eigenvalues of
  ``rho @ rho_tilde`` (not Hermitian in general) are the singular values
  of ``tau = L^T (sy x sy) L``, where ``rho = L L^H`` comes from one
  Hermitian solve of ``rho``; the one-sided Jacobi SVD takes them with an
  absolute error near machine epsilon, so a lambda that is 0 in exact
  arithmetic stays near 0 instead of the square root of a rounding error.
* :func:`concurrence_xstate`: the shortcut for the X-shaped reduced
  states produced by the ring models, parameterized by
  :class:`XStateParams`.
* :func:`closed_route`: the closed form for the XX, XXZ and
  uniform-field models, and the independent check against the numeric
  pipeline: ground-shifted Boltzmann weights over the six analytic
  levels of :mod:`spinthermal.spinmodel`, so no ``|J|/T`` or ``|B|/T``
  overflows, and the degenerate ground group at ``T = 0``.  ``C`` is
  taken from the sign-carrying entanglement witness
  ``ln(|rho_y| / sqrt(rho00 rho11))``, so the two never disagree; where a
  weight leaves the normal range, the witness is one log-sum over the
  level gaps with a single division by ``T``.  It is one point of the kernel
  :func:`route_columns` over :func:`route_coordinate`, the level work, which
  sweeps and the ``T_c`` finder (:mod:`spinthermal.analysis`) do once per coordinate.

Matrices are lists of rows of ``complex`` (see
:func:`spinthermal.linalg.as_rows`).  The spin flip ``sy x sy`` acts in
the computational basis fixed by :mod:`spinthermal.spinmodel`; pinning
the basis makes every intermediate quantity reproducible.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass

from .errors import InvalidState, InvalidTemperature, NotPSD
from .linalg import (PSD_FLOOR, TRACE_TOL, as_rows, check_hermitian, degenerate_groups,
                     exp_or_inf, hermitian_part, jacobi_eigen, shape, singular_values)
from .spinmodel import ModelSpec, level_energies
from .thermalstate import DensityMatrix

#: ``Tr_3`` of each level's projector (its states in ``spinmodel.LEVELS``) in
#: sixths: ``(<00|r|00>, <11|r|11>, <01|r|01> = <10|r|10>, <01|r|10>)``.
LEVEL_REDUCED_SIXTHS = ((6, 0, 0, 0), (4, 0, 4, -2), (2, 0, 2, 2),
                        (0, 4, 4, -2), (0, 2, 2, 2), (0, 6, 0, 0))
# (getter of their levels, sixths) of s00 and s11, and of the pair of |s_y| for J >= 0, J < 0
_DIAGONALS = ((operator.itemgetter(0, 1, 2), (6, 4, 2)), (operator.itemgetter(5, 3, 4), (6, 4, 2)))
_PAIRS = ((operator.itemgetter(1, 3), (1, 1)), (operator.itemgetter(2, 4), (1, 1)))

_LN2 = math.log(2.0)
_TINY = sys.float_info.min


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
        if any(map(math.isnan, values)) or min(self.u, self.v, self.w) < 0.0 or self.Z <= 0.0:
            raise InvalidState("u, v, w must be nonnegative, Z positive and none NaN")
        if not all(map(math.isfinite, values)):
            return  # saturated to +-inf with Z (closed_form_xstate); no trace to check
        trace = 2.0 * (self.u + self.v + 2.0 * self.w) / (3.0 * self.Z)
        if abs(trace - 1.0) > TRACE_TOL:
            raise InvalidState(f"parameters violate unit trace: {trace!r}")


def concurrence_general(rho) -> ConcurrenceResult:
    """Concurrence of an arbitrary two-qubit density matrix.

    Accepts a plain 4x4 matrix (see :func:`spinthermal.linalg.as_rows`)
    or anything else exposing one as ``.mat``, checked by
    :func:`~spinthermal.linalg.check_hermitian`, or a 4x4
    :class:`~spinthermal.thermalstate.DensityMatrix`, checked when it was
    made.  One Jacobi solve of its Hermitian part ``rho = V D V^H`` gives
    the factor ``L = V sqrt(max(D, 0))`` with ``rho = L L^H``; an eigenvalue
    of ``rho`` below ``PSD_FLOOR`` raises ``NotPSD``.  ``rho @ rho_tilde``
    then has the spectrum of ``tau^H tau`` for the complex symmetric
    ``tau = L^T (sy x sy) L``, so the four lambdas are the singular values
    of ``tau``, descending, and the concurrence is ``max(l1 - l2 - l3 - l4, 0)``.
    """
    validated = isinstance(rho, DensityMatrix)
    mat = rho.mat if validated else as_rows(getattr(rho, "mat", rho))
    if shape(mat) != (4, 4):
        raise ValueError(f"expected a 4x4 density matrix, got shape {shape(mat)}")
    if not validated:
        check_hermitian(mat)
    vals, vectors = jacobi_eigen(hermitian_part(mat))
    if min(vals) < PSD_FLOOR:
        raise NotPSD(f"density matrix eigenvalue {min(vals):.3e} below {PSD_FLOOR:.0e}")
    roots = [math.sqrt(max(d, 0.0)) for d in vals]
    # column k of L, and of (sy x sy) L, whose rows are those of L reversed, the outer two negated
    cols = [[x * r for x in vec] for vec, r in zip(vectors, roots)]
    flipped = [(-x3, x2, x1, -x0) for x0, x1, x2, x3 in cols]
    # tau is symmetric: its upper triangle, mirrored
    tau = [[0j] * 4 for _ in range(4)]
    for a, col in enumerate(cols):
        for b in range(a, 4):
            tau[a][b] = tau[b][a] = sum(map(operator.mul, col, flipped[b]))
    lams = singular_values(tau)
    return ConcurrenceResult(lambdas=tuple(lams),
                             C=max(lams[0] - lams[1] - lams[2] - lams[3], 0.0))


def concurrence_xstate(params: XStateParams) -> float:
    """Concurrence of the X-shaped reduced state: ``(4 / 3Z) max(|y| - sqrt(uv), 0)``."""
    gap = abs(params.y) - math.sqrt(params.u * params.v)
    return (4.0 / (3.0 * params.Z)) * max(gap, 0.0)


def level_sums(p) -> tuple:
    """``(s00, s11, s_w, norm)`` of the level weights ``p``: columns of
    :data:`LEVEL_REDUCED_SIXTHS`, and ``norm = sum(deg p)``, a sixth of
    ``s00 + s11 + 2 s_w``.  ``s11`` mirrors the order of ``s00``, so the two
    are equal bit for bit at ``B = 0``."""
    p0, p1, p2, p3, p4, p5 = p
    return (6.0 * p0 + 4.0 * p1 + 2.0 * p2, 6.0 * p5 + 4.0 * p3 + 2.0 * p4,
            4.0 * p1 + 2.0 * p2 + 4.0 * p3 + 2.0 * p4, p0 + 2.0 * p1 + p2 + 2.0 * p3 + p4 + p5)


def route_coordinate(J: float, delta: float, B: float) -> tuple:
    """``(J, levels, E_min, gaps E_min - E)``: the ``T``-free part of :func:`closed_route`."""
    levels = level_energies(J, delta, B)
    emin = min(levels)
    return J, levels, emin, [emin - e for e in levels]


def closed_route(J: float, delta: float, B: float, T: float) -> tuple[float, ...]:
    """``(C, Z, witness, rho00, rho11, rho_w, rho_y)`` of a uniform ring at ``T >= 0``:
    :func:`route_columns` over one point."""
    (C,), (Z,), (w,), (r00,), (r11,), (r_w,), (r_y,) = route_columns(
        (route_coordinate(J, delta, B),), (T,))
    return C, Z, w, r00, r11, r_w, r_y


def route_columns(coordinates, temperatures) -> tuple[list, ...]:
    """Columns ``(C, Z, witness, rho00, rho11, rho_w, rho_y)`` of a block of points, in one
    loop: each :func:`route_coordinate` of ``coordinates`` at its ``T >= 0`` of ``temperatures``.

    Level weights ``p = exp(-(E - E_min)/T)`` in ``(0, 1]`` give the reduced
    state (:func:`level_sums`); only ``Z = exp(-E_min/T) sum(deg p)`` can
    overflow, and it saturates to ``inf``.  At ``T = 0`` the ground group
    (:func:`spinthermal.linalg.degenerate_groups`) weighs 1, the rest 0.

    As ``E_symmetric - E_single = 3J``, ``s_y = 2 (p2 + p4 - p1 - p3)`` is
    ``-sign(J) 2 |expm1(-3|J|/T)|`` times the larger pair, with no
    cancellation (at ``T = 0`` the factor is one minus the pairs' ratio).
    ``C = 2 (|rho_y| - sqrt(rho00 rho11))^+`` is ``-2 |rho_y| expm1(-max(w, 0))``
    of the witness ``w = ln(|s_y| / sqrt(s00 s11))``, so ``C > 0`` only where
    ``w > 0``; ``w`` is ``-inf`` where ``J = 0``.  Where a factor of ``w``
    leaves the normal range, ``w`` is one log-sum over the gaps (:func:`_log_witness`):
    finite, or ``+-inf`` by its sign where its ``1/T`` term overflows, never NaN
    for finite gaps; at ``T = 0`` it is then ``-inf`` where ``s_y = 0``, else ``+inf``.
    A negative or NaN ``T`` raises ``InvalidTemperature``.
    """
    columns = Cs, Zs, ws, rho00s, rho11s, rho_ws, rho_ys = [], [], [], [], [], [], []
    exp, expm1, log, sqrt = math.exp, math.expm1, math.log, math.sqrt
    for (J, levels, emin, gaps), T in zip(coordinates, temperatures):
        if T > 0.0:
            g0, g1, g2, g3, g4, g5 = gaps  # unrolled: a comprehension is a call before 3.12
            weights = exp(g0 / T), exp(g1 / T), exp(g2 / T), exp(g3 / T), exp(g4 / T), exp(g5 / T)
            scale = exp_or_inf(-emin / T)
            factor = abs(expm1(-3.0 * abs(J) / T))
        elif T == 0.0:
            ranked = sorted(levels)
            top = ranked[len(degenerate_groups(ranked)[0]) - 1]
            weights = [float(e <= top) for e in levels]
            scale = math.inf if emin else 1.0  # E_min <= min(-3B, 3B) <= 0
        else:
            raise InvalidTemperature(f"temperature must be >= 0, got {T}")
        s00, s11, s_w, norm = level_sums(weights)
        _, p1, p2, p3, p4, _ = weights
        pair, other = (p2 + p4, p1 + p3) if J < 0.0 else (p1 + p3, p2 + p4)
        if not T:  # the weights are 0 or 1; other <= pair
            factor = 1.0 - other / pair if pair else 0.0
        abs_y = 2.0 * factor * pair
        # a subnormal factor has lost digits (NaN fails too)
        if abs_y >= _TINY and pair >= _TINY and s00 >= _TINY and s11 >= _TINY:
            w = log(abs_y / sqrt(s00 * s11))
        elif T:
            w = _log_witness(gaps, J, T)
        else:
            w = math.inf if abs_y else -math.inf
        trace = 6.0 * norm
        Cs.append(-2.0 * (abs_y / trace) * expm1(-(0.0 if 0.0 >= w else w)))
        Zs.append(scale * norm)
        ws.append(w)
        rho00s.append(s00 / trace)
        rho11s.append(s11 / trace)
        rho_ws.append(s_w / trace)
        rho_ys.append((-abs_y if J > 0.0 else abs_y) / trace)
    return columns


def _log_sum(values: list, get, sixths: tuple, T: float) -> tuple[float, float]:
    """``(top, rest)`` with ``ln sum(c * exp(a / T)) = top / T + rest`` over ``get(values)``
    and ``sixths`` (all > 0), where ``top`` is the largest ``a``."""
    top = max(get(values))
    return top, math.log(math.fsum(c * math.exp((a - top) / T)
                                   for a, c in zip(get(values), sixths)))


def _log_witness(gaps: list, J: float, T: float) -> float:
    """``ln(|s_y| / sqrt(s00 s11))`` of one point at ``T > 0`` from its level gaps
    ``E_min - E``, with no weight or sum leaving the float range; ``|s_y|`` takes
    the pair of :func:`closed_route`.  Each group's log-sum is ``t / T + r``
    (:func:`_log_sum`), ``t`` its largest gap, and the ``t`` are combined as gaps
    before one division by ``T``: ``w = (t_y - (t_00 + t_11)/2) / T + (ln 2 +
    ln|expm1(-3|J|/T)| + r_y - (r_00 + r_11)/2)``.  Every level lies in one of
    the two diagonal groups, so one of ``t_00``, ``t_11`` is 0 and the numerator
    cannot overflow; for finite gaps the witness is finite or ``+-inf``, not NaN."""
    x = -3.0 * abs(J) / T
    if not x:
        return -math.inf  # J = 0: rho_y = 0
    log_gap = math.log(abs(math.expm1(x)))
    groups = (_PAIRS[J < 0.0], *_DIAGONALS)
    (ty, ry), (t00, r00), (t11, r11) = [_log_sum(gaps, *group, T) for group in groups]
    return (ty - 0.5 * (t00 + t11)) / T + (_LN2 + log_gap + ry - 0.5 * (r00 + r11))


def closed_form_xstate(J: float, delta: float, B: float, T: float) -> XStateParams:
    """:class:`XStateParams` of :func:`closed_route` at ``T > 0``; ``u == v`` at ``B = 0``.

    Where ``Z`` saturates to ``inf``, so do the nonzero parameters.
    """
    if T <= 0.0:
        raise InvalidTemperature(f"closed forms need T > 0, got {T}")
    _, Z, _, *rho = closed_route(J, delta, B, T)
    return XStateParams(*(1.5 * Z * r if r else 0.0 for r in rho), Z=Z)


def concurrence_closed_form(spec: ModelSpec, T: float) -> float:
    """Concurrence of :func:`closed_route` for the spec's model at ``T >= 0``.

    Raises ``UnsupportedModel`` for the general XYZ variant.
    """
    return closed_route(*spec.closed_form_params(), T)[0]
