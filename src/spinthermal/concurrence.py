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
  overflows, and the degenerate ground group at ``T = 0``;
  :func:`closed_route_array` gives its ``(C, Z)`` over arrays, bit for
  bit, for sweeps, with the sign-carrying entanglement witness
  ``ln(|rho_y| / sqrt(rho00 rho11))`` from the same level weights.

Complex conjugation in the spin flip is taken entry-wise in the
computational basis fixed by :mod:`spinthermal.spinmodel`; pinning the
basis makes every intermediate quantity reproducible.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InvalidState, InvalidTemperature, NotPSD
from .linalg import (PSD_FLOOR, TRACE_TOL, degenerate_groups, exp_or_inf, hermitian_eigen,
                     kron, map_floats, singular_values)
from .spinmodel import SIGMA_Y, ModelSpec, level_energies

#: Two-qubit spin-flip operator; real antidiagonal (-1, 1, 1, -1).
SPIN_FLIP = kron(SIGMA_Y, SIGMA_Y)

#: ``Tr_3`` of each level's projector (its states in ``spinmodel.LEVELS``) in
#: sixths: ``(<00|r|00>, <11|r|11>, <01|r|01> = <10|r|10>, <01|r|10>)``.
LEVEL_REDUCED_SIXTHS = ((6, 0, 0, 0), (4, 0, 4, -2), (2, 0, 2, 2),
                        (0, 4, 4, -2), (0, 2, 2, 2), (0, 6, 0, 0))
# Each column's nonzero terms as (getter of their levels, sixths), summed into s00, s11, s_w, s_y.
_CONTRACTIONS = tuple((operator.itemgetter(*(k for k, c in enumerate(col) if c)),
                       tuple(filter(None, col))) for col in zip(*LEVEL_REDUCED_SIXTHS))

_EXPM1_CAP = 700.0  # math.expm1 overflows just above 709.78
_TINY = sys.float_info.min
_HUGE = sys.float_info.max
_TAIL_MARGIN = 1.0 + 2.0**-40  # above the roundings of (|d| + sum |g|) * _TAIL_MARGIN itself
_LN2 = math.log(2.0)
_P1_PLUS_P3 = (operator.itemgetter(1, 3), (1, 1))  # the chiral doublets, which carry rho_y


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

    Accepts a plain 4x4 array or anything exposing ``.mat``.  One
    Hermitian solve ``rho = V D V^H`` gives the factor
    ``L = V sqrt(max(D, 0))`` with ``rho = L L^H``; an eigenvalue of
    ``rho`` below ``PSD_FLOOR`` raises ``NotPSD``.  ``rho @ rho_tilde``
    then has the spectrum of ``tau^H tau`` for the complex symmetric
    ``tau = L^T (sy x sy) L``, so the four lambdas are the singular values
    of ``tau``, descending, and the concurrence is
    ``max(l1 - l2 - l3 - l4, 0)``.
    """
    spectrum = hermitian_eigen(_as_matrix(rho))
    vals = spectrum.eigenvalues
    if float(vals.min()) < PSD_FLOOR:
        raise NotPSD(f"density matrix eigenvalue {vals.min():.3e} below {PSD_FLOOR:.0e}")
    factor = spectrum.eigenvectors * np.sqrt(np.clip(vals, 0.0, None))
    lams = singular_values(factor.T @ SPIN_FLIP @ factor)
    return ConcurrenceResult(lambdas=tuple(lams),
                             C=max(lams[0] - lams[1] - lams[2] - lams[3], 0.0))


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
        scale = exp_or_inf(-emin / T)
    elif T == 0.0:
        ranked = sorted(levels)
        top = ranked[len(degenerate_groups(ranked)[0]) - 1]
        weights = [float(e <= top) for e in levels]
        scale = math.inf if emin else 1.0  # E_min <= min(-3B, 3B) <= 0
    else:
        raise InvalidTemperature(f"temperature must be >= 0, got {T}")
    # fsum rounds correctly, so rho00 == rho11 exactly at B = 0
    s00, s11, s_w, s_y = [math.fsum(map(operator.mul, get(weights), sixths))
                          for get, sixths in _CONTRACTIONS]
    trace = s00 + s11 + 2.0 * s_w
    rho00, rho11, rho_w, rho_y = s00 / trace, s11 / trace, s_w / trace, s_y / trace
    C = max(2.0 * (abs(rho_y) - math.sqrt(rho00 * rho11)), 0.0)
    return C, scale * trace / 6.0, rho00, rho11, rho_w, rho_y


def _log_sum(values: list, get, sixths: tuple, T: float = 1.0) -> tuple[float, float]:
    """``(top, rest)`` with ``ln sum(c * exp(a / T)) = top / T + rest`` over ``get(values)``
    and ``sixths`` (all > 0), where ``top`` is the largest ``a``."""
    top = max(get(values))
    return top, math.log(math.fsum(c * math.exp((a - top) / T)
                                   for a, c in zip(get(values), sixths)))


def _log_witness(gaps: list, J: float, T: float) -> float:
    """``ln(|s_y| / sqrt(s00 s11))`` of one point from its level gaps ``E_min - E``,
    with no weight or sum leaving the float range.  Where every log weight of a
    level group is ``-inf``, the ``1/T`` terms are combined as gaps before one
    division by ``T``: ``max(-3J, 0) + max_y - (max_00 + max_11)/2``, each ``max``
    a group's largest gap; so the witness is ``+-inf`` by its sign, not NaN."""
    logs = [gap / T for gap in gaps]
    x = -3.0 * J / T
    if x > _EXPM1_CAP:
        log_gap = x  # ln(e**x - 1) = x + log1p(-e**-x), and e**-x is below an ulp
    elif x:
        log_gap = math.log(abs(math.expm1(x)))
    else:
        return -math.inf  # J = 0: rho_y = 0
    groups = (_P1_PLUS_P3, *_CONTRACTIONS[:2])
    if not any(all(a == -math.inf for a in get(logs)) for get, _ in groups):
        (ty, ry), (t00, r00), (t11, r11) = [_log_sum(logs, *group) for group in groups]
        return _LN2 + log_gap + (ty + ry) - 0.5 * ((t00 + r00) + (t11 + r11))
    lead, log_gap = (-3.0 * J, 0.0) if x > _EXPM1_CAP else (0.0, log_gap)
    (ty, ry), (t00, r00), (t11, r11) = [_log_sum(gaps, *group, T) for group in groups]
    return (lead + ty - 0.5 * (t00 + t11)) / T + (_LN2 + log_gap + ry - 0.5 * (r00 + r11))


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(s, e)`` with ``s = fl(a + b)`` and ``s + e = a + b`` exactly (Knuth's TwoSum)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


@np.errstate(over="ignore", invalid="ignore")
def _fsum_columns(terms: list) -> np.ndarray:
    """``math.fsum`` of each point's terms, over equal-length 1-D arrays, bit for bit.

    A TwoSum cascade over the terms gives ``s`` and its errors ``e``, a
    second one ``t = fl(sum e)`` and its errors ``g``, and
    ``(r, d) = TwoSum(s, t)``, so the exact sum is ``r + d + sum g``
    (Ogita, Rump and Oishi, SIAM J. Sci. Comput. 26, 1955 (2005)).  ``r``
    is that sum correctly rounded, as ``fsum`` returns it, where every ``g``
    is 0 (the sum is ``s + t``, ties included) or where ``|d| + sum |g|``
    is below half the narrower of ``r``'s two gaps, with a margin.  Any
    other point, and every zero, subnormal or non-finite ``r``, takes
    ``math.fsum``, so its NaN, ``inf`` and ``ValueError`` are fsum's own.
    """
    s, errors = terms[0], []
    for x in terms[1:]:
        s, e = _two_sum(s, x)
        errors.append(e)
    t, tail = errors[0], 0.0
    for e in errors[1:]:
        t, g = _two_sum(t, e)
        tail = tail + np.abs(g)
    r, d = _two_sum(s, t)
    narrow_gap = np.abs(r - np.nextafter(r, 0.0))  # the gap toward 0 is never the wider
    magnitude = np.abs(r)
    kept = (((tail == 0.0) | ((np.abs(d) + tail) * _TAIL_MARGIN < 0.5 * narrow_gap))
            & (magnitude >= _TINY) & (magnitude <= _HUGE))
    rest = np.flatnonzero(~kept)
    if rest.size:
        r[rest] = list(map(math.fsum, zip(*(x[rest].tolist() for x in terms))))
    return r


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def closed_route_array(J: np.ndarray, delta: np.ndarray, B: np.ndarray, T: np.ndarray,
                       columns=("C", "Z", "witness")) -> tuple:
    """``(C, Z, witness)`` over equal-length 1-D arrays with ``T > 0``.

    Each of the three is computed only where ``columns`` names it, and is
    ``None`` otherwise.

    ``C`` and ``Z`` are those of :func:`closed_route`, bit for bit: numpy does
    only the IEEE-exact steps, in the scalar order, every ``exp``, ``expm1``
    and ``log`` goes through :func:`~spinthermal.linalg.map_floats`, and
    ``s00``, ``s11``, ``s_w`` and ``s_y`` are the ``math.fsum`` of their
    column's 3, 3, 4 and 4 nonzero terms, taken over the whole arrays by
    :func:`_fsum_columns` (a NaN weight still reaches ``C`` and ``Z``
    through the trace), so no value depends on the array's length.  Its
    numpy steps raise no overflow, invalid or divide warning: they give
    the silent ``inf`` and ``nan`` of Python floats.

    ``witness = ln(|rho_y| / sqrt(rho00 rho11))`` has the sign of
    ``|rho_y| - sqrt(rho00 rho11)``; ``C`` can disagree with it where a
    level weight underflows.  It is ``-inf`` where ``J = 0`` (``rho_y = 0``).
    Since ``E_symmetric - E_single = 3J``, ``|s_y| = 2 |expm1(-3J/T)| (p1 + p3)``
    has no cancellation.  Where a factor of the ratio leaves the normal
    float range (or ``-3J/T`` exceeds what ``expm1`` takes), the point is
    evaluated from the log weights ``(E_min - E)/T`` instead; where every log
    weight of a level group is ``-inf`` it is ``+-inf`` or finite, never NaN
    (see :func:`_log_witness`).
    """
    levels = np.stack(level_energies(J, delta, B))
    emin = levels.min(axis=0)
    gaps = emin - levels
    logs = gaps / T
    weights = map_floats(math.exp, logs.ravel()).reshape(levels.shape)
    s00, s11, s_w, s_y = [_fsum_columns([row * c for row, c in zip(get(weights), sixths)])
                          for get, sixths in _CONTRACTIONS]
    trace = s00 + s11 + 2.0 * s_w
    C = Z = witness = None
    if "C" in columns:
        gap = 2.0 * (np.abs(s_y / trace) - np.sqrt((s00 / trace) * (s11 / trace)))
        C = np.where(0.0 > gap, 0.0, gap)  # max(gap, 0.0)
    if "Z" in columns:
        Z = map_floats(exp_or_inf, -emin / T) * trace / 6.0
    if "witness" in columns:
        x = -3.0 * J / T
        y_weight = weights[1] + weights[3]
        # beyond the cap expm1 raises; 0 sends the point to the log form
        expm1_x = map_floats(math.expm1, np.where(x > _EXPM1_CAP, 0.0, x))
        numerator = 2.0 * np.abs(expm1_x) * y_weight
        # a subnormal factor has lost digits (NaN fails too); the ground level
        # puts at least 2 in s00 or s11, so s00 s11 >= 2 min(s00, s11)
        normal = np.minimum.reduce((numerator, y_weight, s00, s11)) >= _TINY
        witness = map_floats(math.log, np.where(normal, numerator / np.sqrt(s00 * s11), 1.0))
        for i in np.flatnonzero(~normal).tolist():
            witness[i] = _log_witness(gaps[:, i].tolist(), J[i].item(), T[i].item())
    return C, Z, witness


def closed_form_xstate(J: float, delta: float, B: float, T: float) -> XStateParams:
    """:class:`XStateParams` of :func:`closed_route` at ``T > 0``; ``u == v`` at ``B = 0``.

    Where ``Z`` saturates to ``inf``, so do the nonzero parameters.
    """
    if T <= 0.0:
        raise InvalidTemperature(f"closed forms need T > 0, got {T}")
    _, Z, *rho = closed_route(J, delta, B, T)
    return XStateParams(*(1.5 * Z * r if r else 0.0 for r in rho), Z=Z)


def concurrence_closed_form(spec: ModelSpec, T: float) -> float:
    """Concurrence of :func:`closed_route` for the spec's model at ``T >= 0``.

    Raises ``UnsupportedModel`` for the general XYZ variant.
    """
    return closed_route(*spec.closed_form_params(), T)[0]
