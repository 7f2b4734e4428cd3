"""The sweep engine: grid points evaluated a block at a time as numpy arrays.

:func:`spinthermal.analysis.sweep_blocks` imports this module when it is
called, and nothing else does, so every other command starts without
numpy.  :func:`closed_route_array` is the closed route of
:mod:`spinthermal.concurrence` over whole blocks, bit for bit, and
:func:`sweep_rows` evaluates a sweep's grid :data:`SWEEP_BLOCK` points
at a time.
"""

from __future__ import annotations

import itertools
import math
import sys
from typing import Iterator

import numpy as np

from .concurrence import _CONTRACTIONS, _EXPM1_CAP, _log_witness
from .errors import NaNResult
from .linalg import exp_or_inf
from .spinmodel import level_energies

#: Grid points a sweep evaluates as one set of arrays.
SWEEP_BLOCK = 1024

_TINY = sys.float_info.min
_HUGE = sys.float_info.max
_TAIL_MARGIN = 1.0 + 2.0**-40  # above the roundings of (|d| + sum |g|) * _TAIL_MARGIN itself
#: For the term counts of the level sums, ``math.fsum`` of every sign pattern of
#: that many zero terms on the running interpreter, indexed by the terms' sign
#: bits, the first term's highest.
_FSUM_ZEROS = {n: np.array(list(map(math.fsum, itertools.product((0.0, -0.0), repeat=n))))
               for n in {len(sixths) for _, sixths in _CONTRACTIONS}}


def map_floats(fn, arr: np.ndarray) -> np.ndarray:
    """``fn`` applied to Python floats elementwise: a float array as long as ``arr``.

    ``arr`` is 1-D.  numpy's own ``exp``, ``power``, ``log`` and ``cosh``
    differ from the C library's in the last bit on some inputs; going
    through ``math`` and ``pow`` keeps every value, and every
    ``OverflowError`` or ``ValueError``, those of the scalar code.
    """
    return np.fromiter(map(fn, arr.tolist()), float, len(arr))


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
    ``math.fsum``, so its NaN, ``inf`` and ``ValueError`` are fsum's own;
    except where every term of a level sum is ``+-0.0``, whose sum is the
    zero of that sign pattern in :data:`_FSUM_ZEROS`.
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
    if rest.size and len(terms) in _FSUM_ZEROS:
        zero = np.logical_and.reduce([x[rest] == 0.0 for x in terms])
        if zero.any():  # weights that all underflowed, at low T or in a strong field
            zeros = rest[zero]
            pattern = sum(np.signbit(x[zeros]).astype(int) << k
                          for k, x in enumerate(reversed(terms)))
            r[zeros] = _FSUM_ZEROS[len(terms)][pattern]
            rest = rest[~zero]
    if rest.size:
        r[rest] = list(map(math.fsum, zip(*(x[rest].tolist() for x in terms))))
    return r


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def closed_route_array(J: np.ndarray, delta: np.ndarray, B: np.ndarray, T: np.ndarray,
                       columns=("C", "Z", "witness")) -> tuple:
    """``(C, Z, witness)`` over equal-length 1-D arrays with ``T > 0``.

    Each of the three is computed only where ``columns`` names it, and is
    ``None`` otherwise.

    ``C`` and ``Z`` are those of :func:`~spinthermal.concurrence.closed_route`,
    bit for bit: numpy does only the IEEE-exact steps, in the scalar order,
    every ``exp``, ``expm1`` and ``log`` goes through :func:`map_floats`, and
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
    (see :func:`~spinthermal.concurrence._log_witness`).
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


def sweep_rows(pairs: Iterator, t_inner: bool, columns: tuple) -> Iterator[dict[str, list]]:
    """The records of the grid points ``pairs``, :data:`SWEEP_BLOCK` at a time,
    as one list per name in ``columns``.

    Each pair is ``((J, delta, B, T_c), T)``, or ``(T, (J, delta, B, T_c))``
    where ``t_inner`` is false.  Those of ``C``, ``Z`` and ``witness`` that
    ``columns`` names are computed by :func:`closed_route_array`, which is
    not called where it names none; a NaN in one of them raises
    ``NaNResult`` before its block is yielded.
    """
    closed_names = [name for name in ("C", "Z", "witness") if name in columns]
    for block in iter(lambda: list(itertools.islice(pairs, SWEEP_BLOCK)), []):
        firsts, seconds = zip(*block)
        coords, temps = (firsts, seconds) if t_inner else (seconds, firsts)
        Js, deltas, Bs, T_cs = zip(*coords)
        computed = {}
        if closed_names:  # axes and T_c alone need no level sums
            arrays = (np.array(column) for column in (Js, deltas, Bs, temps))
            computed = dict(zip(("C", "Z", "witness"), closed_route_array(*arrays, columns)))
        for name in closed_names:
            bad = np.flatnonzero(np.isnan(computed[name]))
            if bad.size:
                i = bad[0]
                raise NaNResult(f"{name} is NaN at (J, delta, B, T) = "
                                f"({Js[i]!r}, {deltas[i]!r}, {Bs[i]!r}, {temps[i]!r})")
        values = {"T": temps, "J": Js, "delta": deltas, "B": Bs, "T_c": T_cs}
        yield {name: values[name] if name in values else computed[name].tolist()
               for name in columns}
