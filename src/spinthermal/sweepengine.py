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
from typing import Iterator

import numpy as np

from .concurrence import _TINY, _log_witness, level_sums
from .errors import NaNResult
from .linalg import exp_or_inf
from .spinmodel import level_energies

#: Grid points a sweep evaluates as one set of arrays.
SWEEP_BLOCK = 1024


def map_floats(fn, arr: np.ndarray) -> np.ndarray:
    """``fn`` applied to Python floats elementwise: a float array as long as ``arr``.

    ``arr`` is 1-D.  numpy's own ``exp``, ``power``, ``log`` and ``cosh``
    differ from the C library's in the last bit on some inputs; going
    through ``math`` and ``pow`` keeps every value, and every
    ``OverflowError`` or ``ValueError``, those of the scalar code.
    """
    return np.fromiter(map(fn, arr.tolist()), float, len(arr))


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def closed_route_array(J: np.ndarray, delta: np.ndarray, B: np.ndarray, T: np.ndarray,
                       columns=("C", "Z", "witness")) -> tuple:
    """``(C, Z, witness)`` over equal-length 1-D arrays with ``T > 0``.

    Each of the three is computed only where ``columns`` names it, and is
    ``None`` otherwise.

    ``C`` and ``Z`` are those of :func:`~spinthermal.concurrence.closed_route`,
    bit for bit: numpy does only the IEEE-exact steps, in the scalar order
    (:func:`~spinthermal.concurrence.level_sums` serves both), and every
    ``exp``, ``expm1`` and ``log`` goes through :func:`map_floats`, so no
    value depends on the array's length.  Its numpy steps raise no
    overflow, invalid or divide warning: they give the silent ``inf`` and
    ``nan`` of Python floats.

    ``witness = ln(|rho_y| / sqrt(rho00 rho11))`` has the sign of
    ``|rho_y| - sqrt(rho00 rho11)``, and ``C`` is taken from it, so
    ``C > 0`` only where ``witness > 0``.  It is ``-inf`` where ``J = 0``
    (``rho_y = 0``).  Where a factor of the ratio leaves the normal float
    range, the point is evaluated from the log weights ``(E_min - E)/T``
    instead; where every log weight of a level group is ``-inf`` it is
    ``+-inf`` or finite, never NaN
    (see :func:`~spinthermal.concurrence._log_witness`).
    """
    levels = np.stack(level_energies(J, delta, B))
    emin = levels.min(axis=0)
    gaps = emin - levels
    weights = map_floats(math.exp, (gaps / T).ravel()).reshape(levels.shape)
    s00, s11, _, norm = level_sums(weights)
    C = Z = witness = None
    if "Z" in columns:
        Z = map_floats(exp_or_inf, -emin / T) * norm
    if "C" in columns or "witness" in columns:
        _, p1, p2, p3, p4, _ = weights
        pair = np.where(J < 0.0, p2 + p4, p1 + p3)
        abs_y = 2.0 * np.abs(map_floats(math.expm1, -3.0 * np.abs(J) / T)) * pair
        # a subnormal factor has lost digits (NaN fails too); the ground level
        # puts at least 2 in s00 or s11, so s00 s11 >= 2 min(s00, s11)
        normal = np.minimum.reduce((abs_y, pair, s00, s11)) >= _TINY
        witness = map_floats(math.log, np.where(normal, abs_y / np.sqrt(s00 * s11), 1.0))
        for i in np.flatnonzero(~normal).tolist():
            witness[i] = _log_witness(gaps[:, i].tolist(), J[i].item(), T[i].item())
        if "C" in columns:
            w = np.where(0.0 >= witness, 0.0, witness)  # max(witness, 0.0), NaN kept
            C = -2.0 * (abs_y / (6.0 * norm)) * map_floats(math.expm1, -w)
    return C, Z, witness if "witness" in columns else None


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
