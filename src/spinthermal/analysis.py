"""Entanglement regions, critical temperatures, and figure-style sweeps.

Every predicate reports a sign-carrying witness with the sign of
``|rho_y| - sqrt(rho00 rho11)``, whose positive part is half the
concurrence.  The region functions are the paper's analytic conditions in
the Boltzmann factor ``z = exp(J/T)``:

* XXZ model: ``|y| - v`` evaluated in an overflow-safe arrangement,
  ``z**(2 delta) * (z**-2 / 2 - 2 z) - 3/2`` on the ferromagnetic side;
* field model: ``y**2 - u v = h(delta, z) cosh(2 beta B) - g(delta, z)``,
  evaluated as ``(h - g) + 2 h sinh(beta B)**2``.

Each is finite on part of the domain only; the sweep's witness (from
:func:`~spinthermal.concurrence.closed_route`) is finite on all of it.

Critical temperatures, per unit ``|J|`` (they scale linearly in ``|J|``),
are roots in ``ln T`` of the witness sweeps print, at levels built once per
anisotropy, by regula falsi with the Illinois step.  One finder serves both
field-free models: the XX ring is the XXZ ring at ``delta = 0``.

A sweep's axes are ``T`` and the variant's fields in
:data:`~spinthermal.spinmodel.REQUIRED_FIELDS`; a field set outside them
is ignored and is not an axis.  A sweep splits its work in two.  What
depends only on the non-temperature coordinates (the closed-form
parameters, the closed route's level work of
:func:`~spinthermal.concurrence.route_coordinate` and the critical
temperature) is computed once per distinct coordinate and kept for the
length of the call; the critical point itself is found once per distinct
anisotropy and scaled by each coordinate's ``|J|``.  The grid is then
walked one line at a time, one value of the first axis against the whole
last axis, and each line is one
:func:`~spinthermal.concurrence.route_columns` call, which gives its
``C``, ``Z`` and witness ``ln(|rho_y| / sqrt(rho00 rho11))`` together:
the witness is the sweep's ``witness`` column for every variant and the
sign of its ``C``.  :func:`sweep_blocks` yields the named columns line
by line; :func:`sweep` turns the blocks of every field into records.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .concurrence import route_columns, route_coordinate
from .errors import (InvalidGrid, InvalidTemperature, NaNResult, NoRoot, OutOfDomain,
                     ValidationError)
from .spinmodel import REQUIRED_FIELDS, ModelSpec

BISECT_TOL = 1e-14
BISECT_CAP = 200

_LN2 = math.log(2.0)

#: Stationary point of the XXZ witness with respect to the anisotropy.
Z0 = 4.0 ** (-1.0 / 3.0)

_EXP_CAP = 700.0  # beyond this an exponent is treated as +inf

#: The variants with a critical temperature: the field-free rings.
CRITICAL_VARIANTS = ("xx", "xxz")

#: The most grid points of one sweep block: a longer grid line is split
#: into blocks of this many points.
SWEEP_BLOCK = 1024

#: The sweep columns of :func:`~spinthermal.concurrence.route_columns`, in its order.
_ROUTE_COLUMNS = ("C", "Z", "witness")


@dataclass(frozen=True)
class CriticalPoint:
    """Critical Boltzmann factor with its log and temperature forms.

    ``T_c`` is per unit ``|J|``; it is finite because ``z_c < 1``.
    """

    z_c: float
    x_c: float
    T_c: float


@dataclass(frozen=True)
class RegionVerdict:
    """Entanglement verdict plus the sign-carrying witness behind it."""

    entangled: bool
    witness: float


def _regula_falsi(fn, lo: float, f_lo: float, hi: float, f_hi: float) -> float:
    """Root of ``fn`` between ``lo`` and ``hi``, given its values there: regula falsi
    with the Illinois step (Dowell and Jarratt, BIT 11, 1971), bisecting where a
    step leaves the bracket.  Returns the last iterate ``x`` once the bracket is
    at most :data:`BISECT_TOL` times ``max(1, |x|)`` wide."""
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise NoRoot(f"no sign change on [{lo:g}, {hi:g}]")
    side = 0  # the end the last step moved: 1 for lo, -1 for hi
    for _ in range(BISECT_CAP):
        x = hi - f_hi * ((hi - lo) / (f_hi - f_lo))
        if not lo <= x <= hi:
            x = 0.5 * (lo + hi)
        f_x = fn(x)
        if f_x == 0.0:
            return x
        if (f_x > 0.0) == (f_lo > 0.0):
            if side > 0:  # hi kept twice
                f_hi *= 0.5
            lo, f_lo, side = x, f_x, 1
        else:
            if side < 0:
                f_lo *= 0.5
            hi, f_hi, side = x, f_x, -1
        if hi - lo <= BISECT_TOL * max(1.0, abs(x)):
            break
    return x


def _scaled_power(log_magnitude: float, sign: float) -> float:
    """exp(log_magnitude) carrying ``sign``, saturating to +-inf."""
    if log_magnitude > _EXP_CAP:
        return math.copysign(math.inf, sign)
    return math.copysign(math.exp(log_magnitude), sign)


def xxz_region(delta: float, z: float) -> RegionVerdict:
    """Entanglement verdict for the XXZ ring.

    The witness is ``|y| - v``; computing it as
    ``z**(2 delta) * bracket - 3/2`` through logs keeps very negative
    anisotropies finite-signed instead of producing inf - inf.  Finite while
    ``2 (delta - 1) J/T`` is below about 700, +-inf beyond; ``z**-2`` raises
    ``OverflowError`` for ``J/T`` below about -355, and ``z = 0`` ``ValueError``.
    """
    if z <= 0.0:
        raise ValueError(f"z must be positive, got {z}")
    if z > 1.0:
        bracket = -1.5 * z**-2
    else:
        bracket = 0.5 * z**-2 - 2.0 * z
    if bracket == 0.0:
        witness = -1.5
    else:
        log_mag = 2.0 * delta * math.log(z) + math.log(abs(bracket))
        witness = _scaled_power(log_mag, bracket) - 1.5
    return RegionVerdict(entangled=witness > 0.0, witness=witness)


def xxz_critical(delta: float) -> Optional[CriticalPoint]:
    """Critical point of the XXZ ring at the given anisotropy, per unit ``|J|``.

    Returns ``None`` for ``delta >= 1`` (never entangled) and raises
    ``OutOfDomain`` for a NaN ``delta``.  Otherwise ``T_c`` is the root in ``ln T``
    of the witness of :func:`~spinthermal.concurrence.closed_route` at ``J = -1``,
    ``B = 0``: ``ln(4 (1 - q) / (2 + 4 q + 6 r))`` with ``q = exp(-3/T)`` and
    ``r >= 0``, at most ``ln(4/5)`` at ``q = 1/3``: the bracket's upper end.  Its
    lower end halves ``T`` until the witness is positive.  Below ``delta = -1024``
    ``r`` underflows at every ``T`` of the bracket, so ``delta`` is clamped there,
    where the route's levels are exact.  ``z_c = exp(x_c)`` underflows below about -745.
    """
    if math.isnan(delta):
        raise OutOfDomain("anisotropy is NaN")
    if delta >= 1.0:
        return None
    coordinate = route_coordinate(-1.0, max(delta, -1024.0), 0.0)

    def witness(u: float) -> float:
        return route_columns((coordinate,), (math.exp(u),))[2][0]

    hi = math.log(3.0 / math.log(3.0))
    lo, f_hi, f_lo = hi - _LN2, witness(hi), witness(hi - _LN2)
    while not f_lo > 0.0 and math.exp(lo) > 0.0:
        hi, f_hi, lo = lo, f_lo, lo - _LN2
        f_lo = witness(lo)
    T_c = math.exp(_regula_falsi(witness, lo, f_lo, hi, f_hi))
    return CriticalPoint(z_c=math.exp(-1.0 / T_c), x_c=-1.0 / T_c, T_c=T_c)


def xx_critical() -> CriticalPoint:
    """Critical point of the XX ring: the positive root of ``4z^3 + 3z^2 - 1``.

    The XX ring is the XXZ ring at ``delta = 0``, where the XXZ witness
    vanishes exactly on that cubic's root.
    """
    return xxz_critical(0.0)


def field_region(delta: float, z: float, beta_B: float) -> RegionVerdict:
    """Entanglement verdict for the XXZ ring in a uniform field.

    The witness is ``y**2 - u v = h cosh(2 beta B) - g`` with the
    curves ``g`` and ``h`` depending only on ``(delta, z)``.  It is
    computed as ``(h - g) + 2 h sinh(beta B)**2``, with ``h - g`` expanded
    so that the ``z**(4 delta + 2)`` terms of ``h`` and ``g`` cancel
    exactly: at ``delta = 1`` it is ``-6 z**3 - 3``, where the difference
    of the two curves would be rounding noise on the order of ``z**6``.
    Finite only where ``h``, ``2 h sinh(beta_B)**2`` (``|beta_B|`` below about 354)
    and each power of ``z`` are: ``J/T`` in about [-177, 355] and ``|J/T|`` times
    each exponent below 709.  Beyond, a power or ``sinh`` raises ``OverflowError``
    or the witness is +-inf (nan at ``B = 0``); ``z = 0`` raises ``ValueError``.
    """
    if z <= 0.0:
        raise ValueError(f"z must be positive, got {z}")
    weight = z ** (2.0 * delta)
    h = 0.5 * weight * (weight * (z**-2 - z) ** 2 - (6.0 * z + 3.0 * z**-2))
    h_minus_g = (0.75 * z ** (4.0 * (delta - 1.0)) - 3.0 * z ** (4.0 * delta - 1.0)
                 - 3.0 * z ** (2.0 * delta + 1.0) - 1.5 * z ** (2.0 * delta - 2.0) - 2.25)
    witness = h_minus_g + 2.0 * h * math.sinh(beta_B) ** 2
    return RegionVerdict(entangled=witness > 0.0, witness=witness)


def xxx_field_threshold() -> float:
    """Boltzmann factor above which a field can entangle the isotropic ring.

    The positive root of ``z**6 - 8 z**3 - 2``, i.e.
    ``(4 + 3 sqrt(2))**(1/3)``.
    """
    return (4.0 + 3.0 * math.sqrt(2.0)) ** (1.0 / 3.0)


# ---------------------------------------------------------------------------
# parameter sweeps


@dataclass(frozen=True)
class SweepAxis:
    """One swept parameter: ``steps`` evenly spaced values over
    ``[start, stop]`` inclusive."""

    name: str
    start: float
    stop: float
    steps: int

    def values(self) -> list[float]:
        step = (self.stop - self.start) / (self.steps - 1)
        vals = [self.start + k * step for k in range(self.steps)]
        vals[-1] = self.stop
        return vals


@dataclass(frozen=True)
class SweepConfig:
    """Grid specification for :func:`sweep`.

    ``model`` fixes the variant and any non-swept couplings; ``T`` fixes
    the temperature unless ``T`` is an axis.
    """

    model: ModelSpec
    axes: tuple[SweepAxis, ...]
    T: Optional[float] = None


def _validate_sweep(config: SweepConfig) -> None:
    if not 1 <= len(config.axes) <= 2:
        raise InvalidGrid(f"need 1 or 2 axes, got {len(config.axes)}")
    seen = set()
    for axis in config.axes:
        if axis.name in seen:
            raise InvalidGrid(f"axis {axis.name!r} repeated")
        seen.add(axis.name)
        if axis.steps < 2:
            raise InvalidGrid(f"axis {axis.name!r} needs steps >= 2, got {axis.steps}")
        if not math.isfinite(axis.stop - axis.start):  # also catches an inf or nan end
            raise InvalidGrid(f"axis {axis.name!r} needs finite ends and a finite span: "
                              f"[{axis.start!r}, {axis.stop!r}]")
        if not axis.start < axis.stop:
            raise InvalidGrid(
                f"axis {axis.name!r} range is empty or reversed: "
                f"[{axis.start!r}, {axis.stop!r}]"
            )
        if axis.name != "T" and axis.name not in REQUIRED_FIELDS[config.model.variant]:
            raise InvalidGrid(
                f"axis {axis.name!r} does not apply to variant {config.model.variant!r}"
            )
    if "T" not in seen and config.T is None:
        raise InvalidGrid("T must be fixed when it is not an axis")


def sweep_blocks(config: SweepConfig, columns: Optional[Sequence[str]] = None
                 ) -> tuple[tuple[str, ...], Iterator[dict[str, list]]]:
    """The named record fields and the grid's records, block by block.

    The record fields are ``T`` and the variant's
    :data:`~spinthermal.spinmodel.REQUIRED_FIELDS` plus ``C``
    (closed form, positive only where the witness is), ``witness``
    (``ln(|rho_y| / sqrt(rho00 rho11))``, with the sign of
    ``|rho_y| - sqrt(rho00 rho11)``, and ``-inf`` where ``J = 0``), ``Z``
    and, for :data:`CRITICAL_VARIANTS`, the critical temperature ``T_c``
    (``None`` where no critical point exists: ``J >= 0`` or
    ``delta >= 1``).  ``columns`` names the fields to yield, in order,
    and defaults to all of the variant's; a name that is not one of them
    raises ``ValidationError``.

    The grid and ``columns`` are validated and the per-coordinate data (the
    closed-form parameters, :func:`~spinthermal.concurrence.route_coordinate`
    and ``T_c``) computed at the call; the iterator then walks the grid in
    order (first axis outermost) one line at a time, as one sequence per named
    field.  A line is one value of the outer factor (the first of two axes, or
    the fixed coordinate of a ``T`` sweep, or the fixed ``T`` of a sweep over
    one coordinate) against the whole last axis, split into blocks of
    :data:`SWEEP_BLOCK` points where it is longer.  A column that is constant
    along a line is ``(v,) * n``.  The ``T``, coordinate and ``T_c`` columns
    are tuples: where ``T`` is the first of two axes, each coordinate and
    ``T_c`` column is the same tuple in every line, and where it is the last
    axis, the ``T`` column is.  ``C``, ``Z`` and ``witness`` are lists and come
    together from one
    :func:`~spinthermal.concurrence.route_columns` call per block, made only
    where ``columns`` names one of them; ``T_c`` is found only where it is
    named, once per distinct anisotropy.  A NaN in a named ``C``, ``Z`` or
    ``witness``, checked in that order, raises ``NaNResult`` before its block
    is yielded.
    """
    _validate_sweep(config)
    names = [axis.name for axis in config.axes]
    grids = [axis.values() for axis in config.axes]
    temperatures = grids[names.index("T")] if "T" in names else [config.T]
    if not temperatures[0] > 0.0:  # axis values ascend
        raise InvalidTemperature(
            f"sweep temperatures must be > 0, got {temperatures[0]}")
    other_names = [name for name in names if name != "T"]
    other_grids = [grid for name, grid in zip(names, grids) if name != "T"]
    variant = config.model.variant
    base = dict(zip(("J", "delta", "B"), config.model.closed_form_params()))
    fields = ("T", *REQUIRED_FIELDS[variant], "C", "witness", "Z") + (
        ("T_c",) if variant in CRITICAL_VARIANTS else ())
    columns = fields if columns is None else tuple(columns)
    for name in columns:
        if name not in fields:
            raise ValidationError(f"unknown output column {name!r}")
    with_T_c = "T_c" in columns
    coordinates = []
    critical = functools.cache(xxz_critical)  # per anisotropy; None where delta >= 1
    for values in itertools.product(*other_grids):
        J, delta, B = (base | dict(zip(other_names, map(float, values)))).values()
        point = critical(delta) if with_T_c and J < 0.0 else None
        T_c = None if point is None else point.T_c * abs(J)
        coordinates.append((J, delta, B, T_c, route_coordinate(J, delta, B)))
    if names[-1] == "T":  # a line is one coordinate against the T axis
        spans = [tuple(temperatures[i:i + SWEEP_BLOCK])
                 for i in range(0, len(temperatures), SWEEP_BLOCK)]
        lines = ((span, [(value,) * len(span) for value in coordinate])
                 for coordinate in coordinates for span in spans)
    else:  # a line is one T against the last axis's coordinates, as columns
        width = len(grids[-1])
        spans = [list(zip(*coordinates[i:min(i + SWEEP_BLOCK, line + width)]))
                 for line in range(0, len(coordinates), width)
                 for i in range(line, line + width, SWEEP_BLOCK)]
        lines = (((T,) * len(span[0]), span) for T in temperatures for span in spans)
    return columns, _sweep_rows(lines, columns)


def _sweep_rows(lines: Iterator, columns: tuple) -> Iterator[dict]:
    """The blocks of :func:`sweep_blocks` from its ``lines``, each ``(temperatures,
    [Js, deltas, Bs, T_cs, route coordinates])`` of one block's points, with one
    :func:`~spinthermal.concurrence.route_columns` call each."""
    route_names = [name for name in _ROUTE_COLUMNS if name in columns]
    for temps, (Js, deltas, Bs, T_cs, routes) in lines:
        values = {"T": temps, "J": Js, "delta": deltas, "B": Bs, "T_c": T_cs}
        if route_names:  # axes and T_c alone need no route
            values |= zip(_ROUTE_COLUMNS, route_columns(routes, temps))
        for name in route_names:
            if not math.isnan(sum(values[name])):  # NaN for a NaN, or infinities of both signs
                continue
            nans = list(map(math.isnan, values[name]))
            if True in nans:
                i = nans.index(True)
                raise NaNResult(f"{name} is NaN at (J, delta, B, T) = "
                                f"({Js[i]!r}, {deltas[i]!r}, {Bs[i]!r}, {temps[i]!r})")
        yield {name: values[name] for name in columns}


def sweep(config: SweepConfig) -> list[dict]:
    """One record (field -> value) per grid point of :func:`sweep_blocks`, in grid order."""
    fields, blocks = sweep_blocks(config)
    rows = itertools.chain.from_iterable(zip(*block.values()) for block in blocks)
    return list(map(dict, map(zip, itertools.repeat(fields), rows)))
