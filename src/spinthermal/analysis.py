"""Entanglement regions, critical temperatures, and figure-style sweeps.

Every predicate reports a sign-carrying witness: the pair is entangled
exactly when the witness is positive.  Witness conventions:

* XX model: ``1 - 3 z**2 - 4 z**3`` (negated boundary cubic, so the
  sign matches the entangled/not-entangled verdict);
* XXZ model: ``|y| - v`` evaluated in an overflow-safe arrangement,
  ``z**(2 delta) * (z**-2 / 2 - 2 z) - 3/2`` on the ferromagnetic side;
* field model: ``y**2 - u v = h(delta, z) cosh(2 beta B) - g(delta, z)``.

Critical points come from plain bisection: the witnesses are monotone
through their single sign change on the bracketed interval, and at this
problem size robustness beats speed.  Critical temperatures are reported
per unit ``|J|`` (they scale linearly in ``|J|``).

A sweep splits its work in two.  What depends only on the
non-temperature coordinates (the model, its closed-form parameters and
the critical temperature) is computed once per distinct coordinate and
kept for the length of the call.  The grid points are then evaluated
:data:`SWEEP_BLOCK` at a time as numpy arrays, by
:func:`~spinthermal.concurrence.closed_route_array` and the array
witnesses (:func:`xx_witnesses`, :func:`xxz_witnesses`,
:func:`field_witnesses`).  numpy does only IEEE-exact steps there and
every libm call is mapped over Python floats, so the records hold the
scalar functions' values bit for bit.  Records are emitted in grid order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .concurrence import closed_route, closed_route_array
from .errors import InvalidGrid, InvalidTemperature, NoRoot, OutOfDomain
from .linalg import map_floats
from .spinmodel import ModelSpec

BISECT_TOL = 1e-12
BISECT_CAP = 200

#: Stationary point of the XXZ witness with respect to the anisotropy.
Z0 = 4.0 ** (-1.0 / 3.0)

#: Anisotropy -1/2 classification thresholds in p = z**-3.
P1 = 2.5 + 1.5 * math.sqrt(5.0)
P2 = 7.0

_EXP_CAP = 700.0  # beyond this an exponent is treated as +inf


@dataclass(frozen=True)
class CriticalPoint:
    """Critical Boltzmann factor with its log and temperature forms.

    ``T_c`` is per unit ``|J|`` (``None`` would mean no finite critical
    temperature, which the ring models never produce: ``z_c < 1``).
    """

    z_c: float
    x_c: float
    T_c: Optional[float]


@dataclass(frozen=True)
class RegionVerdict:
    """Entanglement verdict plus the sign-carrying witness behind it."""

    entangled: bool
    witness: float


@dataclass(frozen=True)
class FieldCurves:
    """The anisotropy -1/2 classification curves in ``p = z**-3``."""

    p: float
    g: float
    h: float
    hmg: float

    @property
    def case(self) -> int:
        """1: never entangled; 2: entangled for strong enough field;
        3: entangled for any field."""
        if self.h <= 0.0:
            return 1
        if self.hmg <= 0.0:
            return 2
        return 3


def _bisect(fn, lo: float, hi: float) -> float:
    flo, fhi = fn(lo), fn(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise NoRoot(f"no sign change on [{lo:g}, {hi:g}]")
    for _ in range(BISECT_CAP):
        mid = 0.5 * (lo + hi)
        fmid = fn(mid)
        if fmid == 0.0 or (hi - lo) <= BISECT_TOL * max(1.0, abs(mid)):
            return mid
        if (fmid > 0.0) == (flo > 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _scaled_power(log_magnitude: float, sign: float) -> float:
    """exp(log_magnitude) carrying ``sign``, saturating to +-inf."""
    if log_magnitude > _EXP_CAP:
        return math.copysign(math.inf, sign)
    return math.copysign(math.exp(log_magnitude), sign)


def xx_region(z: float) -> RegionVerdict:
    """Entanglement verdict for the XX ring at Boltzmann factor ``z``.

    The witness is ``1 - 3 z**2 - 4 z**3``; it is positive only on the
    ferromagnetic side below the critical factor, and automatically
    negative for every ``z >= 1`` (the antiferromagnetic side is never
    entangled).
    """
    if z <= 0.0:
        raise ValueError(f"z must be positive, got {z}")
    witness = 1.0 - 3.0 * z * z - 4.0 * z**3
    return RegionVerdict(entangled=witness > 0.0, witness=witness)


def xx_critical() -> CriticalPoint:
    """Critical point of the XX ring: the positive root of ``4z^3 + 3z^2 - 1``."""
    z_c = _bisect(lambda z: 4.0 * z**3 + 3.0 * z * z - 1.0, 0.1, 1.0)
    x_c = math.log(z_c)
    return CriticalPoint(z_c=z_c, x_c=x_c, T_c=1.0 / abs(x_c))


def xxz_region(delta: float, z: float) -> RegionVerdict:
    """Entanglement verdict for the XXZ ring.

    The witness is ``|y| - v``; computing it as
    ``z**(2 delta) * bracket - 3/2`` through logs keeps very negative
    anisotropies finite-signed instead of producing inf - inf.
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


def _xxz_log_witness(delta: float, x: float) -> float:
    """Sign-equivalent of the XXZ witness at ``x = ln z`` on ``z < z0``.

    There ``|y| - v > 0`` exactly when
    ``2 (delta - 1) x + ln(1/3 - (4/3) e^{3x}) > 0``.  The first term is
    written as ``(delta - 1) (2 x)`` so that it stays finite near ``z0``
    for any finite anisotropy; ``e^{3x} <= 1/4`` cannot overflow.
    """
    q = 4.0 * math.exp(3.0 * x)
    if q >= 1.0:
        return -math.inf
    return (delta - 1.0) * (2.0 * x) + math.log1p(-q) - math.log(3.0)


def xxz_critical(delta: float) -> Optional[CriticalPoint]:
    """Critical point of the XXZ ring at the given anisotropy.

    Returns ``None`` for ``delta >= 1`` (never entangled).  For every
    ``delta < 1`` the witness changes sign once on ``z < z0``; the root
    is bisected in ``x = ln z``, with the lower end of the bracket
    doubled until the witness is positive.  The bisection stops at a
    relative width of :data:`BISECT_TOL`, so ``T_c -> 0`` as
    ``delta -> 1`` keeps its leading digits.  ``z_c`` underflows to 0
    once ``x_c`` falls below about -745.
    """
    if delta >= 1.0:
        return None
    hi = math.log(Z0)
    lo = 2.0 * hi
    while not _xxz_log_witness(delta, lo) > 0.0:
        lo *= 2.0
    x_c = _bisect(lambda x: _xxz_log_witness(delta, x), lo, hi)
    return CriticalPoint(z_c=math.exp(x_c), x_c=x_c, T_c=1.0 / abs(x_c))


def delta_boundary(z: float, J: float, T: float) -> float:
    """Anisotropy at which the XXZ witness changes sign, at fixed ``z``.

    Defined for ferromagnetic points with ``z < z0``; the returned value
    is below 1, tends to 1 as ``z -> 0`` and diverges to ``-inf``
    (logarithmically slowly) as ``z -> z0``.  ``z`` must be the
    Boltzmann factor of ``(J, T)``, i.e. ``exp(J/T)``.
    """
    if T <= 0.0:
        raise InvalidTemperature(f"temperature must be > 0, got {T}")
    if J >= 0.0:
        raise OutOfDomain(f"boundary anisotropy needs J < 0, got {J}")
    if z >= Z0:
        raise OutOfDomain(f"no entanglement at any anisotropy for z >= {Z0:.6f}")
    if z <= 0.0:
        raise ValueError(f"z must be positive, got {z}")
    beta_j = J / T
    # ln(3 / (z**-2 - 4 z)) without the overflow of z**-2 at small z.
    log_ratio = math.log(3.0) + 2.0 * math.log(z) - math.log1p(-4.0 * z**3)
    return log_ratio / (2.0 * beta_j)


def field_region(delta: float, z: float, beta_B: float) -> RegionVerdict:
    """Entanglement verdict for the XXZ ring in a uniform field.

    The witness is ``y**2 - u v = h cosh(2 beta B) - g`` with the
    curves ``g`` and ``h`` depending only on ``(delta, z)``.
    """
    if z <= 0.0:
        raise ValueError(f"z must be positive, got {z}")
    g = 0.25 * (9.0 + z ** (4.0 * (delta - 1.0)) * (2.0 * z**6 + 8.0 * z**3 - 1.0))
    weight = z ** (2.0 * delta)
    h = 0.5 * weight * (weight * (z**-2 - z) ** 2 - (6.0 * z + 3.0 * z**-2))
    witness = h * math.cosh(2.0 * beta_B) - g
    return RegionVerdict(entangled=witness > 0.0, witness=witness)


# Array forms of the three witnesses, in the scalar functions' order of
# operations.  Each raises the scalar's exception type: ValueError for
# z <= 0, OverflowError for an overflowing power.  Run them under
# np.errstate(over="ignore", invalid="ignore"), which matches the silent
# inf and nan of Python float arithmetic.

def _require_positive(z: np.ndarray) -> None:
    bad = z <= 0.0
    if bad.any():
        raise ValueError(f"z must be positive, got {float(z[bad][0])}")


def _scaled_powers(log_magnitude: np.ndarray, sign) -> np.ndarray:
    """:func:`_scaled_power` elementwise."""
    capped = log_magnitude > _EXP_CAP
    powers = map_floats(math.exp, np.where(capped, 0.0, log_magnitude))
    return np.copysign(np.where(capped, math.inf, powers), sign)


def xx_witnesses(z: np.ndarray) -> np.ndarray:
    """:func:`xx_region` witnesses of an array of ``z``."""
    _require_positive(z)
    return 1.0 - 3.0 * z * z - 4.0 * map_floats(pow, z, 3)


def xxz_witnesses(delta: np.ndarray, z: np.ndarray) -> np.ndarray:
    """:func:`xxz_region` witnesses of equal-length arrays."""
    _require_positive(z)
    inverse_square = map_floats(pow, z, -2)
    bracket = np.where(z > 1.0, -1.5 * inverse_square, 0.5 * inverse_square - 2.0 * z)
    flat = bracket == 0.0
    log_mag = (2.0 * delta * map_floats(math.log, z)
               + map_floats(math.log, np.where(flat, 1.0, np.abs(bracket))))
    return np.where(flat, -1.5, _scaled_powers(log_mag, bracket) - 1.5)


def field_witnesses(delta: np.ndarray, z: np.ndarray, beta_B: np.ndarray) -> np.ndarray:
    """:func:`field_region` witnesses of equal-length arrays."""
    _require_positive(z)
    g = 0.25 * (9.0 + map_floats(pow, z, 4.0 * (delta - 1.0))
                * (2.0 * map_floats(pow, z, 6) + 8.0 * map_floats(pow, z, 3) - 1.0))
    weight = map_floats(pow, z, 2.0 * delta)
    inverse_square = map_floats(pow, z, -2)
    h = 0.5 * weight * (weight * map_floats(pow, inverse_square - z, 2)
                        - (6.0 * z + 3.0 * inverse_square))
    return h * map_floats(math.cosh, 2.0 * beta_B) - g


def xxx_field_threshold() -> float:
    """Boltzmann factor above which a field can entangle the isotropic ring.

    The positive root of ``z**6 - 8 z**3 - 2``, i.e.
    ``(4 + 3 sqrt(2))**(1/3)``.
    """
    return (4.0 + 3.0 * math.sqrt(2.0)) ** (1.0 / 3.0)


def field_curves_half(p: float) -> FieldCurves:
    """Classification curves of the anisotropy -1/2 ring, in ``p = z**-3``.

    All three are parabolas in ``p``: ``h`` changes sign at
    :data:`P1` and ``h - g`` at :data:`P2`; the ``case`` property turns
    their signs into the three-way field classification.
    """
    if p <= 0.0:
        raise ValueError(f"p must be positive, got {p}")
    h = 0.5 * (p * p - 5.0 * p - 5.0)
    g = 0.25 * (11.0 + 8.0 * p - p * p)
    hmg = 0.25 * (3.0 * p * p - 18.0 * p - 21.0)
    return FieldCurves(p=p, g=g, h=h, hmg=hmg)


def zero_temperature_concurrence(delta: float, B: float, J: float = 1.0) -> float:
    """Zero-temperature concurrence limit of the antiferromagnetic ring.

    The concurrence of the equal mixture over the degenerate ground
    group, :func:`~spinthermal.concurrence.closed_route` at ``T = 0``.
    In a field it is 1/3 for ``delta > |B|/J - 1/2`` (the ground
    doublet), 2/9 on that line (the ground triplet) and 0 below it
    (nondegenerate polarized ground state).
    """
    if J <= 0.0:
        raise ValueError(f"the limit is for antiferromagnetic J > 0, got {J}")
    return closed_route(J, delta, B, 0.0)[0]


# ---------------------------------------------------------------------------
# parameter sweeps

_AXIS_NAMES = ("T", "J", "delta", "B")

#: Grid points a sweep evaluates as one set of arrays.
SWEEP_BLOCK = 1024

#: Record keys per variant, in output order.
_RECORD_FIELDS = {
    "xx": ("T", "J", "C", "witness", "Z", "T_c"),
    "xxz": ("T", "J", "delta", "C", "witness", "Z", "T_c"),
    "xxzfield": ("T", "J", "delta", "B", "C", "witness", "Z"),
}


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
        if axis.name not in _AXIS_NAMES:
            raise InvalidGrid(f"unknown axis {axis.name!r}")
        if axis.name in seen:
            raise InvalidGrid(f"axis {axis.name!r} repeated")
        seen.add(axis.name)
        if axis.steps < 2:
            raise InvalidGrid(f"axis {axis.name!r} needs steps >= 2, got {axis.steps}")
        if not axis.start < axis.stop:
            raise InvalidGrid(
                f"axis {axis.name!r} range is empty or reversed: "
                f"[{axis.start!r}, {axis.stop!r}]"
            )
        if axis.name != "T" and getattr(config.model, axis.name, None) is None:
            raise InvalidGrid(
                f"axis {axis.name!r} does not apply to variant {config.model.variant!r}"
            )
    if "T" not in seen and config.T is None:
        raise InvalidGrid("T must be fixed when it is not an axis")


def _critical_temperature(model: ModelSpec) -> Optional[float]:
    """Critical temperature scaled by |J|, None when undefined/absent."""
    if model.variant == "xx":
        point = xx_critical()
    elif model.variant == "xxz":
        point = xxz_critical(model.delta)
    else:
        return None
    if point is None:
        return None
    return point.T_c * abs(model.J)


def sweep(config: SweepConfig) -> list[dict]:
    """Evaluate concurrence, witness and partition data over a grid.

    Returns one record per grid point, ordered by grid index (first axis
    outermost).  Each record carries the resolved model parameters plus
    ``C`` (closed form), ``witness`` (the model's region witness), ``Z``
    and, for the field-free variants, the critical temperature ``T_c``
    (``None`` where no critical point exists).

    The model, its closed-form parameters and ``T_c`` depend only on the
    non-temperature coordinates, so they are computed once per distinct
    coordinate.  The grid points then go through
    :func:`~spinthermal.concurrence.closed_route_array` and the array
    witnesses :data:`SWEEP_BLOCK` at a time; the values are those of
    :func:`~spinthermal.concurrence.closed_route` and the region
    functions, bit for bit.
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
    coordinates = []
    for values in itertools.product(*other_grids):
        model = replace(config.model, **dict(zip(other_names, values)))
        coordinates.append((*model.closed_form_params(), _critical_temperature(model)))
    t_inner = names[1:] == ["T"]  # T is the second of two axes
    pairs = (itertools.product(coordinates, temperatures) if t_inner
             else itertools.product(temperatures, coordinates))
    variant = config.model.variant
    fields = _RECORD_FIELDS[variant]
    records: list[dict] = []
    for block in iter(lambda: list(itertools.islice(pairs, SWEEP_BLOCK)), []):
        firsts, seconds = zip(*block)
        coords, temps = (firsts, seconds) if t_inner else (seconds, firsts)
        Js, deltas, Bs, T_cs = zip(*coords)
        T, J, delta, B = (np.array(column) for column in (temps, Js, deltas, Bs))
        with np.errstate(over="ignore", invalid="ignore"):
            C, Z = closed_route_array(J, delta, B, T)
            z = _scaled_powers(J / T, 1.0)
            if variant == "xx":
                witness = xx_witnesses(z)
            elif variant == "xxz":
                witness = xxz_witnesses(delta, z)
            else:
                witness = field_witnesses(delta, z, B / T)
        columns = {"T": temps, "J": Js, "delta": deltas, "B": Bs,
                   "C": [c or 0.0 for c in C.tolist()],  # unentangled points share one 0.0
                   "witness": witness.tolist(), "Z": Z.tolist(), "T_c": T_cs}
        rows = zip(*(columns[name] for name in fields))
        records.extend(map(dict, map(zip, itertools.repeat(fields), rows)))
    return records
