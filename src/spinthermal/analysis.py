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
kept for the length of the call; each grid point then costs one closed
route and one witness.  Records are emitted in grid order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Optional

from .concurrence import closed_route
from .errors import InvalidGrid, InvalidTemperature, NoRoot, OutOfDomain
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
    coordinate; each grid point then costs one closed route and one
    witness.
    """
    _validate_sweep(config)
    names = [axis.name for axis in config.axes]
    grids = [axis.values() for axis in config.axes]
    variant = config.model.variant
    per_coordinate: dict[tuple, tuple] = {}
    records = []
    for values in itertools.product(*grids):
        point = dict(zip(names, values))
        T = point.pop("T", config.T)
        if not T > 0.0:
            raise InvalidTemperature(f"sweep temperatures must be > 0, got {T}")
        key = tuple(point.values())
        if key not in per_coordinate:
            model = replace(config.model, **point)
            per_coordinate[key] = (*model.closed_form_params(),
                                   _critical_temperature(model))
        J, delta, B, T_c = per_coordinate[key]
        C, Z, *_ = closed_route(J, delta, B, T)
        z = _scaled_power(J / T, 1.0)
        if variant == "xx":
            witness = xx_region(z).witness
        elif variant == "xxz":
            witness = xxz_region(delta, z).witness
        else:
            witness = field_region(delta, z, B / T).witness
        record: dict = {"T": T, "J": J}
        if variant in ("xxz", "xxzfield"):
            record["delta"] = delta
        if variant == "xxzfield":
            record["B"] = B
        record["C"] = C
        record["witness"] = witness
        record["Z"] = Z
        if variant in ("xx", "xxz"):
            record["T_c"] = T_c
        records.append(record)
    return records
