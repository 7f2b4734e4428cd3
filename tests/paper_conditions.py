"""The paper's analytic entanglement conditions, as a test oracle.

These are the closed-form results of the source paper in the Boltzmann
factor ``z = exp(J/T)``: the XX boundary cubic, the boundary anisotropy
of the XXZ ring, the anisotropy -1/2 field classification in
``p = z**-3`` and the zero-temperature transition values.  The library
decides entanglement from one witness, the closed route's
``ln(|rho_y| / sqrt(rho00 rho11))``; the tests check that it reproduces
each condition here.  No ``test_`` prefix, so pytest does not collect
this module.

Each condition is finite on part of the domain only: ``xx_region`` for
``J/T`` in about [-745, 236]; ``delta_boundary`` for ``J < 0`` and
``z < z0``; ``field_curves_half`` for ``p > 0``.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass

from spinthermal.analysis import Z0, RegionVerdict
from spinthermal.concurrence import closed_route
from spinthermal.errors import InvalidTemperature, OutOfDomain

#: Anisotropy -1/2 classification thresholds in p = z**-3.
P1 = 2.5 + 1.5 * math.sqrt(5.0)
P2 = 7.0


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


def xx_region(z: float) -> RegionVerdict:
    """Entanglement verdict for the XX ring at Boltzmann factor ``z``.

    The witness is ``1 - 3 z**2 - 4 z**3``; it is positive only on the
    ferromagnetic side below the critical factor, and automatically
    negative for every ``z >= 1`` (the antiferromagnetic side is never
    entangled).  Finite for ``J/T`` in about [-745, 236], ``-inf`` just above;
    ``z**3`` raises ``OverflowError`` above 236.6, and ``z = 0`` ``ValueError``.
    """
    if z <= 0.0:
        raise ValueError(f"z must be positive, got {z}")
    witness = 1.0 - 3.0 * z * z - 4.0 * z**3
    return RegionVerdict(entangled=witness > 0.0, witness=witness)


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


def zero_temperature_concurrence(delta: float, B: float) -> float:
    """Zero-temperature concurrence limit of the antiferromagnetic ring at ``J = 1``.

    The concurrence of the equal mixture over the degenerate ground
    group, :func:`~spinthermal.concurrence.closed_route` at ``T = 0``;
    it depends on ``B/J`` alone.  In a field it is 1/3 for
    ``delta > |B| - 1/2`` (the ground doublet), 2/9 on that line (the
    ground triplet) and 0 below it (nondegenerate polarized ground state).
    """
    return closed_route(1.0, delta, B, 0.0)[0]




def xx_critical_temperature() -> decimal.Decimal:
    """``T_c/|J|`` of the XX ring, ``-1 / ln z_c``, to 40 significant digits.

    ``z_c`` is the positive root of ``4z^3 + 3z^2 - 1``, found by Newton's
    method from ``z = 1/2`` in ``decimal`` arithmetic carried to 50 digits.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        z = decimal.Decimal("0.5")
        step = decimal.Decimal(1)
        while abs(step) > decimal.Decimal("1e-45"):
            step = (4 * z**3 + 3 * z**2 - 1) / (12 * z**2 + 6 * z)
            z -= step
        T_c = -1 / z.ln()
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        return +T_c
