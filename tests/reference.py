"""An exact reference for the closed route of the uniform ring, as a test oracle.

The six level energies are exact fractions of the float inputs
``(J, delta, B)``; the Boltzmann weights, ``Z``, the reduced two-qubit
state, ``C``, the witness and the critical temperature follow from them
in ``decimal`` at 50 significant digits, with an exponent range far
beyond the float one.  At ``T = 0`` the ground group is every level
exactly equal to the lowest, with no tolerance.  Only the standard
library is used, and nothing of ``spinthermal``.  No ``test_`` prefix,
so pytest does not collect this module.
"""

from __future__ import annotations

from decimal import Context, Decimal, localcontext
from fractions import Fraction

CONTEXT = Context(prec=50, Emin=-10**9, Emax=10**9)

#: Degeneracy of each level: |000>, the chiral and the symmetric single
#: excitations, the same doubly excited, |111>.
DEGENERACY = (1, 2, 1, 2, 1, 1)

#: Trace over qubit 3 of each level's projector, in sixths, as
#: ``(<00|r|00>, <11|r|11>, <01|r|01> = <10|r|10>, <01|r|10>)``.  The
#: symmetric single excitation (|001> + |010> + |100>)/sqrt(3) leaves
#: (|00><00| + (|01> + |10>)(<01| + <10|))/3; with its chiral pair it spans
#: the single-excitation sector, which leaves |00><00| + |01><01| + |10><10|;
#: the doubly excited levels are these with 0 and 1 exchanged.
REDUCED_SIXTHS = ((6, 0, 0, 0), (4, 0, 4, -2), (2, 0, 2, 2),
                  (0, 4, 4, -2), (0, 2, 2, 2), (0, 6, 0, 0))


def levels(J: float, delta: float, B: float) -> tuple[Fraction, ...]:
    """The six level energies, exactly."""
    J, delta, B = map(Fraction, (J, delta, B))
    single = -2 * J * (delta + Fraction(1, 2))
    symmetric = -2 * J * (delta - 1)
    return (-3 * B, single - B, symmetric - B, single + B, symmetric + B, 3 * B)


def _decimal(x: Fraction) -> Decimal:
    return Decimal(x.numerator) / Decimal(x.denominator)


def _weights(J: float, delta: float, B: float, T: float) -> tuple[list, Fraction]:
    """Level weights ``exp(-(E - E_min)/T)`` (at ``T = 0``: 1 on the levels equal to
    ``E_min``, else 0) in the 50-digit context, and ``E_min``."""
    energies = levels(J, delta, B)
    emin = min(energies)
    if T == 0.0:
        return [Decimal(int(e == emin)) for e in energies], emin
    return [_decimal((emin - e) / Fraction(T)).exp() for e in energies], emin


def partition_function(J: float, delta: float, B: float, T: float) -> Decimal:
    """``Z = sum(deg exp(-E/T))`` at ``T > 0``."""
    with localcontext(CONTEXT):
        weights, emin = _weights(J, delta, B, T)
        return _decimal(-emin / Fraction(T)).exp() * sum(
            d * p for d, p in zip(DEGENERACY, weights))


def reduced_state(J: float, delta: float, B: float, T: float) -> tuple[Decimal, ...]:
    """``(rho00, rho11, rho_w, rho_y)`` of the two-qubit reduced state at ``T >= 0``."""
    with localcontext(CONTEXT):
        weights, _ = _weights(J, delta, B, T)
        s00, s11, s_w, s_y = (sum(p * c for p, c in zip(weights, column))
                              for column in zip(*REDUCED_SIXTHS))
        trace = s00 + s11 + 2 * s_w
        return s00 / trace, s11 / trace, s_w / trace, s_y / trace


def concurrence(J: float, delta: float, B: float, T: float) -> Decimal:
    """``C = max(2 (|rho_y| - sqrt(rho00 rho11)), 0)`` at ``T >= 0``."""
    rho00, rho11, _, rho_y = reduced_state(J, delta, B, T)
    with localcontext(CONTEXT):
        return max(2 * (abs(rho_y) - (rho00 * rho11).sqrt()), Decimal(0))


def witness(J: float, delta: float, B: float, T: float) -> Decimal:
    """``ln(|rho_y| / sqrt(rho00 rho11))`` at ``T >= 0``: positive exactly where ``C`` is."""
    rho00, rho11, _, rho_y = reduced_state(J, delta, B, T)
    with localcontext(CONTEXT):
        return (abs(rho_y) / (rho00 * rho11).sqrt()).ln()


def critical_temperature(delta: float) -> Decimal:
    """``T_c/|J|`` of the ferromagnetic XXZ ring at ``delta < 1``: the root of
    :func:`witness` at ``J = -1``, ``B = 0``, bisected in ``ln T`` to a relative
    ``1e-30``.  ``T`` halves from ``3/ln 3``, where the witness is negative,
    until the witness is positive."""
    with localcontext(CONTEXT):
        hi = (3 / Decimal(3).ln()).ln()
        lo = hi - Decimal(2).ln()
        while not witness(-1.0, delta, 0.0, lo.exp()) > 0:
            hi, lo = lo, lo - Decimal(2).ln()
        while hi - lo > Decimal("1e-30") * abs(hi):
            mid = (lo + hi) / 2
            if witness(-1.0, delta, 0.0, mid.exp()) > 0:
                lo = mid
            else:
                hi = mid
        return ((lo + hi) / 2).exp()
