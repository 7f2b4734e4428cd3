"""Scale covariance of both routes, and the closed route against the exact reference.

The physics depends on ``(J, B, T)`` only through ``J/T`` and ``B/T`` at
``T > 0``, and through ``B/J`` at ``T = 0``.  Scaling ``J``, ``B`` and ``T``
by ``2**k`` is exact in floats wherever no input or level leaves the
normal range, so there the closed route keeps every bit, the numeric route
its accuracy, and both routes the exact ``T = 0`` values of
:mod:`reference`.
"""

import math
import sys
from decimal import Decimal

import numpy as np
import pytest

import reference
from spinthermal import ModelSpec, concurrence_general, gibbs_density, partial_trace
from spinthermal.concurrence import closed_route
from spinthermal.spinmodel import level_energies

EPS = sys.float_info.epsilon


def _in_range(x: float) -> bool:
    return x == 0.0 or sys.float_info.min <= abs(x) <= sys.float_info.max


def scaled(J: float, delta: float, B: float, T: float, k: int):
    """``(2**k J, 2**k B, 2**k T)``, or None unless they and the levels at them are
    exactly ``2**k`` times the unscaled ones, each normal or 0."""
    levels = level_energies(J, delta, B)
    try:
        out = tuple(math.ldexp(x, k) for x in (J, B, T))
        want = [math.ldexp(e, k) for e in levels]
    except OverflowError:
        return None
    got = level_energies(out[0], delta, out[1])
    values = (J, B, T, *levels, *out, *got)
    return out if list(got) == want and all(map(_in_range, values)) else None


def wide_points(seed: int, count: int):
    """``(J, delta, B, T)`` with ``T`` in [1e-2, 10] and ``|J|/T``, ``|B|/T`` in [1e-2, 1e3]."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        T = 10.0 ** rng.uniform(-2.0, 1.0)
        J, B = rng.choice((-1.0, 1.0), 2) * 10.0 ** rng.uniform(-2.0, 3.0, 2) * T
        yield float(J), float(rng.uniform(-3.0, 2.0)), float(B), float(T)


def pipeline(model: ModelSpec, T: float) -> float:
    return concurrence_general(partial_trace(gibbs_density(model, T))).C


def test_closed_route_keeps_every_bit_under_power_of_two_scaling():
    rng = np.random.default_rng(41)
    tested = 0
    for J, delta, B, T in wide_points(40, 400):
        want = [x.hex() for x in closed_route(J, delta, B, T)]
        for k in (-1000, int(rng.integers(-1000, 1001)), 1000):
            point = scaled(J, delta, B, T, k)
            if point is not None:
                sJ, sB, sT = point
                got = [x.hex() for x in closed_route(sJ, delta, sB, sT)]
                assert got == want, (J, delta, B, T, k)
                tested += 1
    assert tested >= 0.95 * 1200


def _model(variant: str, J: float, delta: float, B: float) -> ModelSpec:
    return {"xx": lambda: ModelSpec.xx(J), "xxz": lambda: ModelSpec.xxz(J, delta),
            "xxzfield": lambda: ModelSpec.xxz_field(J, delta, B),
            "xyz": lambda: ModelSpec.general_xyz(J, -0.5 * J * delta, 0.25 * B,
                                                 0.5 * B, -B, 0.3 * J)}[variant]()


def test_numeric_route_is_scale_free():
    rng = np.random.default_rng(43)
    tested = 0
    for i, (J, delta, B, T) in enumerate(wide_points(42, 120)):
        variant = ("xx", "xxz", "xxzfield", "xyz")[i % 4]
        want = pipeline(_model(variant, J, delta, B), T)
        for k in (-1000, int(rng.integers(-1000, 1001)), 1000):
            point = scaled(J, delta, B, T, k)
            if point is not None:
                sJ, sB, sT = point
                got = pipeline(_model(variant, sJ, delta, sB), sT)
                assert abs(got - want) <= 1e-12, (variant, J, delta, B, T, k)
                tested += 1
    assert tested >= 0.95 * 360


def zero_temperature_points():
    """The two points that read 0 at ``|J| = 1e-9``, and seeded dyadic points, a third of
    them on a level crossing (``|B| = J (delta + 1/2)`` for ``J > 0``, ``|J| (1 - delta)``
    for ``J < 0``), where the exact ground group has more than one level."""
    yield 1e-9, 1.0, 5e-10
    yield -1e-9, -0.5, 5e-10
    rng = np.random.default_rng(44)
    for i in range(60):
        J = float(rng.choice((-1.0, 1.0)) * rng.integers(1, 17) / 8.0)
        delta = float(rng.integers(-24, 17) / 8.0)
        B = float(rng.integers(0, 25) / 8.0)
        if i % 3 == 0:
            B = abs(J * (delta + 0.5)) if J > 0.0 else abs(J) * (1.0 - delta)
        yield J, delta, B


@pytest.mark.parametrize("k", (-1000, -600, -30, 0, 30, 600, 1000))
def test_both_routes_give_the_exact_zero_temperature_values_at_any_scale(k):
    points = list(zero_temperature_points())
    tested = 0
    for J, delta, B in points:
        point = scaled(J, delta, B, 0.0, k)  # None only for 1e-9 at k = +-1000
        if point is not None:
            sJ, sB, _ = point
            want = float(reference.concurrence(J, delta, B, 0.0))
            closed = closed_route(sJ, delta, sB, 0.0)[0]
            assert abs(closed - want) <= 2.0 * EPS * want, (J, delta, B, k)
            assert abs(pipeline(ModelSpec.xxz_field(sJ, delta, sB), 0.0) - want) <= 1e-12
            tested += 1
    assert tested >= len(points) - (2 if abs(k) == 1000 else 0)
    assert float(reference.concurrence(1e-9, 1.0, 5e-10, 0.0)) == 1.0 / 3.0
    assert float(reference.concurrence(-1e-9, -0.5, 5e-10, 0.0)) == 2.0 / 3.0


def test_zero_temperature_reference_values_are_the_exact_mixtures():
    # AF: 1/3 for |B| < J (delta + 1/2), 2/9 on that line, 0 beyond; FM (delta = 0):
    # 2/3 for |B| < |J|, 1/3 on that line, 0 beyond
    for args, want in (((1.0, 1.0, 1.0), 1 / 3), ((1.0, 0.5, 1.0), 2 / 9),
                       ((1.0, 0.0, 1.0), 0.0), ((-1.0, 0.0, 0.5), 2 / 3),
                       ((-1.0, 0.0, 1.0), 1 / 3), ((-1.0, 0.0, 2.0), 0.0)):
        assert float(reference.concurrence(*args, 0.0)) == want


def test_closed_route_partition_function_matches_the_reference():
    # the closed Z = exp(-E_min/T) sum(p deg) carries the rounding of each E/T
    worst = 0.0
    for J, delta, B, T in wide_points(45, 600):
        Z = closed_route(J, delta, B, T)[1]
        if math.isfinite(Z):
            want = reference.partition_function(J, delta, B, T)
            bound = 1.0 + max(map(abs, level_energies(J, delta, B))) / T
            worst = max(worst, float(abs((Decimal(Z) - want) / want)) / bound)
    assert worst <= 4.0 * EPS
