import decimal
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinthermal.analysis as analysis_module
import spinthermal.concurrence as concurrence_module
from spinthermal.analysis import sweep_blocks
from spinthermal.errors import ValidationError
from spinthermal.concurrence import closed_form_xstate, closed_route
from spinthermal import (
    InvalidGrid,
    ModelSpec,
    NaNResult,
    OutOfDomain,
    SweepAxis,
    SweepConfig,
    Z0,
    concurrence_closed_form,
    concurrence_general,
    field_region,
    gibbs_density,
    partial_trace,
    sweep,
    xx_critical,
    xxx_field_threshold,
    xxz_critical,
    xxz_region,
)
from paper_conditions import (P1, P2, delta_boundary, field_curves_half, xx_critical_temperature,
                              xx_region, zero_temperature_concurrence)
from reference import critical_temperature


# ---------------------------------------------------------------------------
# XX region and critical point

def test_xx_region_verdicts():
    assert xx_region(0.2).entangled
    assert abs(xx_region(0.4554).witness) <= 1e-3  # boundary
    assert not xx_region(1.5).entangled
    assert not xx_region(1.0).entangled


def test_xx_region_rejects_nonpositive():
    with pytest.raises(ValueError):
        xx_region(0.0)


def test_xx_critical_constants():
    point = xx_critical()
    assert abs(point.z_c - 0.4554) <= 1e-4
    assert abs(point.x_c + 0.7866) <= 1e-3
    assert abs(point.T_c - 1.2713) <= 1e-4
    assert abs(point.z_c - math.exp(point.x_c)) < 1e-12
    # independent root: companion-matrix roots of the boundary cubic
    roots = np.roots([4.0, 3.0, 0.0, -1.0])
    positive = [r.real for r in roots if abs(r.imag) < 1e-10 and r.real > 0]
    assert abs(point.z_c - positive[0]) < 1e-9


#: Anisotropies of the critical-temperature tests: the paper's points, the
#: far negative side (below the anisotropy floor of ``xxz_critical``, with
#: exact levels in the closed route) and the approach to 1, plus a seeded
#: sample of the benchmark's 200-step delta grid.
CRITICAL_DELTAS = (-1e15, -50.0, -3.0, -0.5, 0.0, 0.5, 0.99, 0.999, 1.0 - 1e-9, 1.0 - 1e-15,
                   *np.random.default_rng(26).choice(
                       SweepAxis("delta", -3.0, 0.99, 200).values(), 5, replace=False).tolist())
#: Beyond ``|delta| = 2**52`` the closed route's levels round (ROADMAP item 1):
#: ``xxz_critical`` still finds the reference T_c, but the route's witness is
#: negative at every T.
ROUNDED_LEVELS = -1e16

#: The paper's closed forms of T_c/|J|: the XX cubic's root and 3/ln 7.
PAPER_CRITICAL = {0.0: xx_critical_temperature(), -0.5: 3 / decimal.Decimal(7).ln()}


@pytest.mark.parametrize("delta", (ROUNDED_LEVELS, *CRITICAL_DELTAS))
def test_xxz_critical_temperature_matches_the_reference(delta):
    # within 64 ulps of the root of the 50-digit witness; that root is the
    # paper's closed form where one is known
    reference = critical_temperature(delta)
    if delta in PAPER_CRITICAL:
        assert abs(reference - PAPER_CRITICAL[delta]) < decimal.Decimal("1e-25") * reference
    ulps = abs(decimal.Decimal(xxz_critical(delta).T_c) - reference) / decimal.Decimal(
        math.ulp(float(reference)))
    assert ulps <= 64


@pytest.mark.parametrize("delta", (
    pytest.param(ROUNDED_LEVELS, marks=pytest.mark.xfail(strict=True, reason="level rounding")),
    *CRITICAL_DELTAS))
def test_xxz_critical_is_the_sign_change_of_the_route_witness(delta):
    T_c = xxz_critical(delta).T_c
    assert closed_route(-1.0, delta, 0.0, T_c * (1.0 - 1e-12))[2] > 0.0
    assert closed_route(-1.0, delta, 0.0, T_c * (1.0 + 1e-12))[2] < 0.0


def test_xx_sweep_critical_temperatures_are_those_of_xxz_at_zero_anisotropy():
    axes = (SweepAxis("J", -3.0, 0.5, 41), SweepAxis("T", 0.05, 2.0, 3))
    xx = sweep(SweepConfig(model=ModelSpec.xx(-1.0), axes=axes))
    xxz = sweep(SweepConfig(model=ModelSpec.xxz(-1.0, 0.0), axes=axes))
    assert [r["T_c"] for r in xx] == [r["T_c"] for r in xxz]
    assert sum(r["T_c"] is not None for r in xx) == 3 * 35  # every J < 0


# ---------------------------------------------------------------------------
# XXZ region, critical temperatures, boundary anisotropy

def test_xxz_region_boundary_at_half():
    verdict = xxz_region(-0.5, 7.0 ** (-1.0 / 3.0))
    assert abs(verdict.witness) <= 1e-10


def test_xxz_region_no_entanglement_above_one():
    rng = np.random.default_rng(51)
    for _ in range(100):
        delta = rng.uniform(1.0, 4.0)
        z = rng.uniform(0.01, 0.99)
        assert not xxz_region(delta, z).entangled
    # antiferromagnetic side: never entangled at any anisotropy
    for _ in range(100):
        assert not xxz_region(rng.uniform(-5, 5), rng.uniform(1.0, 10.0)).entangled


def test_xxz_region_agrees_with_xx_at_zero_anisotropy():
    for z in np.linspace(0.05, 2.5, 40):
        assert xxz_region(0.0, z).entangled == xx_region(z).entangled


def test_xxz_witness_monotone_in_anisotropy():
    deltas = np.linspace(-4.0, 0.9, 25)
    for z in (0.7, 0.9):  # above the stationary factor: increasing
        values = [xxz_region(d, z).witness for d in deltas]
        assert all(b > a for a, b in zip(values, values[1:]))
    for z in (0.2, 0.5):  # below: decreasing
        values = [xxz_region(d, z).witness for d in deltas]
        assert all(b < a for a, b in zip(values, values[1:]))


def test_xxz_witness_stationary_at_z0():
    # the witness is flat in the anisotropy exactly at z0
    h = 1e-5
    for delta in (-2.0, 0.0, 0.7):
        slope = (xxz_region(delta + h, Z0).witness
                 - xxz_region(delta - h, Z0).witness) / (2 * h)
        assert abs(slope) < 1e-6
        assert abs(xxz_region(delta, Z0).witness + 1.5) < 1e-10


def test_xxz_critical_known_points():
    half = xxz_critical(-0.5)
    assert abs(half.z_c - 7.0 ** (-1.0 / 3.0)) < 1e-9
    assert abs(half.T_c - 3.0 / math.log(7.0)) < 1e-6
    assert abs(half.T_c - 1.5417) < 1e-3

    plus_half = xxz_critical(0.5)
    assert abs(plus_half.z_c - 0.298) < 1e-3
    assert abs(4 * plus_half.z_c**3 + 3 * plus_half.z_c - 1.0) < 1e-9

    asym = xxz_critical(-50.0)
    assert abs(asym.T_c - 3.0 / math.log(4.0)) < 1e-2
    assert abs(asym.T_c - 2.164) < 1e-2


def test_xxz_critical_none_above_one():
    assert xxz_critical(1.0) is None
    assert xxz_critical(2.5) is None


def test_xxz_critical_rejects_a_nan_anisotropy():
    with pytest.raises(OutOfDomain):
        xxz_critical(math.nan)


@pytest.mark.parametrize("delta", (0.99, 0.999, 1.0 - 1e-15))
def test_xxz_critical_near_one_separates_entangled_from_not(delta):
    # the root lies far below the old z bracket (z_c ~ 3**(-1/(2 (1 - delta))))
    point = xxz_critical(delta)
    model = ModelSpec.xxz(-1.0, delta)

    def numeric_c(T):
        return concurrence_general(partial_trace(gibbs_density(model, T))).C

    assert numeric_c(0.999 * point.T_c) > 0.0
    assert numeric_c(1.001 * point.T_c) == 0.0
    assert abs(point.x_c - math.log(3.0) / (2.0 * (delta - 1.0))) < 1e-14 * abs(point.x_c)


def test_xxz_critical_tends_to_zero_at_one():
    values = [xxz_critical(delta).T_c for delta in (0.9, 0.99, 0.999999, 1.0 - 1e-15)]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert 0.0 < values[-1] < 1e-14


def test_delta_boundary_zeroes_the_witness():
    for z in (0.1, 0.3, 0.5):
        value = delta_boundary(z, math.log(z), 1.0)
        assert value < 1.0
        assert abs(xxz_region(value, z).witness) <= 1e-9


def test_delta_boundary_limits():
    # toward z -> 0 the boundary approaches 1 from below
    values = [delta_boundary(z, math.log(z), 1.0) for z in (1e-3, 1e-6, 1e-9)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert abs(values[-1] - 1.0) < 0.03
    # toward z -> z0 it diverges, logarithmically slowly: about -21 at
    # a distance of 1e-9 and sinking further as the distance shrinks
    near = delta_boundary(Z0 - 1e-9, math.log(Z0 - 1e-9), 1.0)
    nearer = delta_boundary(Z0 - 1e-12, math.log(Z0 - 1e-12), 1.0)
    assert near < -20.0
    assert nearer < near


def test_delta_boundary_domain_errors():
    with pytest.raises(OutOfDomain):
        delta_boundary(Z0 + 0.01, math.log(Z0 + 0.01) - 1.0, 1.0)
    with pytest.raises(OutOfDomain):
        delta_boundary(0.5, 1.0, 1.0)  # J > 0


def test_delta_boundary_consistent_with_xx_boundary():
    # where the boundary anisotropy crosses zero, the factor solves the
    # XX boundary cubic
    lo, hi = 0.2, Z0 - 1e-6
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if delta_boundary(mid, math.log(mid), 1.0) > 0.0:
            lo = mid
        else:
            hi = mid
    assert abs(math.log(lo) + 0.7866) <= 1e-3


def test_delta_boundary_at_tiny_z():
    # z**-2 overflows at z = 1e-200; the boundary is finite, just below 1
    value = delta_boundary(1e-200, math.log(1e-200), 1.0)
    assert math.isfinite(value)
    assert 0.99 < value < 1.0


@pytest.mark.parametrize("z", (1e-9, 1e-3, 0.01, 0.1, 0.3, 0.5, 0.6))
def test_delta_boundary_matches_the_ratio_form(z):
    for T in (0.5, 1.0, 3.0):
        J = T * math.log(z)
        ratio_form = math.log(3.0 / (z**-2 - 4.0 * z)) / (2.0 * (J / T))
        assert abs(delta_boundary(z, J, T) - ratio_form) <= 1e-15 * abs(ratio_form)


# ---------------------------------------------------------------------------
# field effects

def test_field_region_isotropic_below_threshold():
    for beta_B in (0.0, 1.0, 5.0, 50.0):
        assert not field_region(1.0, 1.5, beta_B).entangled


def test_field_region_isotropic_above_threshold():
    z = 2.5
    ratio = (z**3 + 2.0) ** 2 / (z**6 - 8.0 * z**3 - 2.0)
    assert math.cosh(2.0 * 3.0) > ratio  # the field is strong enough
    assert field_region(1.0, z, 3.0).entangled
    # and a weak field is not
    assert math.cosh(2.0 * 0.1) < ratio
    assert not field_region(1.0, z, 0.1).entangled


def test_field_region_reduces_to_xxz_at_zero_field():
    rng = np.random.default_rng(61)
    for _ in range(200):
        delta = rng.uniform(-3, 2)
        z = rng.uniform(0.05, 2.0)
        assert field_region(delta, z, 0.0).entangled == xxz_region(delta, z).entangled


def test_field_witness_matches_xstate_quantities():
    # h cosh(2 beta B) - g must equal y^2 - u v computed from the params
    rng = np.random.default_rng(67)
    for _ in range(50):
        J = rng.uniform(-2, 2)
        delta = rng.uniform(-2, 2)
        B = rng.uniform(-3, 3)
        T = rng.uniform(0.2, 5.0)
        params = closed_form_xstate(J, delta, B, T)
        direct = params.y**2 - params.u * params.v
        witness = field_region(delta, math.exp(J / T), B / T).witness
        assert math.isclose(direct, witness, rel_tol=1e-9, abs_tol=1e-9)


@pytest.mark.parametrize("T", (0.02, 0.06))
def test_field_region_xxx_ring_is_unentangled_at_zero_field(T):
    # the curves h and g are both of order z**6 / 2 here, and their
    # difference -6 z**3 - 3 sits far below their rounding error
    z = math.exp(1.0 / T)
    verdict = field_region(1.0, z, 0.0)
    assert not verdict.entangled
    assert math.isclose(verdict.witness, -6.0 * z**3 - 3.0, rel_tol=1e-12)


@pytest.mark.parametrize("p", (1.0, 4.0, 6.0, 7.0, 9.0, 30.0))
def test_field_region_at_zero_field_is_h_minus_g(p):
    # at B = 0 the witness is h - g, the curve field_curves_half calls hmg
    witness = field_region(-0.5, p ** (-1.0 / 3.0), 0.0).witness
    assert math.isclose(witness, field_curves_half(p).hmg, rel_tol=1e-12, abs_tol=1e-12)


def test_xxx_field_threshold_value():
    root = xxx_field_threshold()
    assert abs(root - 2.02) <= 1e-2
    assert abs(root**6 - 8.0 * root**3 - 2.0) <= 1e-9
    assert abs(root**3 - (4.0 + 3.0 * math.sqrt(2.0))) <= 1e-9


def test_field_curves_half_cases():
    assert field_curves_half(2.0).case == 1
    assert field_curves_half(2.0).h < 0
    six = field_curves_half(6.0)
    assert six.case == 2 and six.h > 0 and six.hmg < 0
    assert field_curves_half(8.0).case == 3


def test_field_curves_half_boundaries():
    assert field_curves_half(P1 - 1e-9).case == 1
    assert field_curves_half(P1 + 1e-9).case == 2
    assert field_curves_half(P2).case == 2
    assert field_curves_half(P2 + 1e-12).case == 3
    # p2 is the zero-field critical factor cubed and inverted
    assert abs(P2 - xxz_critical(-0.5).z_c ** -3) < 1e-8


def test_field_curves_half_match_general_curves():
    for p in (1.0, 4.0, 6.0, 7.0, 9.0):
        z = p ** (-1.0 / 3.0)
        curves = field_curves_half(p)
        verdict = field_region(-0.5, z, 0.7)
        expected = curves.h * math.cosh(1.4) - curves.g
        assert math.isclose(verdict.witness, expected, rel_tol=1e-9, abs_tol=1e-9)


# ---------------------------------------------------------------------------
# zero temperature

def test_zero_temperature_concurrence_branches():
    assert zero_temperature_concurrence(1.0, 1.0) == 1.0 / 3.0
    assert zero_temperature_concurrence(0.5, 1.0) == 2.0 / 9.0
    assert zero_temperature_concurrence(0.0, 1.0) == 0.0
    # even in the field
    assert zero_temperature_concurrence(1.0, -1.0) == 1.0 / 3.0


def test_zero_temperature_concurrence_equality_tolerance():
    assert zero_temperature_concurrence(0.5 + 1e-10, 1.0) == 2.0 / 9.0
    assert zero_temperature_concurrence(0.5 + 1e-6, 1.0) == 1.0 / 3.0


def test_zero_temperature_concurrence_without_field():
    # both sectors' doublets are degenerate at B = 0, and their mixture
    # is separable
    from spinthermal import concurrence_general, gibbs_density, partial_trace

    for delta in (1.0, 0.0, -0.5, -1.0):
        direct = concurrence_general(
            partial_trace(gibbs_density(ModelSpec.xxz_field(1.0, delta, 0.0), 0.0))
        ).C
        assert zero_temperature_concurrence(delta, 0.0) == 0.0
        assert abs(direct) < 1e-12


def test_zero_temperature_concurrence_matches_ground_mixture():
    # independent route: concurrence of the equal-weight ground mixture
    from spinthermal import concurrence_general, gibbs_density, partial_trace

    rng = np.random.default_rng(77)
    for _ in range(30):
        delta = float(rng.uniform(-2.0, 2.0))
        B = float(rng.uniform(0.1, 3.0))
        if abs(delta - (B - 0.5)) < 1e-6:
            continue  # the measure-zero branch needs the exact point
        model = ModelSpec.xxz_field(1.0, delta, B)
        direct = concurrence_general(
            partial_trace(gibbs_density(model, 0.0))
        ).C
        assert abs(direct - zero_temperature_concurrence(delta, B)) < 1e-9
    # the equality branch, sampled exactly
    model = ModelSpec.xxz_field(1.0, 0.5, 1.0)
    direct = concurrence_general(partial_trace(gibbs_density(model, 0.0))).C
    assert abs(direct - 2.0 / 9.0) < 1e-12


# ---------------------------------------------------------------------------
# region predicates against the concurrence

def test_predicates_agree_with_concurrence_sign():
    rng = np.random.default_rng(71)
    checked = 0
    for _ in range(10_000):
        J = rng.uniform(-2, 2)
        T = rng.uniform(0.05, 5.0)
        kind = rng.integers(0, 3)
        if kind == 0:
            model = ModelSpec.xx(J)
            verdict = xx_region(math.exp(J / T))
        elif kind == 1:
            model = ModelSpec.xxz(J, rng.uniform(-3, 2))
            verdict = xxz_region(model.delta, math.exp(J / T))
        else:
            model = ModelSpec.xxz_field(J, rng.uniform(-3, 2), rng.uniform(-3, 3))
            verdict = field_region(model.delta, math.exp(J / T), model.B / T)
        if abs(verdict.witness) <= 1e-10:
            continue  # dead band at the boundary
        assert verdict.entangled == (concurrence_closed_form(model, T) > 0.0)
        checked += 1
    assert checked > 9000


# ---------------------------------------------------------------------------
# the sweep's witness against the scalar functions

def region_witness(variant, J, delta, B, T):
    """The scalar region function's witness at the saturated ``z = exp(J/T)``."""
    z = analysis_module._scaled_power(J / T, 1.0)
    if variant == "xx":
        return xx_region(z).witness
    if variant == "xxz":
        return xxz_region(delta, z).witness
    return field_region(delta, z, B / T).witness


def assert_array_forms_match(variant, points):
    """``closed_route``'s witness has the sign of the scalar region witness
    wherever that is finite and the witness is clear of zero; returns how
    many signs it compared."""
    signed = 0
    for point in points:
        w = closed_route(*point)[2]
        try:
            scalar = region_witness(variant, *point)
        except (OverflowError, ValueError):
            continue
        if math.isfinite(scalar) and abs(w) > 1e-9:
            assert (scalar > 0.0) == (w > 0.0), (point, scalar, w)
            signed += 1
    return signed


def ratio_point(variant, T, j_ratio, delta, b_ratio):
    return (j_ratio * T, delta if variant != "xx" else 0.0,
            b_ratio * T if variant == "xxzfield" else 0.0, T)


def signed_ratios(rng, n):
    return rng.choice((-1.0, 1.0), n) * 10.0 ** rng.uniform(-3.0, 3.0, n)


@pytest.mark.parametrize("variant", ("xx", "xxz", "xxzfield"))
def test_array_forms_match_the_scalar_functions_on_a_seeded_set(variant):
    rng = np.random.default_rng(20261018)
    n = 2000
    T = 10.0 ** rng.uniform(-2.0, 1.0, n)
    j_ratio = signed_ratios(rng, n)
    b_ratio = np.where(rng.random(n) < 0.2, 0.0, signed_ratios(rng, n))
    delta = np.where(rng.random(n) < 0.1, 1.0, rng.uniform(-50.0, 50.0, n))
    points = [ratio_point(variant, *values)
              for values in zip(T.tolist(), j_ratio.tolist(), delta.tolist(), b_ratio.tolist())]
    assert assert_array_forms_match(variant, points) > n // 2


_RATIO = st.tuples(st.sampled_from((-1.0, 1.0)), st.floats(-3.0, 3.0)).map(
    lambda se: se[0] * 10.0 ** se[1])  # signed, |ratio| in [1e-3, 1e3]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(variant=st.sampled_from(("xx", "xxz", "xxzfield")),
       points=st.lists(st.tuples(st.floats(-2.0, 1.0).map(lambda e: 10.0**e), _RATIO,
                                 st.floats(-50.0, 50.0), _RATIO), min_size=1, max_size=8))
def test_array_forms_match_the_scalar_functions(variant, points):
    assert_array_forms_match(variant, [ratio_point(variant, *p) for p in points])


# ---------------------------------------------------------------------------
# sweeps

def fig6_config(B=2.0, steps=200):
    return SweepConfig(
        model=ModelSpec.xxz_field(1.0, 1.0, B),
        axes=(SweepAxis("T", 0.02, 4.0, steps),),
    )


def test_sweep_validation():
    model = ModelSpec.xx(-1.0)
    with pytest.raises(InvalidGrid):
        sweep(SweepConfig(model=model, axes=(), T=1.0))
    with pytest.raises(InvalidGrid):
        sweep(SweepConfig(model=model, axes=(SweepAxis("T", 1.0, 0.5, 10),)))
    with pytest.raises(InvalidGrid):
        sweep(SweepConfig(model=model, axes=(SweepAxis("T", 0.5, 1.0, 1),)))
    with pytest.raises(InvalidGrid):
        sweep(SweepConfig(model=model, axes=(SweepAxis("B", 0.0, 1.0, 5),), T=1.0))
    with pytest.raises(InvalidGrid):
        sweep(SweepConfig(model=model, axes=(SweepAxis("J", 0.0, 1.0, 5),)))  # no T
    with pytest.raises(InvalidGrid):
        sweep(SweepConfig(model=model, axes=(SweepAxis("J", -math.inf, 1.0, 5),), T=1.0))
    with pytest.raises(InvalidGrid):
        sweep(SweepConfig(model=model, axes=(SweepAxis("T", 0.5, math.inf, 5),)))


def test_sweep_rejects_an_axis_outside_the_variant_even_where_the_field_is_set():
    # the xx spec carries a stray delta; sweeping it printed XXZ concurrences under xx's columns
    model = ModelSpec("xx", J=-1.0, delta=2.0)
    with pytest.raises(InvalidGrid, match="does not apply to variant 'xx'"):
        sweep(SweepConfig(model, (SweepAxis("delta", -1.0, 0.5, 4),), T=1.0))
    records = sweep(SweepConfig(model, (SweepAxis("T", 0.5, 1.0, 3),)))
    assert records == sweep(SweepConfig(ModelSpec.xx(-1.0), (SweepAxis("T", 0.5, 1.0, 3),)))


@pytest.mark.parametrize("model, fields", (
    (ModelSpec.xx(-1.0), ("T", "J", "C", "witness", "Z", "T_c")),
    (ModelSpec.xxz(-1.0, 0.5), ("T", "J", "delta", "C", "witness", "Z", "T_c")),
    (ModelSpec.xxz_field(1.0, 1.0, 2.0), ("T", "J", "delta", "B", "C", "witness", "Z")),
))
def test_sweep_record_fields_of_each_variant(model, fields):
    names, _ = sweep_blocks(SweepConfig(model, (SweepAxis("T", 0.5, 1.0, 2),)))
    assert names == fields


def test_sweep_grid_ordering_and_fields():
    config = SweepConfig(
        model=ModelSpec.xxz(-1.0, 0.0),
        axes=(SweepAxis("delta", -1.0, 1.0, 3), SweepAxis("J", -2.0, -1.0, 2)),
        T=1.0,
    )
    records = sweep(config)
    assert [(r["delta"], r["J"]) for r in records] == [
        (-1.0, -2.0), (-1.0, -1.0), (0.0, -2.0), (0.0, -1.0), (1.0, -2.0), (1.0, -1.0),
    ]
    for record in records:
        assert set(record) == {"T", "J", "delta", "C", "witness", "Z", "T_c"}


def test_sweep_records_are_deterministic():
    a = sweep(fig6_config(steps=50))
    b = sweep(fig6_config(steps=50))
    assert a == b


def test_sweep_critical_temperature_column():
    # anisotropy sweep of the ferromagnetic ring: critical temperature
    # decreases as the anisotropy grows, toward the known asymptote on
    # the far negative side; past 1 there is none at all
    config = SweepConfig(
        model=ModelSpec.xxz(-1.0, 0.0),
        axes=(SweepAxis("delta", -10.0, 1.0, 45),),
        T=1.0,
    )
    records = sweep(config)
    values = [r["T_c"] for r in records]
    present = [v for v in values if v is not None]
    assert all(b < a for a, b in zip(present, present[1:]))
    assert abs(values[0] - 3.0 / math.log(4.0)) < 1e-2
    assert values[-1] is None  # delta = 1


@pytest.mark.parametrize("model,axes", [
    (ModelSpec.xx(1.0), (SweepAxis("J", -1.0, 1.0, 9),)),
    (ModelSpec.xxz(1.0, 0.0), (SweepAxis("J", -1.0, 1.0, 9), SweepAxis("delta", -2.0, 0.5, 3))),
])
def test_sweep_has_no_critical_temperature_where_J_is_not_negative(model, axes):
    # the antiferromagnetic ring is never entangled; every delta here is below 1
    records = sweep(SweepConfig(model=model, axes=axes, T=0.5))
    assert [r["T_c"] is None for r in records] == [r["J"] >= 0.0 for r in records]
    assert all(r["C"] == 0.0 for r in records if r["J"] >= 0.0)


def test_sweep_field_concurrence_shape():
    records = sweep(fig6_config(B=2.0))
    values = [r["C"] for r in records]
    peak = values.index(max(values))
    assert values[0] < 1e-3
    assert 0 < peak < len(values) - 1
    assert values[peak] > values[0] and values[peak] > values[-1]


def test_sweep_field_plane_symmetries():
    # B-J plane of the isotropic model: ferromagnetic half is dark, and
    # the concurrence is even in the field
    config = SweepConfig(
        model=ModelSpec.xxz_field(1.0, 1.0, 0.0),
        axes=(SweepAxis("B", -3.0, 3.0, 13), SweepAxis("J", -2.0, 2.0, 9)),
        T=1.0,
    )
    records = sweep(config)
    grid = {(r["B"], r["J"]): r["C"] for r in records}
    for (B, J), c in grid.items():
        if J < 0:
            assert c == 0.0
        assert abs(c - grid[(-B, J)]) <= 1e-10


def per_point_sweep(config):
    """Reference for :func:`sweep`: every grid point on its own, model and
    ``T_c`` included, in nested-loop order (first axis outermost)."""
    first, second = config.axes
    records = []
    for a in first.values():
        for b in second.values():
            point = {first.name: a, second.name: b}
            T = point.pop("T", config.T)
            model = replace(config.model, **point)
            J, delta, B = model.closed_form_params()
            C, Z, witness, *_ = closed_route(J, delta, B, T)
            record = {"T": T, "J": J}
            if model.variant == "xxz":
                record["delta"] = delta
            elif model.variant == "xxzfield":
                record.update(delta=delta, B=B)
            record.update(C=C, witness=witness, Z=Z)
            if model.variant != "xxzfield":
                critical = xxz_critical(delta) if J < 0.0 else None
                record["T_c"] = None if critical is None else critical.T_c * abs(J)
            records.append(record)
    return records


def bits(records):
    """Records as key order plus ``float.hex`` values: ``-0.0`` differs from ``0.0``."""
    return [[(key, value.hex() if isinstance(value, float) else value)
             for key, value in record.items()] for record in records]


HOIST_CASES = {
    "T outer": (ModelSpec.xxz(-1.0, 0.0),
                (SweepAxis("T", 0.05, 2.0, 7), SweepAxis("delta", -3.0, 0.99, 5)), None),
    "T inner": (ModelSpec.xxz(-1.0, 0.0),
                (SweepAxis("delta", -3.0, 0.99, 5), SweepAxis("T", 0.05, 2.0, 7)), None),
    "J and delta": (ModelSpec.xxz(-1.0, 0.0),
                    (SweepAxis("J", -2.0, 1.0, 4), SweepAxis("delta", -1.0, 0.9, 3)), 0.5),
    "int axis ends": (ModelSpec.xxz(-1.0, 0.0),
                      (SweepAxis("J", -2, 1, 4), SweepAxis("delta", -1, 1, 3)), 0.5),
    "field T outer": (ModelSpec.xxz_field(1.0, 1.0, 0.0),
                      (SweepAxis("T", 0.05, 2.0, 6), SweepAxis("B", 0.0, 3.0, 4)), None),
    "xx T and J": (ModelSpec.xx(1.0),
                   (SweepAxis("T", 0.05, 2.0, 9), SweepAxis("J", -2.0, 2.0, 9)), None),
    "field negative J": (ModelSpec.xxz_field(-1.0, 0.5, 0.0),
                         (SweepAxis("T", 0.05, 2.0, 8), SweepAxis("B", -3.0, 3.0, 13)), None),
    "field B and delta": (ModelSpec.xxz_field(1.0, 1.0, 0.0),
                          (SweepAxis("B", -3.0, 3.0, 13), SweepAxis("delta", -2.0, 2.0, 9)),
                          0.5),
    # level weights underflow: the witness comes from the level logs
    "field low T outer": (ModelSpec.xxz_field(1.0, 1.0, 0.0),
                          (SweepAxis("T", 1e-3, 0.5, 6), SweepAxis("B", 0.0, 3.0, 7)), None),
    "field low T inner": (ModelSpec.xxz_field(1.0, 1.0, 0.0),
                          (SweepAxis("B", 0.0, 3.0, 7), SweepAxis("T", 1e-3, 0.5, 6)), None),
    # J = 0 is a grid point: the witness is -inf there
    "J through 0 T outer": (ModelSpec.xxz(-1.0, 0.5),
                            (SweepAxis("T", 0.05, 2.0, 5), SweepAxis("J", -1.0, 1.0, 5)), None),
    "J through 0 T inner": (ModelSpec.xxz(-1.0, 0.5),
                            (SweepAxis("J", -1.0, 1.0, 5), SweepAxis("T", 0.05, 2.0, 5)), None),
}


@pytest.mark.parametrize("case", sorted(HOIST_CASES))
def test_sweep_matches_per_point_reference(case, monkeypatch):
    model, axes, T = HOIST_CASES[case]
    config = SweepConfig(model=model, axes=axes, T=T)
    expected = per_point_sweep(config)
    calls = []
    inner = analysis_module.xxz_critical

    def counting(delta):
        calls.append(delta)
        return inner(delta)

    monkeypatch.setattr(analysis_module, "xxz_critical", counting)
    records = sweep(config)
    assert bits(records) == bits(expected)
    # one xxz_critical call per distinct anisotropy, however many J values share it;
    # the xx ring is the xxz ring at delta = 0
    distinct = ({r["delta"] for r in records} if model.variant == "xxz"
                else {0.0} if model.variant == "xx" else set())
    assert sorted(calls) == sorted(distinct)
    monkeypatch.setattr(analysis_module, "SWEEP_BLOCK", 7)  # blocks that straddle rows
    assert bits(sweep(config)) == bits(expected)



def test_sweep_raises_on_a_nan_before_emitting(monkeypatch):
    inner, calls = analysis_module.route_columns, []

    def with_nan(coordinates, temperatures):
        start = len(calls)
        calls.extend(temperatures)
        C, Z, witness, *rest = inner(coordinates, temperatures)
        if start <= 9 < len(calls):
            witness[9 - start] = math.nan
        return C, Z, witness, *rest

    monkeypatch.setattr(analysis_module, "route_columns", with_nan)
    config = fig6_config(steps=20)
    with pytest.raises(NaNResult, match="^witness is NaN at ") as raised:
        sweep(config)
    point = (*config.model.closed_form_params(), calls[9])
    assert str(raised.value).endswith(f" = {point!r}")  # the point, not its block


def count_level_energies(monkeypatch):
    """The arguments of every ``level_energies`` call of the closed route from here on."""
    inner, calls = concurrence_module.level_energies, []

    def counting(*params):
        calls.append(params)
        return inner(*params)

    monkeypatch.setattr(concurrence_module, "level_energies", counting)
    return calls


@pytest.mark.parametrize("case", sorted(case for case, (_, axes, _) in HOIST_CASES.items()
                                        if "T" in [axis.name for axis in axes]))
def test_sweep_builds_the_levels_once_per_coordinate(case, monkeypatch):
    """The closed route's level work runs once per distinct non-``T`` coordinate,
    in either axis order, not once per grid point."""
    model, axes, T = HOIST_CASES[case]
    calls = count_level_energies(monkeypatch)
    _, blocks = sweep_blocks(SweepConfig(model=model, axes=axes, T=T), ("C", "witness", "Z"))
    points = sum(len(block["C"]) for block in blocks)
    coordinates = math.prod(axis.steps for axis in axes if axis.name != "T")
    assert points > coordinates
    assert len(calls) == len(set(calls)) == coordinates


@pytest.mark.parametrize("delta", (-2000.0, -3.0, 0.0, 0.99, 1.0 - 1e-15))
def test_xxz_critical_builds_the_levels_once(delta, monkeypatch):
    calls = count_level_energies(monkeypatch)
    assert xxz_critical(delta) is not None
    assert calls == [(-1.0, max(delta, -1024.0), 0.0)]


def block_bits(blocks):
    """Each block's columns with floats as ``float.hex``."""
    return [{name: [v.hex() if isinstance(v, float) else v for v in column]
             for name, column in block.items()} for block in blocks]


@pytest.mark.parametrize("case", sorted(HOIST_CASES))
def test_sweep_computes_only_the_named_columns(case, monkeypatch):
    """The named columns are those of the full sweep, bit for bit;
    ``route_columns`` takes each point once where one of ``C``, ``Z`` and
    ``witness`` is named and none otherwise, not counting the calls that
    root its witness for ``T_c``, and ``xxz_critical`` runs only where
    ``T_c`` is named."""
    model, axes, T = HOIST_CASES[case]
    config = SweepConfig(model=model, axes=axes, T=T)
    monkeypatch.setattr(analysis_module, "SWEEP_BLOCK", 7)  # several blocks
    fields, full = sweep_blocks(config)
    full = block_bits(full)
    points = sum(len(block["C"]) for block in full)
    critical_calls, route_calls = [], []
    inner_route, inner_critical = analysis_module.route_columns, analysis_module.xxz_critical

    inside = []  # not empty while xxz_critical runs

    def counting_route(coordinates, temperatures):
        if not inside:  # a point per temperature
            route_calls.extend(temperatures)
        return inner_route(coordinates, temperatures)

    def critical(delta):
        critical_calls.append(delta)
        inside.append(delta)
        try:
            return inner_critical(delta)
        finally:
            inside.pop()

    monkeypatch.setattr(analysis_module, "route_columns", counting_route)
    monkeypatch.setattr(analysis_module, "xxz_critical", critical)
    axis_names = [axis.name for axis in axes]
    for columns in (axis_names + ["C"], ("witness", "C"), ("C", "Z"), ("Z", "witness"),
                    axis_names, axis_names + ["T_c"] * ("T_c" in fields), fields):
        critical_calls.clear()
        route_calls.clear()
        named, blocks = sweep_blocks(config, columns)
        assert named == tuple(columns)
        got = block_bits(blocks)
        assert got == [{name: block[name] for name in columns} for block in full]
        named_route = bool({"C", "Z", "witness"} & set(columns))
        assert len(route_calls) == (points if named_route else 0)
        assert bool(critical_calls) == ("T_c" in columns and model.variant != "xxzfield")


LINE_CASES = {
    "T outer": (ModelSpec.xxz(-1.0, 0.0),
                (SweepAxis("T", 0.05, 2.0, 3), SweepAxis("delta", -3.0, 0.99, 10)), None),
    "T inner": (ModelSpec.xxz(-1.0, 0.0),
                (SweepAxis("delta", -3.0, 0.99, 3), SweepAxis("T", 0.05, 2.0, 10)), None),
    "one-axis T": (ModelSpec.xxz_field(1.0, 1.0, 2.0), (SweepAxis("T", 0.05, 2.0, 10),), None),
    "one-axis B": (ModelSpec.xxz_field(1.0, 1.0, 0.0), (SweepAxis("B", 0.0, 3.0, 10),), 0.5),
    "delta and B": (ModelSpec.xxz_field(1.0, 1.0, 0.0),
                    (SweepAxis("delta", -2.0, 2.0, 3), SweepAxis("B", -1.0, -0.0, 10)), 0.5),
}


@pytest.mark.parametrize("block", (1024, 4), ids=("whole lines", "split lines"))
@pytest.mark.parametrize("case", sorted(LINE_CASES))
def test_sweep_calls_the_route_once_per_line(case, block, monkeypatch):
    """A block is one grid line, one value of the first axis (or of the fixed ``T``
    or coordinate) against the whole last axis, split into :data:`SWEEP_BLOCK`
    points where it is longer, with one ``route_columns`` call each.  Where ``T``
    is an axis, the inner axis's column is one tuple in every line, and the
    outer value's column repeats one object."""
    model, axes, T = LINE_CASES[case]
    monkeypatch.setattr(analysis_module, "SWEEP_BLOCK", block)
    inner, calls = analysis_module.route_columns, []

    def counting(coordinates, temperatures):
        calls.append(len(temperatures))
        return inner(coordinates, temperatures)

    monkeypatch.setattr(analysis_module, "route_columns", counting)
    names = [axis.name for axis in axes]
    columns = (*dict.fromkeys(["T", "J", *names]), "C")
    blocks = list(sweep_blocks(SweepConfig(model, axes, T), columns)[1])
    line = axes[-1].steps
    chunks = [min(block, line - start) for start in range(0, line, block)]
    assert calls == [len(b["C"]) for b in blocks] == chunks * (len(blocks) // len(chunks))
    assert len(blocks) == len(chunks) * (axes[0].steps if len(axes) == 2 else 1)
    outer = names[0] if len(names) == 2 else "J" if names == ["T"] else "T"
    for k, b in enumerate(blocks):
        assert type(b[names[-1]]) is type(b[outer]) is tuple  # a caller cannot edit a shared column
        assert b[names[-1]] == blocks[k % len(chunks)][names[-1]]
        assert b[names[-1]] is blocks[k % len(chunks)][names[-1]] or "T" not in names
        assert all(value is b[outer][0] for value in b[outer])


def test_sweep_rejects_an_unknown_column_at_the_call(monkeypatch):
    def never(*args):
        raise AssertionError("the grid was evaluated")

    monkeypatch.setattr(analysis_module, "route_columns", never)
    xx_config = SweepConfig(ModelSpec.xx(-1.0), (SweepAxis("T", 0.1, 1.0, 3),))
    for config, name in ((fig6_config(), "T_c"), (fig6_config(), "Tc"), (xx_config, "delta")):
        with pytest.raises(ValidationError, match=f"^unknown output column '{name}'$"):
            sweep_blocks(config, ("T", name))
