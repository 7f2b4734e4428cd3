import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from spinthermal import (
    InvalidState,
    InvalidTemperature,
    ModelSpec,
    NotHermitian,
    NotPSD,
    SpinThermalError,
    UnsupportedModel,
    XStateParams,
    analytic_eigenstates,
    concurrence_closed_form,
    concurrence_general,
    concurrence_xstate,
    gibbs_density,
    partial_trace,
)
from spinthermal.concurrence import (LEVEL_REDUCED_SIXTHS, closed_form_xstate, closed_route,
                                     level_sums, route_columns, route_coordinate)
from spinthermal.spinmodel import LEVELS, level_energies

from kron_reference import spin_flip

STATES = np.asarray(analytic_eigenstates())


def pure_state(vec):
    vec = np.asarray(vec, dtype=complex)
    vec = vec / np.linalg.norm(vec)
    return np.outer(vec, vec.conj())


def pipeline(model, T):
    return concurrence_general(partial_trace(gibbs_density(model, T))).C


def test_bell_state_is_maximally_entangled():
    rho = pure_state([0.0, 1.0, 1.0, 0.0])
    result = concurrence_general(rho)
    assert abs(result.C - 1.0) < 1e-12
    assert result.lambdas[0] == max(result.lambdas)


def test_product_state_is_separable():
    assert concurrence_general(np.diag([1.0, 0, 0, 0]).astype(complex)).C == 0.0


@pytest.mark.parametrize("a, b, c", ((math.pi / 4, math.pi / 4, 0.0), (0.3, 1.1, 0.7),
                                     (2.0, 0.4, -2.5)))
def test_product_state_outside_the_computational_basis_is_separable(a, b, c):
    # rho is rank one, so tau = L^T (sy x sy) L has one nonzero singular value
    # and three of rounding size, about 1e-16, where the square roots of the
    # spin-flip product's eigenvalues gave about 1e-8
    psi = np.kron([math.cos(a), math.sin(a)], [math.cos(b), np.exp(1j * c) * math.sin(b)])
    assert concurrence_general(np.outer(psi, psi.conj())).C < 1e-12


def test_symmetric_state_pair_concurrence():
    # any qubit pair of the symmetric one-excitation state carries 2/3
    reduced = partial_trace(pure_state(STATES[3]))
    assert abs(concurrence_general(reduced).C - 2.0 / 3.0) < 1e-12


def test_lambdas_sorted_and_bounded():
    rng = np.random.default_rng(31)
    for _ in range(15):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        result = concurrence_general(rho)
        assert all(x >= y - 1e-15 for x, y in zip(result.lambdas, result.lambdas[1:]))
        assert -1e-15 <= result.C <= 1.0 + 1e-12


def test_global_phase_invariance():
    rho = partial_trace(pure_state(STATES[1]))
    phase = np.exp(0.37j)
    rotated = pure_state(phase * STATES[1])
    a = concurrence_general(rho)
    b = concurrence_general(partial_trace(rotated))
    assert np.abs(np.array(a.lambdas) - np.array(b.lambdas)).max() < 1e-12


def test_spin_flip_involution():
    rho = partial_trace(pure_state(STATES[4]))
    flipped = spin_flip(rho)
    assert abs(np.trace(flipped).real - 1.0) < 1e-12
    assert np.abs(spin_flip(flipped) - rho).max() < 1e-12
    # flipping a polarized state inverts both qubits
    assert np.abs(
        spin_flip(np.diag([1.0, 0, 0, 0]).astype(complex))
        - np.diag([0, 0, 0, 1.0])
    ).max() < 1e-15


def test_negative_density_matrix_eigenvalue_is_not_psd(monkeypatch, capsys):
    # the one solve of rho itself, the kernel jacobi_eigen for a plain matrix and a
    # DensityMatrix alike, reports an eigenvalue below PSD_FLOOR
    import spinthermal.concurrence as concurrence_mod
    from spinthermal.cli import main
    from spinthermal.linalg import PSD_FLOOR

    monkeypatch.setattr(concurrence_mod, "jacobi_eigen",
                        lambda h: ([10.0 * PSD_FLOOR, 0.0, 0.0, 1.0], np.eye(4, dtype=complex)))
    with pytest.raises(NotPSD, match="density matrix eigenvalue"):
        concurrence_general(np.eye(4) / 4.0)
    assert main(["concurrence", "--model", "xx", "--J", "1", "--T", "1"]) == 3
    assert capsys.readouterr().err.startswith("numeric failure: density matrix eigenvalue")


def test_a_density_matrix_cannot_be_edited_and_anything_else_is_checked():
    # an edited .mat was solved as its Hermitian part and raised NotPSD, not NotHermitian
    rho = partial_trace(gibbs_density(ModelSpec.xx(-1.0), 0.5))
    with pytest.raises(TypeError):
        rho.mat[0][3] = 5.0
    edited = [list(row) for row in rho.mat]
    edited[0][3] = 5.0

    class Exposing:
        def __init__(self, mat):
            self.mat = mat

    for bad in (edited, np.array(edited), Exposing(edited)):
        with pytest.raises(NotHermitian):
            concurrence_general(bad)
    assert (concurrence_general(Exposing(rho.mat)) == concurrence_general(rho)
            == concurrence_general(rho.mat))


def test_xstate_trivial_zero():
    params = XStateParams(u=1.0, v=1.0, w=1.0, y=0.0, Z=8.0 / 3.0)
    assert concurrence_xstate(params) == 0.0


def test_xstate_params_validation():
    with pytest.raises(ValueError):
        XStateParams(u=1.0, v=1.0, w=1.0, y=0.0, Z=1.0)  # trace != 1
    with pytest.raises(ValueError):
        XStateParams(u=-1.0, v=1.0, w=1.0, y=0.0, Z=2.0)


@pytest.mark.parametrize("params", ({"u": 1.0, "v": 1.0, "w": 1.0, "y": 0.0, "Z": 1.0},
                                    {"u": -1.0, "v": 1.0, "w": 1.0, "y": 0.0, "Z": 2.0}),
                         ids=("trace", "sign"))
def test_xstate_params_raise_a_numeric_package_error(params):
    with pytest.raises(InvalidState) as caught:
        XStateParams(**params)
    assert isinstance(caught.value, SpinThermalError) and caught.value.exit_code == 3


@pytest.mark.parametrize("params", (
    {"u": math.nan, "v": 1.0, "w": 1.0, "y": 0.0, "Z": 1.0},
    {"u": 1.0, "v": 1.0, "w": 1.0, "y": math.nan, "Z": math.inf},
    {"u": -math.inf, "v": 1.0, "w": 1.0, "y": 0.0, "Z": 1.0},
    {"u": 1.0, "v": 1.0, "w": -math.inf, "y": 0.0, "Z": math.inf},
    {"u": 0.75, "v": 0.75, "w": 0.0, "y": 0.0, "Z": 0.0},
    {"u": math.inf, "v": math.inf, "w": math.inf, "y": 0.0, "Z": -math.inf},
), ids=("nan-u", "nan-y", "minus-inf-u", "minus-inf-w", "zero-Z", "minus-inf-Z"))
def test_xstate_params_reject_nan_negative_infinity_and_nonpositive_Z(params):
    with pytest.raises(InvalidState):
        XStateParams(**params)


def test_ferromagnetic_zero_temperature_maximum():
    c = concurrence_xstate(closed_form_xstate(-1.0, 0.0, 0.0, 0.01))
    assert abs(c - 1.0 / 3.0) < 1e-6


def test_antiferromagnetic_xx_never_entangled():
    for T in (0.05, 0.3, 1.0, 5.0):
        assert concurrence_xstate(closed_form_xstate(1.0, 0.0, 0.0, T)) == 0.0
        assert concurrence_closed_form(ModelSpec.xx(1.0), T) == 0.0


def test_closed_form_direct_evaluation():
    # J/T = -5 against the ferromagnetic rational expression, and against
    # the full numeric pipeline
    z = math.exp(-5.0)
    direct = (1.0 - 4.0 * z**3 - 3.0 * z * z) / (3.0 * (1.0 + 2.0 * z**3 + z * z))
    closed = concurrence_closed_form(ModelSpec.xx(-5.0), 1.0)
    assert abs(closed - direct) < 1e-14
    assert abs(pipeline(ModelSpec.xx(-5.0), 1.0) - direct) < 1e-9
    assert abs(direct - 1.0 / 3.0) < 1e-3


def test_closed_form_boundary():
    c = concurrence_closed_form(ModelSpec.xx(-0.7866), 1.0)
    assert 0.0 <= c <= 1e-4


def test_xxx_model_never_entangled():
    for J in (-2.0, -1.0, 1.0, 2.0):
        for T in (0.1, 1.0, 3.0):
            assert concurrence_closed_form(ModelSpec.xxz(J, 1.0), T) == 0.0


def test_closed_form_matches_xstate_route():
    rng = np.random.default_rng(41)
    for _ in range(50):
        J = rng.uniform(-2, 2)
        delta = rng.uniform(-3, 2)
        B = rng.uniform(-3, 3)
        T = rng.uniform(0.05, 5.0)
        for model in (ModelSpec.xx(J), ModelSpec.xxz(J, delta),
                      ModelSpec.xxz_field(J, delta, B)):
            a = concurrence_closed_form(model, T)
            b = concurrence_xstate(closed_form_xstate(*model.closed_form_params(), T))
            assert abs(a - b) <= 1e-12


def test_closed_form_rejections():
    with pytest.raises(UnsupportedModel):
        concurrence_closed_form(ModelSpec.general_xyz(1, 1, 1), 1.0)
    with pytest.raises(InvalidTemperature):
        concurrence_closed_form(ModelSpec.xx(1.0), -1.0)


def test_numeric_vs_closed_spot_grid():
    rng = np.random.default_rng(43)
    for _ in range(20):
        J = rng.uniform(-2, 2)
        delta = rng.uniform(-3, 2)
        B = rng.uniform(-3, 3)
        T = rng.uniform(0.05, 5.0)
        model = ModelSpec.xxz_field(J, delta, B)
        assert abs(pipeline(model, T) - concurrence_closed_form(model, T)) <= 1e-11


def test_scale_free_in_j_over_t():
    for x in (-3.0, -0.9, 0.4, 2.0):
        base = concurrence_closed_form(ModelSpec.xx(x), 1.0)
        for c in (0.5, 2.0, 10.0):
            scaled = concurrence_closed_form(ModelSpec.xx(c * x), c)
            assert abs(scaled - base) <= 1e-10


def test_even_in_field():
    for B in (0.4, 1.1, 2.7):
        for J, delta, T in ((1.0, 1.0, 1.0), (-1.0, -0.5, 0.5), (2.0, 0.3, 2.0)):
            plus = concurrence_closed_form(ModelSpec.xxz_field(J, delta, B), T)
            minus = concurrence_closed_form(ModelSpec.xxz_field(J, delta, -B), T)
            assert abs(plus - minus) <= 1e-10


def test_pair_symmetry():
    for model, T in ((ModelSpec.xx(-1.0), 0.7), (ModelSpec.xxz_field(1.0, 1.0, 2.0), 1.0)):
        rho = gibbs_density(model, T)
        values = [
            concurrence_general(partial_trace(rho, site)).C for site in (1, 2, 3)
        ]
        assert max(values) - min(values) <= 1e-10


# ---------------------------------------------------------------------------
# the closed route at extreme |J|/T and |B|/T

def test_closed_route_defect_points():
    # each raised or returned NaN when the closed forms were scalar
    # expressions in z = exp(J/T)
    for model, T, expected in ((ModelSpec.xx(1.0), 1e-3, 0.0),
                               (ModelSpec.xx(-1.0), 1e-3, 1.0 / 3.0),
                               (ModelSpec.xxz(-1.0, -3.0), 0.01, 1.0 / 3.0)):
        closed = concurrence_closed_form(model, T)
        assert abs(closed - expected) <= 1e-12
        assert abs(closed - pipeline(model, T)) <= 1e-9


def test_closed_form_xstate_saturates():
    params = closed_form_xstate(1.0, 0.0, 0.0, 1e-3)
    assert params.Z == math.inf
    assert params.u == params.v == params.w == -params.y == math.inf  # XStateParams accepts it
    # a field that empties the |00> block leaves u at 0, not NaN
    params = closed_form_xstate(1.0, 0.0, -400.0, 1.0)
    assert params.Z == math.inf and params.u == 0.0


def test_level_table_is_the_partial_trace_of_each_level():
    for sixths, states in zip(LEVEL_REDUCED_SIXTHS, LEVELS):
        rho = partial_trace(sum(np.outer(STATES[k], STATES[k].conj()) for k in states))
        r00, r11, r_w, r_y = (n / 6.0 for n in sixths)
        expected = np.array([[r00, 0, 0, 0], [0, r_w, r_y, 0],
                             [0, r_y, r_w, 0], [0, 0, 0, r11]], dtype=complex)
        assert np.abs(rho - expected).max() <= 1e-15


def test_level_sums_are_the_level_table():
    for k, (r00, r11, r_w, _) in enumerate(LEVEL_REDUCED_SIXTHS):
        weights = [float(n == k) for n in range(6)]
        assert level_sums(weights) == (r00, r11, r_w, len(LEVELS[k]))


def extreme_points(rng, n):
    """``(J, delta, B, T)`` arrays with magnitudes from subnormal to 1e308, zeros mixed in."""
    J, delta, B = (rng.choice((-1.0, 0.0, 1.0), n, p=(0.45, 0.1, 0.45))
                   * 10.0 ** rng.uniform(-320.0, 308.0, n) for _ in range(3))
    return J, delta, B, 10.0 ** rng.uniform(-320.0, 308.0, n)


def test_Z_is_nan_only_where_C_is():
    """A sweep that does not name ``Z`` skips it and checks ``C`` for NaN,
    which covers every point where ``Z`` would be NaN."""
    J, delta, B, T = extreme_points(np.random.default_rng(29), 20000)
    points = [*zip(J.tolist(), delta.tolist(), B.tolist(), T.tolist()), (1e200, 1e200, 0.0, 1.0)]
    C, Z = np.array([closed_route(*point)[:2] for point in points]).T
    assert np.isnan(C[-1]) and np.isnan(C).sum() > 100
    assert not (np.isnan(Z) & ~np.isnan(C)).any()


@pytest.mark.parametrize("point,want", [
    # s00 * s11 underflows to 0 and divides the numerator; the witness is negative,
    # and the 50-digit reference gives C = 0
    ((1.0, -0.5, 1.0, 0.005), ("0x0.0p+0", "0x1.88a122d234b39p+865", "-0x1.cab0bfa2a2001p-1")),
    ((0.1211, -24.04, -120.95, 0.4656), ("0x0.0p+0", "inf", "-0x1.ef04a9d827f78p+2")),
    ((1e200, 1e200, 0.0, 1.0), ("nan", "nan", "nan")),  # the level energies overflow
])
def test_closed_route_pins_C_Z_and_the_witness(point, want):
    """``(C, Z, witness)`` bit for bit, with the silent inf and nan of Python floats."""
    assert tuple(x.hex() for x in closed_route(*point)[:3]) == want


_RATIO = st.floats(-3.0, 3.0).map(lambda e: 10.0**e)  # |J|/T and |B|/T in [1e-3, 1e3]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(variant=st.sampled_from(("xx", "xxz", "xxzfield")),
       T=st.floats(-2.0, 1.0).map(lambda e: 10.0**e),
       j_ratio=_RATIO, j_sign=st.sampled_from((-1.0, 1.0)),
       delta=st.floats(-3.0, 2.0),
       b_ratio=_RATIO, b_sign=st.sampled_from((-1.0, 1.0)))
def test_closed_route_matches_numeric_route(variant, T, j_ratio, j_sign, delta,
                                            b_ratio, b_sign):
    J = j_sign * j_ratio * T
    model = {"xx": lambda: ModelSpec.xx(J),
             "xxz": lambda: ModelSpec.xxz(J, delta),
             "xxzfield": lambda: ModelSpec.xxz_field(J, delta, b_sign * b_ratio * T)}[variant]()
    closed = concurrence_closed_form(model, T)
    assert math.isfinite(closed)
    assert abs(closed - pipeline(model, T)) <= 1e-11


def test_numeric_route_matches_closed_route_on_wide_points():
    # |J|/T and |B|/T up to 1e3: with the Wootters lambdas as singular values the
    # worst point here is 5.5e-14 off; as square roots of eigenvalues it was 5.5e-9
    rng = np.random.default_rng(2024)
    for i in range(1200):
        T = 10.0 ** rng.uniform(-2.0, 1.0)
        J, B = rng.choice((-1.0, 1.0), 2) * 10.0 ** rng.uniform(-2.0, 3.0, 2) * T
        delta = rng.uniform(-3.0, 2.0)
        model = (ModelSpec.xx(J), ModelSpec.xxz(J, delta), ModelSpec.xxz_field(J, delta, B))[i % 3]
        assert abs(pipeline(model, T) - concurrence_closed_form(model, T)) <= 1e-11


def test_every_numeric_reduced_state_is_a_real_x_state():
    """Every Hamiltonian here is real and commutes with the parity sz x sz x sz, so the
    numeric reduced pair state is a real X-state, and its concurrence is
    ``2 max(0, |r23| - sqrt(r11 r44), |r14| - sqrt(r22 r33))``: a second judge of the
    Wootters step, and the only one of the XYZ ring, which has no closed form.  The
    worst point is 9.5e-15 off: there the formula gives the reference's C = 9.5e-15
    and the Wootters step 0."""
    rng = np.random.default_rng(14)

    def coupling(T):
        return float(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-2.0, 3.0) * T)

    x_entries = {(k, k) for k in range(4)} | {(1, 2), (2, 1), (0, 3), (3, 0)}
    for i in range(300):
        T = float(10.0 ** rng.uniform(-2.0, 1.0))
        delta = float(rng.uniform(-3.0, 2.0))
        model = (ModelSpec.xx(coupling(T)), ModelSpec.xxz(coupling(T), delta),
                 ModelSpec.xxz_field(coupling(T), delta, coupling(T)),
                 ModelSpec.general_xyz(*(coupling(T) for _ in range(6))))[i % 4]
        rho = partial_trace(gibbs_density(model, T))
        r = rho.mat  # rows and columns in the order 00, 01, 10, 11
        assert [r[a][b] for a in range(4) for b in range(4) if (a, b) not in x_entries] == [0] * 8
        assert all(r[a][b].imag == 0.0 for a, b in x_entries), model
        x_formula = 2.0 * max(0.0, abs(r[1][2]) - math.sqrt(r[0][0].real * r[3][3].real),
                              abs(r[0][3]) - math.sqrt(r[1][1].real * r[2][2].real))
        assert abs(concurrence_general(rho).C - x_formula) <= 1e-14, model


@pytest.mark.parametrize("J", (1.0, -1.0))
def test_numeric_route_matches_closed_route_at_zero_temperature(J):
    # the ground mixtures are rank deficient, so exact zero lambdas abound
    for delta in np.linspace(-3.0, 2.0, 21):
        for B in np.linspace(0.0, 3.0, 25):
            model = ModelSpec.xxz_field(J, float(delta), float(B))
            closed = closed_route(J, float(delta), float(B), 0.0)[0]
            assert abs(pipeline(model, 0.0) - closed) <= 1e-12


@pytest.mark.parametrize("J, delta, B", ((1.0, 1e10, -100.0), (-1.0, -1e10, 100.0)))
def test_zero_temperature_ground_group_of_a_chiral_and_a_symmetric_level(J, delta, B):
    # their gap 3J is within DEGENERACY_TOL of the levels, so both weigh 1 and
    # rho_y = 2 (p2 + p4 - p1 - p3) = 0, as in the numeric route
    assert closed_route(J, delta, B, 0.0)[0] == 0.0
    assert pipeline(ModelSpec.xxz_field(J, delta, B), 0.0) == 0.0


# ---------------------------------------------------------------------------
# the witness of closed_route

C_ZERO = 1e-9  # a concurrence at or below this counts as zero

#: ``(J, delta, B, T, w)``: the witness ``w = ln(|rho_y| / sqrt(rho00 rho11))``
#: computed by mpmath at 120 digits from the exact float inputs (``0.0`` where
#: ``|w|`` is below that resolution).
MPMATH_WITNESSES = (
    # the XXX ring at B = 0: the z-power witness read +1.2e114 and +2.5e27
    (1.0, 1.0, 0.0, 0.02, -2.1525287919493297e-65),
    (1.0, 1.0, 0.0, 0.06, -5.786249543891743e-22),
    # the sweep that printed a nan witness
    (1.5816716374061637, 2.4711978460694217, -1.6701749347434303, 0.0145, 114.49133107760765),
    (1.5816716374061637, 2.4711978460694217, -1.6701749347434303, 0.0146, 113.70239629501746),
    # sweeps that exited 3: z-powers overflowed (xx J = 1, xxzfield(1, 1, 1)) or z underflowed
    (1.0, 0.0, 0.0, 0.002, 0.0),
    (1.0, 1.0, 1.0, 0.005, 199.30685281944005),
    (-1.0, 0.0, 0.0, 0.0005, 0.6931471805599453),
    (-1.0, 0.5, 0.0, 0.0005, 0.6931471805599453),
    # |J|/T far below 1, where exp(-3J/T) - 1 would lose digits
    (1e-09, 0.3, 0.1, 1.0, -20.72326583714641),
    (-2e-06, -0.7, 0.0, 0.5, -12.429211396850304),
    # a chiral-doublet weight is subnormal, so the log-weight form runs
    (-5.719924524601897, 4.270156014269618, -2.439168256343092, 0.08039379742745066,
     -436.0938984089175),
    # seeded points (|J| 0.01-10, T 1e-3-10, |delta| <= 5, |B| <= 3) where field_region raised
    # or gave nan
    (-1.0074392355439317, -3.801737149432297, -0.9371267718391847, 0.0025437132922258836,
     368.40896130206136),
    (-0.2722427655469602, -3.548408648439685, -0.5797418364341986, 0.001425227855128369,
     406.7713343856739),
    (3.3859539192466097, 1.0425249149160987, 1.8966939733408594, 0.0029222566672776023,
     648.3579764183246),
    (-1.2156737757371674, 4.850667407865652, 1.3445295784580535, 0.005949174052225899,
     -1348.8119460745993),
    (-0.7045522844833751, -2.9476968635415233, 1.7525843781739514, 0.004045098431596297,
     433.2612439006429),
    (0.14032768108755111, -1.9174327970738272, 2.868534283360373, 0.0031961422520159913,
     -63.12873479147224),
    (-0.966525344092104, -0.3588279980116891, -2.5191375379815204, 0.0025725151720417776,
     509.9789553072194),
    (0.4846865167380524, -1.931367574876064, -1.6034986776317464, 0.0011381396656540363,
     -610.4560110387088),
    (2.450307589361775, 2.6990580413174206, -0.5356237894437248, 0.02843490650271277,
     18.14369300362089),
    (2.7117695601017346, 1.445581462695361, 0.4567738415607945, 0.0014002600296651984,
     325.5132943973011),
    (5.3559589676943835, -4.627167435846964, 0.337617499161027, 0.0055327747784070505,
     -7930.6209833170915),
    (7.831714193963142, 3.1777608953985492, 2.0689069513019858, 0.10522686019143321,
     18.968248660180162),
    (3.772780396037799, -1.097681427676791, -0.911498921024815, 0.0027968137427208787,
     -1287.6850484323566),
    (9.19462150821164, 3.399920784577441, 0.630142088635794, 0.00427980377737191,
     146.5430630325036),
    # seeded points with |w| < 1e-3
    (6.640302716315205, 4.3933614577908955, -0.011920620022054074, 0.6729487332732386,
     0.0001568848555053839),
    (9.227610836206876, -0.39550612622738157, -0.011081736504169548, 0.22620751314631737,
     0.0009004927712461067),
    (7.412235875538436, 2.3835722912870994, -0.12602058219620993, 2.730050967934615,
     0.000629545232778602),
    # pairs straddling the boundary in delta at a relative 1e-9
    (-1.0, 0.8351809158457043, 0.5, 0.3, 2.7838857953867276e-09),
    (-1.0, 0.8351809175160662, 0.5, 0.3, -2.783886149350933e-09),
    (-2.0, 0.807610189128924, 0.0, 0.7, 2.306146130097854e-09),
    (-2.0, 0.8076101907441444, 0.0, 0.7, -2.306146032860711e-09),
    (1.0, -0.14112184671709638, 1.5, 0.4, -3.520721909455609e-10),
    (1.0, -0.1411218464348527, 1.5, 0.4, 3.520721344570888e-10),
    (-0.5, 0.9450693846215065, -0.2, 0.05, 9.45069327394352e-09),
    (-0.5, 0.9450693865116452, -0.2, 0.05, -9.450693848184215e-09),
)


def wide_grid(seed, n):
    """``(J, delta, B, T)`` arrays: ``|J|`` in [0.1, 10] of either sign, ``delta``
    and ``B`` in [-3, 3], ``T`` log-uniform in [1e-3, 1]."""
    rng = np.random.default_rng(seed)
    J = rng.choice((-1.0, 1.0), n) * rng.uniform(0.1, 10.0, n)
    delta, B = rng.uniform(-3.0, 3.0, (2, n))
    return J, delta, B, 10.0 ** rng.uniform(-3.0, 0.0, n)


def test_positive_concurrence_implies_a_positive_witness_on_the_wide_grid():
    # a level weight that underflows can take s00 or s11 to 0 where the witness is
    # negative; C must stay 0 there
    J, delta, B, T = wide_grid(2001, 40000)
    entangled = 0
    for point in zip(J.tolist(), delta.tolist(), B.tolist(), T.tolist()):
        C, _, witness, *_ = closed_route(*point)
        assert C >= 0.0 and (not C > 0.0 or witness > 0.0), point
        entangled += C > 0.0
        J, delta, _, T = point
        _, _, _, rho00, rho11, *_ = closed_route(J, delta, 0.0, T)
        assert rho00 == rho11  # u == v at B = 0
    assert 0.2 < entangled / 40000 < 0.8  # both verdicts are well covered


def test_closed_concurrence_matches_the_reference_on_the_wide_grid():
    """``C`` is 0 where the 50-digit reference is; where the reference is a
    normal float, ``C`` is within 1e-11 of it relative, plus 4 ulps of
    ``2 |rho_y|``, the size of the two terms that cancel in
    ``C = 2 (|rho_y| - sqrt(rho00 rho11))`` (near the boundary no float route
    from rounded level weights does better)."""
    J, delta, B, T = wide_grid(2002, 1000)
    normal = 0
    for point in zip(J.tolist(), delta.tolist(), B.tolist(), T.tolist()):
        C, *_, rho_y = closed_route(*point)
        want = reference.concurrence(*point)
        if not want:
            assert C == 0.0, point
        elif want >= sys.float_info.min:
            normal += 1
            want = float(want)
            bound = 1e-11 * want + 4.0 * sys.float_info.epsilon * 2.0 * abs(rho_y)
            assert abs(C - want) <= bound, point
    assert normal > 500


def closed_witness(points):
    return [closed_route(*point)[2] for point in points]


def test_witness_matches_the_mpmath_reference():
    got = closed_witness([row[:4] for row in MPMATH_WITNESSES])
    for (*point, want), w in zip(MPMATH_WITNESSES, got):
        assert (w > 0.0) == (want > 0.0), point
        assert abs(w - want) <= 1e-12 * max(1.0, abs(want)), point


def low_temperature_draw(n):
    """``n`` seeded ``(J, delta, B, T)``: ``|J|`` in 10^[-2, 1], ``|delta| <= 50``,
    ``|B| <= 20`` or 0 and ``T`` in 10^[-4, 0], so about half the points leave the
    normal range and take the witness from the level logs."""
    rng = random.Random(3)
    for _ in range(n):
        J = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-2.0, 1.0)
        delta = rng.uniform(-50.0, 50.0)
        B = rng.uniform(-20.0, 20.0) if rng.random() < 0.5 else 0.0
        yield J, delta, B, 10.0 ** rng.uniform(-4.0, 0.0)


def test_log_domain_witness_matches_the_reference(monkeypatch):
    """Over all 18 951 of the 40 000 draw points that take the log-domain witness,
    the worst ``|w - ref| / max(1, |ref|)`` is 1.85e-12, and 1.27e-12 over the first
    8000 with their couplings and ``T`` scaled to ``T <= 1e-300``; part of it is the
    rounding of the level gaps.  The bound is 5e-12.  Sampled here: every 25th
    point, and a quarter of those scaled."""
    import spinthermal.concurrence as concurrence_mod

    calls = []
    log_witness = concurrence_mod._log_witness
    monkeypatch.setattr(concurrence_mod, "_log_witness",
                        lambda *args: calls.append(args) or log_witness(*args))
    rng = random.Random(7)
    sample = list(low_temperature_draw(40000))[::25]
    scales = [10.0 ** rng.uniform(-304.0, -300.0) for _ in sample[::4]]
    sample += [(J * s, delta, B * s, T * s) for (J, delta, B, T), s in zip(sample[::4], scales)]
    checked = tiny = 0
    for point in sample:
        n = len(calls)
        w = closed_route(*point)[2]
        if len(calls) > n:
            want = float(reference.witness(*point))
            assert abs(w - want) <= 5e-12 * max(1.0, abs(want)), point
            checked += 1
            tiny += point[3] <= 1e-300
    assert checked > 700 and tiny > 150


def test_route_columns_over_a_mixed_block_is_closed_route_point_by_point(monkeypatch):
    """One kernel call over a block that interleaves the ``T = 0`` ground group,
    the log-domain witness and the normal range gives every point's
    :func:`closed_route`, all seven values bit for bit: nothing one point sets
    carries to the next."""
    import spinthermal.concurrence as concurrence_mod

    rng = random.Random(29)
    points = []
    for _ in range(3000):
        J = rng.choice((-1.0, 1.0, 0.0)) * 10.0 ** rng.uniform(-2.0, 1.0)
        B = rng.choice((0.0, rng.uniform(-20.0, 20.0)))
        T = rng.choice((0.0, 10.0 ** rng.uniform(-320.0, -301.0), 10.0 ** rng.uniform(-3.0, 1.0)))
        points.append((J, rng.uniform(-50.0, 50.0), B, T))
    calls = []
    log_witness = concurrence_mod._log_witness
    monkeypatch.setattr(concurrence_mod, "_log_witness",
                        lambda *args: calls.append(args) or log_witness(*args))
    block = route_columns([route_coordinate(*point[:3]) for point in points],
                          [point[3] for point in points])
    assert len(calls) > 300  # the log-domain branch, between the others
    assert {"zero", "tiny", "normal"} == {"zero" if not T else "tiny" if T < 1e-300 else "normal"
                                         for *_, T in points}
    assert {J for J, *_ in points if not J} == {0.0}
    assert [[x.hex() for x in row] for row in zip(*block)] == [
        [x.hex() for x in closed_route(*point)] for point in points]


def test_witness_is_minus_infinity_only_at_zero_coupling():
    assert closed_witness([(0.0, 0.5, 0.3, 1.0), (0.0, 1.0, 0.0, 1e-3),
                           (0.0, -2.0, -1.0, 10.0)]) == [-math.inf] * 3
    assert all(math.isfinite(w) for w in closed_witness([(1e-12, 0.5, 0.3, 1.0),
                                                         (-1e-300, 1.0, 0.0, 1.0)]))


def gap_bracket(J, delta, B):
    """``max(-3J, 0) + max_y - (max_00 + max_11)/2`` over the level gaps ``E_min - E``,
    each ``max`` the largest gap of its level group: the witness times ``T`` as ``T -> 0``."""
    levels = level_energies(J, delta, B)
    gaps = [min(levels) - e for e in levels]
    top = [max(gaps[k] for k in group) for group in ((1, 3), (0, 1, 2), (3, 4, 5))]
    return max(-3.0 * J, 0.0) + top[0] - 0.5 * (top[1] + top[2])


@pytest.mark.parametrize("J, delta, B, T", (
    (1.0, 1.0, 5.0, 1e-310), (1.0, 0.5, 1e300, 1e-10), (-1.0, 0.2, 5.0, 1e-310),
))
def test_witness_where_a_level_group_underflows_takes_the_sign_of_the_gaps(J, delta, B, T):
    # every log weight of one level group is -inf; the witness was nan (-inf - -inf)
    [w] = closed_witness([(J, delta, B, T)])
    bracket = gap_bracket(J, delta, B)
    assert not math.isnan(w)
    if bracket:
        assert w == math.copysign(math.inf, bracket)
    else:  # B = 1e300 absorbs J and delta: the rounded gaps cancel, and the 1/T terms with them
        assert abs(w - math.log(1.0 / 3.0)) <= 1e-15


@pytest.mark.parametrize("delta", (0.0, 0.5))
def test_witness_where_the_gaps_cancel_is_its_finite_limit(delta):
    # the ferromagnetic ring at B = 0 as T -> 0: the ground doublet alone,
    # where rho_y = 2 sqrt(rho00 rho11)
    assert gap_bracket(-1.0, delta, 0.0) == 0.0
    assert closed_witness([(-1.0, delta, 0.0, 1e-310)]) == [math.log(2.0)]


@pytest.mark.parametrize("variant", ("xx", "xxz", "xxzfield"))
def test_witness_sign_matches_numeric_route(variant):
    rng = np.random.default_rng(2001)
    n = 200
    T = 10.0 ** rng.uniform(-2.0, 1.0, n)
    J = rng.choice((-1.0, 1.0), n) * 10.0 ** rng.uniform(-3.0, 3.0, n) * T
    delta = rng.uniform(-50.0, 50.0, n) if variant != "xx" else np.zeros(n)
    B = (rng.choice((-1.0, 1.0), n) * 10.0 ** rng.uniform(-3.0, 3.0, n) * T
         if variant == "xxzfield" else np.zeros(n))
    points = list(zip(J.tolist(), delta.tolist(), B.tolist(), T.tolist()))
    signed = 0
    for (j, d, b, t), w in zip(points, closed_witness(points)):
        assert math.isfinite(w)
        model = {"xx": lambda: ModelSpec.xx(j), "xxz": lambda: ModelSpec.xxz(j, d),
                 "xxzfield": lambda: ModelSpec.xxz_field(j, d, b)}[variant]()
        lams = concurrence_general(partial_trace(gibbs_density(model, t))).lambdas
        margin = lams[0] - lams[1] - lams[2] - lams[3]
        if abs(margin) > C_ZERO:
            assert (w > 0.0) == (margin > 0.0), (j, d, b, t, w, margin)
            signed += 1
    assert signed > n // 2
