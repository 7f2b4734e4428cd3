import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinthermal import (
    InvalidTemperature,
    ModelSpec,
    NotPSD,
    UnsupportedModel,
    XStateParams,
    analytic_eigenstates,
    concurrence_closed_form,
    concurrence_general,
    concurrence_xstate,
    gibbs_density,
    partial_trace,
    spin_flip,
    xstate_params,
)
from spinthermal.concurrence import (LEVEL_REDUCED_SIXTHS, closed_form_xstate, closed_route,
                                     closed_route_array)
from spinthermal.spinmodel import LEVELS

STATES = analytic_eigenstates()


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


def test_negative_spin_flip_eigenvalue_is_not_psd(monkeypatch, capsys):
    # the first hermitian_eigen call (inside psd_sqrt) runs as usual; the
    # second, on the spin-flipped product, reports an eigenvalue below PSD_FLOOR
    import spinthermal.concurrence as concurrence_mod
    from spinthermal.cli import main
    from spinthermal.linalg import PSD_FLOOR, Spectrum

    def negative(mat):
        return Spectrum(eigenvalues=np.array([10.0 * PSD_FLOOR, 0.0, 0.0, 1.0]),
                        eigenvectors=np.eye(4, dtype=complex))

    monkeypatch.setattr(concurrence_mod, "hermitian_eigen", negative)
    with pytest.raises(NotPSD, match="spin-flip product eigenvalue"):
        concurrence_general(np.eye(4) / 4.0)
    assert main(["concurrence", "--model", "xx", "--J", "1", "--T", "1"]) == 3
    assert capsys.readouterr().err.startswith("numeric failure: spin-flip product")


def test_xstate_trivial_zero():
    params = XStateParams(u=1.0, v=1.0, w=1.0, y=0.0, Z=8.0 / 3.0)
    assert concurrence_xstate(params) == 0.0


def test_xstate_params_validation():
    with pytest.raises(ValueError):
        XStateParams(u=1.0, v=1.0, w=1.0, y=0.0, Z=1.0)  # trace != 1
    with pytest.raises(ValueError):
        XStateParams(u=-1.0, v=1.0, w=1.0, y=0.0, Z=2.0)


def test_ferromagnetic_zero_temperature_maximum():
    c = concurrence_xstate(xstate_params(ModelSpec.xx(-1.0), 0.01))
    assert abs(c - 1.0 / 3.0) < 1e-6


def test_antiferromagnetic_xx_never_entangled():
    for T in (0.05, 0.3, 1.0, 5.0):
        assert concurrence_xstate(xstate_params(ModelSpec.xx(1.0), T)) == 0.0
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
            b = concurrence_xstate(xstate_params(model, T))
            assert abs(a - b) <= 1e-12


def test_closed_form_rejections():
    with pytest.raises(UnsupportedModel):
        concurrence_closed_form(ModelSpec.general_xyz(1, 1, 1), 1.0)
    with pytest.raises(InvalidTemperature):
        concurrence_closed_form(ModelSpec.xx(1.0), 0.0)


def test_numeric_vs_closed_spot_grid():
    rng = np.random.default_rng(43)
    for _ in range(20):
        J = rng.uniform(-2, 2)
        delta = rng.uniform(-3, 2)
        B = rng.uniform(-3, 3)
        T = rng.uniform(0.05, 5.0)
        model = ModelSpec.xxz_field(J, delta, B)
        assert abs(pipeline(model, T) - concurrence_closed_form(model, T)) <= 1e-8


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
    assert params.u == params.v == params.w == math.inf
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


def test_closed_route_array_is_the_scalar_route_bit_for_bit():
    rng = np.random.default_rng(17)
    n = 3000
    T = 10.0 ** rng.uniform(-3.0, 1.0, n)
    J = rng.choice((-1.0, 0.0, 1.0), n, p=(0.45, 0.1, 0.45)) * 10.0 ** rng.uniform(-3, 3.5, n) * T
    delta = np.where(rng.random(n) < 0.2, 1.0, rng.uniform(-50.0, 50.0, n))
    B = np.where(rng.random(n) < 0.3, 0.0, rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(-3, 3, n) * T)
    with np.errstate(over="ignore", invalid="ignore"):
        C, Z = closed_route_array(J, delta, B, T)
    want = [closed_route(*point)[:2]
            for point in zip(J.tolist(), delta.tolist(), B.tolist(), T.tolist())]
    assert [(c.hex(), z.hex()) for c, z in zip(C.tolist(), Z.tolist())] == \
        [(c.hex(), z.hex()) for c, z in want]
    assert math.inf in Z.tolist()  # the saturated partition function is covered


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
    assert abs(closed - pipeline(model, T)) <= 1e-8
