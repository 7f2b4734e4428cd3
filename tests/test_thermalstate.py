import math
import warnings

import numpy as np
import pytest

from spinthermal import (
    DensityMatrix,
    InvalidState,
    InvalidTemperature,
    ModelSpec,
    NotHermitian,
    SpinThermalError,
    UnsupportedModel,
    analytic_eigenstates,
    analytic_energies,
    gibbs_density,
    hermitian_eigen,
    partial_trace,
    partition_function,
)
from spinthermal.linalg import HERMITICITY_RTOL
from spinthermal.spinmodel import REQUIRED_FIELDS
from spinthermal.concurrence import closed_form_xstate

STATES = np.asarray(analytic_eigenstates())


def projector(*indices):
    return sum(np.outer(STATES[k], STATES[k].conj()) for k in indices)


# hand-traced reduced matrices for the canonical state combinations,
# rational entries in the (00, 01, 10, 11) basis
REDUCED_GOLDENS = {
    (0, 7): np.diag([1.0, 0.0, 0.0, 1.0]),
    (1, 2, 4, 5): (2.0 / 3.0) * np.array(
        [[1, 0, 0, 0], [0, 2, -1, 0], [0, -1, 2, 0], [0, 0, 0, 1]], dtype=float
    ),
    (3, 6): (2.0 / 3.0) * np.array(
        [[0.5, 0, 0, 0], [0, 1, 1, 0], [0, 1, 1, 0], [0, 0, 0, 0.5]]
    ),
    (0, 1, 2): (2.0 / 3.0) * np.array(
        [[2.5, 0, 0, 0], [0, 1, -0.5, 0], [0, -0.5, 1, 0], [0, 0, 0, 0]]
    ),
    (1, 2): (2.0 / 3.0) * np.array(
        [[1, 0, 0, 0], [0, 1, -0.5, 0], [0, -0.5, 1, 0], [0, 0, 0, 0]]
    ),
}


def test_partition_high_temperature_limit():
    z = partition_function(ModelSpec.xx(1.0), 1e9)
    assert abs(z - 8.0) < 1e-6


def test_partition_xx_closed_form():
    z = partition_function(ModelSpec.xx(1.0), 1.0)
    expected = 2.0 + 4.0 * math.e + 2.0 * math.exp(-2.0)
    assert math.isclose(z, expected, rel_tol=1e-10, abs_tol=1e-10)


def test_partition_field_closed_form():
    model = ModelSpec.xxz_field(1.0, 1.0, 2.0)
    got = partition_function(model, 1.0)
    z = math.e
    expected = 2.0 * math.cosh(6.0) + 2.0 * math.cosh(2.0) * z**2 * (2 * z + z**-2)
    assert math.isclose(got, expected, rel_tol=1e-10, abs_tol=1e-10)


def test_partition_rejects_nonpositive_temperature():
    with pytest.raises(InvalidTemperature):
        partition_function(ModelSpec.xx(1.0), 0.0)
    with pytest.raises(InvalidTemperature):
        partition_function(ModelSpec.xx(1.0), -1.0)


def test_gibbs_infinite_temperature_limit():
    rho = gibbs_density(ModelSpec.xxz_field(1.0, 0.5, 1.0), 1e12)
    assert np.abs(rho.mat - np.eye(8) / 8.0).max() < 1e-10


def test_gibbs_zero_temperature_ground_doublet():
    rho = gibbs_density(ModelSpec.xx(-1.0), 0.0)
    expected = projector(3, 6) / 2.0
    assert np.abs(rho.mat - expected).max() < 1e-12


def test_gibbs_matches_analytic_expansion():
    # independent construction: exact eigenstates weighted by exact
    # Boltzmann factors
    model = ModelSpec.xx(1.0)
    T = 1.0
    energies = np.asarray(analytic_energies(model))
    weights = np.exp(-energies / T)
    expected = sum(
        w * np.outer(s, s.conj()) for w, s in zip(weights, STATES)
    ) / weights.sum()
    rho = gibbs_density(model, T)
    assert np.abs(rho.mat - expected).max() < 1e-10


def test_gibbs_trace_and_psd():
    rng = np.random.default_rng(17)
    for _ in range(12):
        model = ModelSpec.xxz_field(
            rng.uniform(-2, 2), rng.uniform(-3, 2), rng.uniform(-3, 3)
        )
        rho = gibbs_density(model, rng.uniform(0.05, 5.0))
        assert abs(np.trace(rho.mat).real - 1.0) < 1e-10
        assert np.asarray(hermitian_eigen(rho.mat).eigenvalues).min() > -1e-10


def wide_models(rng, count):
    """Seeded models of all four variants, with |J|/T and |B|/T up to 1e3, and their T."""
    def coupling(T):
        return float(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-2.0, 3.0) * T)

    for i in range(count):
        T = float(10.0 ** rng.uniform(-2.0, 1.0))
        variant = ("xx", "xxz", "xxzfield", "xyz")[i % 4]
        if variant == "xyz":
            model = ModelSpec.general_xyz(*(coupling(T) for _ in range(6)))
        else:
            fields = {"J": coupling(T), "delta": float(rng.uniform(-3.0, 2.0)), "B": coupling(T)}
            model = ModelSpec(variant, **{k: fields[k] for k in REQUIRED_FIELDS[variant]})
        yield model, T if i % 5 else 0.0


def test_gibbs_state_is_exactly_hermitian_with_unit_trace():
    for model, T in wide_models(np.random.default_rng(31), 200):
        mat = gibbs_density(model, T).mat
        for i, row in enumerate(mat):
            assert row[i].imag == 0.0
            for j in range(i + 1, 8):
                x, y = row[j], mat[j][i]
                assert (x.real.hex(), x.imag.hex()) == (y.real.hex(), (-y.imag).hex())
        assert abs(sum(row[i] for i, row in enumerate(mat)) - 1.0) <= 1e-14


def test_density_matrix_rejects_bad_trace():
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(4, dtype=complex))


def test_a_bad_trace_is_a_numeric_package_error():
    with pytest.raises(InvalidState, match="trace must be 1") as caught:
        DensityMatrix(np.eye(4, dtype=complex))
    assert isinstance(caught.value, SpinThermalError) and caught.value.exit_code == 3


@pytest.mark.parametrize("mat", (np.full((4, 4), np.nan), np.diag([np.nan, 0.5, 0.25, 0.25])))
def test_density_matrix_rejects_nan_entries(mat):
    # nan > tol is False, so a tolerance test alone lets nan through
    with pytest.raises(NotHermitian, match="non-finite"):
        DensityMatrix(mat)


def test_density_matrix_rejects_an_inf_entry_without_a_warning():
    mat = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    mat[0, 0] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotHermitian, match="non-finite"):
            DensityMatrix(mat)


def test_density_matrix_rejects_an_overflowing_asymmetry_without_a_warning():
    # m - m^H overflows to inf for entries above half the float max
    mat = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    mat[0, 1], mat[1, 0] = 1e308, -1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotHermitian, match="exceeds tolerance"):
            DensityMatrix(mat)


def near_hermitian_states(n, factor, count=8, seed=23):
    """Unit-trace states with ``max |m - m^H|`` at ``factor`` times the relative tolerance."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        p = x @ x.conj().T
        p /= np.trace(p).real
        h = (p + p.conj().T) / 2.0
        i, j = rng.choice(n, 2, replace=False)
        h[i, j] += factor * HERMITICITY_RTOL * np.abs(h).max()
        yield h


def rejects(fn, mat):
    try:
        fn(mat)
    except NotHermitian:
        return True
    return False


@pytest.mark.parametrize("n", (4, 8))
@pytest.mark.parametrize("factor", (0.5, 1.0, 2.0))
def test_density_matrix_and_eigensolver_share_the_hermitian_rule(n, factor):
    for mat in near_hermitian_states(n, factor):
        verdict = rejects(DensityMatrix, mat)
        assert verdict == rejects(hermitian_eigen, mat)
        if factor != 1.0:
            assert verdict == (factor > 1.0)


def test_partition_function_at_a_subnormal_temperature():
    # 1/T overflows below T = 5.6e-309; beta * 0 was nan, so Z was nan
    assert partition_function(ModelSpec.xx(0.0), 1e-310) == 8.0
    assert partition_function(ModelSpec.xx(1.0), 1e-310) == math.inf


def test_partial_trace_goldens():
    for indices, golden in REDUCED_GOLDENS.items():
        reduced = partial_trace(projector(*indices))
        assert np.abs(reduced - golden).max() < 1e-12


def test_partial_trace_maximally_mixed():
    reduced = partial_trace(np.eye(8, dtype=complex) / 8.0)
    assert np.abs(reduced - np.eye(4) / 4.0).max() < 1e-15


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(23)
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    m = a @ a.conj().T
    m /= np.trace(m).real
    for site in (1, 2, 3):
        assert abs(np.trace(partial_trace(m, site)).real - 1.0) < 1e-12


def test_partial_trace_site_symmetry():
    # the ring state looks the same whichever qubit is discarded
    for model in (ModelSpec.xx(-1.0), ModelSpec.xxz_field(1.0, -0.5, 1.2)):
        rho = gibbs_density(model, 0.8)
        mats = [np.asarray(partial_trace(rho, site).mat) for site in (1, 2, 3)]
        assert np.abs(mats[0] - mats[1]).max() < 1e-10
        assert np.abs(mats[0] - mats[2]).max() < 1e-10


def test_partial_trace_wraps_density_matrix():
    rho = gibbs_density(ModelSpec.xx(1.0), 1.0)
    assert isinstance(partial_trace(rho), DensityMatrix)
    assert isinstance(partial_trace(rho.mat), list)


def test_xstate_params_at_x_zero():
    params = closed_form_xstate(0.0, 0.0, 0.0, 1.0)
    assert params.u == params.v == 3.0
    assert params.w == 3.0
    assert params.y == 0.0
    assert params.Z == 8.0


def test_xstate_xxz_reduces_to_xx():
    for J in (-2.0, -1.0, 0.5, 2.0):
        for T in (0.3, 1.0, 4.0):
            a = closed_form_xstate(*ModelSpec.xx(J).closed_form_params(), T)
            b = closed_form_xstate(*ModelSpec.xxz(J, 0.0).closed_form_params(), T)
            assert a == b


def test_xstate_field_free_reduction():
    for J, delta in ((-1.0, -0.5), (1.5, 1.0)):
        for T in (0.5, 2.0):
            a = closed_form_xstate(*ModelSpec.xxz(J, delta).closed_form_params(), T)
            b = closed_form_xstate(*ModelSpec.xxz_field(J, delta, 0.0).closed_form_params(),
                                   T)
            assert a == b
            assert b.u == b.v


def test_xstate_rejects_xyz():
    with pytest.raises(UnsupportedModel):
        closed_form_xstate(*ModelSpec.general_xyz(1, 1, 1).closed_form_params(), 1.0)


def xstate_matrix(params):
    """The 4x4 density matrix of closed-form X-state parameters."""
    scale = 2.0 / (3.0 * params.Z)
    out = np.zeros((4, 4), dtype=complex)
    out[0, 0] = scale * params.u
    out[3, 3] = scale * params.v
    out[1, 1] = out[2, 2] = scale * params.w
    out[1, 2] = out[2, 1] = scale * params.y
    return out


def test_reduced_state_reconstruction():
    # the numerically traced state must match the closed-form X matrix
    models = []
    for J in (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0):
        models.append(ModelSpec.xx(J))
        models.append(ModelSpec.xxz(J, -1.0))
        models.append(ModelSpec.xxz(J, 0.5))
        models.append(ModelSpec.xxz_field(J, 0.7, 2.0))
        models.append(ModelSpec.xxz_field(J, -0.5, 0.7))
    for model in models:
        for T in (0.1, 0.5, 1.0, 2.0, 5.0):
            reduced = partial_trace(gibbs_density(model, T)).mat
            expected = xstate_matrix(closed_form_xstate(*model.closed_form_params(), T))
            assert np.abs(reduced - expected).max() < 1e-9, (model, T)
