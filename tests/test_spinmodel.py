import numpy as np
import pytest

import spinthermal.spinmodel as spinmodel_module
from spinthermal import (
    FloatOverflow,
    ModelSpec,
    Q,
    SHIFT_PHASES,
    UnsupportedModel,
    analytic_eigenstates,
    analytic_energies,
    basis_index,
    build_hamiltonian,
    cyclic_shift,
    hermitian_eigen,
)

from kron_reference import pauli


def ket(q1, q2, q3):
    v = np.zeros(8, dtype=complex)
    v[basis_index(q1, q2, q3)] = 1.0
    return v


def test_pauli_z_sign_convention():
    assert np.allclose(pauli(1, "z") @ ket(0, 0, 0), -ket(0, 0, 0))
    total = sum(pauli(n, "z") for n in (1, 2, 3))
    assert np.allclose(total @ ket(1, 1, 1), 3.0 * ket(1, 1, 1))


def test_pauli_raising_action():
    plus = (pauli(2, "x") + 1j * pauli(2, "y")) / 2
    assert np.allclose(plus @ ket(0, 0, 0), ket(0, 1, 0))
    assert np.allclose(plus @ ket(0, 1, 0), np.zeros(8))


def test_pauli_rejects_bad_arguments():
    with pytest.raises(ValueError):
        pauli(0, "z")
    for axis in ("w", "+", "-"):
        with pytest.raises(ValueError):
            pauli(1, axis)


@pytest.mark.parametrize("J", [1.0, -1.0, 0.7, -2.3])
def test_xx_spectrum(J):
    spec = hermitian_eigen(build_hamiltonian(ModelSpec.xx(J)))
    expected = np.sort(np.array([0.0, 0.0, -J, -J, -J, -J, 2 * J, 2 * J]))
    assert np.abs(np.sort(spec.eigenvalues) - expected).max() < 1e-12


@pytest.mark.parametrize("J,delta", [(1.0, 0.3), (-1.0, -0.5), (2.0, 1.0), (-0.4, 2.0)])
def test_xxz_spectrum(J, delta):
    spec = hermitian_eigen(build_hamiltonian(ModelSpec.xxz(J, delta)))
    e1 = -2.0 * J * (delta + 0.5)
    e3 = -2.0 * J * (delta - 1.0)
    expected = np.sort(np.array([0.0, 0.0, e1, e1, e1, e1, e3, e3]))
    assert np.abs(np.sort(spec.eigenvalues) - expected).max() < 1e-12


def test_field_spectrum_matches_analytic_energies():
    rng = np.random.default_rng(3)
    for _ in range(10):
        model = ModelSpec.xxz_field(
            rng.uniform(-2, 2), rng.uniform(-3, 2), rng.uniform(-3, 3)
        )
        num = np.sort(hermitian_eigen(build_hamiltonian(model)).eigenvalues)
        ana = np.sort(analytic_energies(model))
        assert np.abs(num - ana).max() < 1e-12


def test_analytic_energies_rejects_xyz():
    with pytest.raises(UnsupportedModel):
        analytic_energies(ModelSpec.general_xyz(1, 1, 1))


def test_hamiltonians_hermitian():
    models = [
        ModelSpec.xx(1.2),
        ModelSpec.xxz(-0.7, 0.4),
        ModelSpec.xxz_field(0.9, -1.1, 2.0),
        ModelSpec.general_xyz(0.3, -0.8, 1.5, 0.2, -0.4, 0.9),
    ]
    for model in models:
        h = np.asarray(build_hamiltonian(model))
        assert np.abs(h - h.conj().T).max() < 1e-14


def kron_reference_hamiltonian(spec):
    """H built from Kronecker products of pauli(), term by term in library order."""
    h = np.zeros((8, 8), dtype=complex)
    eye = np.eye(8, dtype=complex)
    bonds = ((1, 2), (2, 3), (3, 1))
    if spec.variant == "xyz":
        couplings = (spec.J1, spec.J2, spec.J3)
        fields = (spec.B1, spec.B2, spec.B3)
        for n, m in bonds:
            for coupling, axis in zip(couplings, "xyz"):
                h = h + (coupling / 2.0) * (pauli(n, axis) @ pauli(m, axis))
        for n in (1, 2, 3):
            h = h + fields[n - 1] * pauli(n, "z")
        return h
    J, delta, B = spec.closed_form_params()
    for n, m in bonds:
        h = h + (J / 2.0) * (
            pauli(n, "x") @ pauli(m, "x") + pauli(n, "y") @ pauli(m, "y")
        )
        if spec.variant in ("xxz", "xxzfield"):
            h = h + (delta * J / 2.0) * (pauli(n, "z") @ pauli(m, "z") - eye)
    if spec.variant == "xxzfield":
        for n in (1, 2, 3):
            h = h + B * pauli(n, "z")
    return h


def reference_models():
    rng = np.random.default_rng(11)

    def coupling():
        return float(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 4.0))

    models = [
        ModelSpec.xx(-1.0), ModelSpec.xx(1e4), ModelSpec.xx(-1e4),
        ModelSpec.xxz(-1.0, 0.0), ModelSpec.xxz(1e4, -1e4),
        ModelSpec.xxz_field(-1.0, 0.0, 0.0), ModelSpec.xxz_field(-1e4, 0.5, 1e4),
        ModelSpec.general_xyz(-1.0, 0.0, 1e4), ModelSpec.general_xyz(1, 1, 1),
    ]
    for _ in range(40):
        models.append(ModelSpec.xx(coupling()))
        models.append(ModelSpec.xxz(coupling(), rng.uniform(-3.0, 2.0)))
        models.append(ModelSpec.xxz_field(coupling(), rng.uniform(-3.0, 2.0), coupling()))
        models.append(ModelSpec.general_xyz(*(coupling() for _ in range(6))))
    return models


def test_build_hamiltonian_is_bitwise_the_kronecker_build():
    for model in reference_models():
        expected = kron_reference_hamiltonian(model)
        assert np.asarray(build_hamiltonian(model)).tobytes() == expected.tobytes(), model


def test_build_hamiltonian_makes_no_kronecker_product(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("build_hamiltonian called a Kronecker product")

    models = [
        ModelSpec.xx(-1.0),
        ModelSpec.xxz(0.7, 0.4),
        ModelSpec.xxz_field(0.9, -1.1, 2.0),
        ModelSpec.general_xyz(0.3, -0.8, 1.5, 0.2, -0.4, 0.9),
    ]
    expected = [kron_reference_hamiltonian(model) for model in models]
    assert not hasattr(spinmodel_module, "kron")
    monkeypatch.setattr(np, "kron", refuse)
    for model, reference in zip(models, expected):
        assert np.asarray(build_hamiltonian(model)).tobytes() == reference.tobytes()


@pytest.mark.parametrize("model", (ModelSpec.xxz(1e200, 1e200),
                                   ModelSpec.xxz_field(1.0, 1.0, 1.7e308),
                                   ModelSpec.general_xyz(1.7e308, 1.7e308, 1.7e308)))
def test_build_hamiltonian_raises_float_overflow_without_a_warning(model):
    with pytest.raises(FloatOverflow, match="beyond the float range"):
        build_hamiltonian(model)


def test_build_hamiltonian_near_the_float_max_stays_the_kronecker_build():
    # large enough to take the guarded path, small enough that every entry is finite
    for model in (ModelSpec.xx(1e308), ModelSpec.xxz_field(1e300, -2.0, 1e307),
                  ModelSpec.general_xyz(1e308, -1e308, 1e308, 1e307, 0.0, -1e307)):
        assert (np.asarray(build_hamiltonian(model)).tobytes()
                == kron_reference_hamiltonian(model).tobytes())


def per_variant_term_sum(spec):
    """H as each variant's own terms, zero coefficients included: ``J/2`` hopping
    (and ``delta*J/2`` anisotropy) bond by bond, then ``B`` site by site, or
    ``J_a/2`` per bond and axis, then ``B_a``; ``FloatOverflow`` where an entry
    or a coefficient leaves the float range."""
    eye = np.eye(8, dtype=complex)
    bonds = [[pauli(n, axis) @ pauli(m, axis) for axis in "xyz"]
             for n, m in ((1, 2), (2, 3), (3, 1))]
    sites = [pauli(n, "z") for n in (1, 2, 3)]
    if spec.variant == "xyz":
        couplings = (spec.J1, spec.J2, spec.J3)
        terms = [(J / 2.0, op) for bond in bonds for J, op in zip(couplings, bond)]
        terms += zip((spec.B1, spec.B2, spec.B3), sites)
    else:
        terms = []
        for xx, yy, zz in bonds:
            terms.append((spec.J / 2.0, xx + yy))
            if spec.variant != "xx":
                terms.append((spec.delta * spec.J / 2.0, zz - eye))
        if spec.variant == "xxzfield":
            terms += [(spec.B, z) for z in sites]
    h = np.zeros((8, 8), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for coefficient, op in terms:
            h += coefficient * op
    if not np.isfinite(h).all():
        raise FloatOverflow("beyond the float range")
    return h


def seeded_specs_with_zero_terms():
    rng = np.random.default_rng(20)
    pool = (0.0, -0.0, 1.0, -2.5, 1e-300, 5e-324, 1e200, -1.7e308)

    def coupling():
        if rng.random() < 0.6:
            return float(rng.choice(pool))
        return float(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-5.0, 5.0))

    specs = [ModelSpec.xx(0.0), ModelSpec.xxz(-0.0, 0.0), ModelSpec.xxz(1.0, -0.0),
             ModelSpec.xxz_field(0.0, 0.0, 0.0), ModelSpec.xxz_field(-1.0, 0.0, -0.0),
             ModelSpec.general_xyz(0.0, -0.0, 0.0)]
    for _ in range(150):
        specs.append(ModelSpec.xx(coupling()))
        specs.append(ModelSpec.xxz(coupling(), coupling()))
        specs.append(ModelSpec.xxz_field(coupling(), coupling(), coupling()))
        specs.append(ModelSpec.general_xyz(*(coupling() for _ in range(6))))
    return specs


def test_build_hamiltonian_skipping_zero_terms_is_bitwise_the_per_variant_sums():
    overflows = 0
    for spec in seeded_specs_with_zero_terms():
        try:
            expected = per_variant_term_sum(spec)
        except FloatOverflow:
            overflows += 1
            with pytest.raises(FloatOverflow):
                build_hamiltonian(spec)
            continue
        assert np.asarray(build_hamiltonian(spec)).tobytes() == expected.tobytes(), spec
    assert 0 < overflows < 600


def test_build_hamiltonian_ignores_fields_outside_the_variant():
    stray = ModelSpec("xx", J=-1.0, delta=2.0, B=3.0, J1=1.0)
    assert stray.closed_form_params() == (-1.0, 0.0, 0.0)
    assert (np.asarray(build_hamiltonian(stray)).tobytes()
            == np.asarray(build_hamiltonian(ModelSpec.xx(-1.0))).tobytes())
    assert ModelSpec("xxz", J=1.0, delta=0.5, B=3.0).closed_form_params() == (1.0, 0.5, 0.0)


def test_cyclic_shift_permutation():
    p = np.asarray(cyclic_shift())
    assert np.allclose(p @ ket(0, 0, 1), ket(1, 0, 0))
    assert np.allclose(p @ ket(0, 1, 1), ket(1, 0, 1))
    # order three: applying it three times is the identity
    assert np.abs(p @ p @ p - np.eye(8)).max() < 1e-15


def test_shift_commutes_with_uniform_models():
    p = np.asarray(cyclic_shift())
    models = [
        ModelSpec.xx(1.0),
        ModelSpec.xxz(-1.0, 0.5),
        ModelSpec.xxz_field(1.0, -0.5, 1.5),
        ModelSpec.general_xyz(0.4, -0.9, 1.1, 0.3, 0.3, 0.3),
    ]
    for model in models:
        h = build_hamiltonian(model)
        assert np.abs(h @ p - p @ h).max() <= 1e-12


def test_shift_does_not_commute_with_nonuniform_field():
    p = np.asarray(cyclic_shift())
    h = build_hamiltonian(ModelSpec.general_xyz(1.0, 1.0, 0.0, 1.0, 0.0, 0.0))
    assert np.abs(h @ p - p @ h).max() > 0.1


def test_shift_eigenphases():
    p = np.asarray(cyclic_shift())
    for k, psi in enumerate(np.asarray(analytic_eigenstates())):
        assert np.linalg.norm(p @ psi - SHIFT_PHASES[k] * psi) < 1e-12


def test_q_is_primitive_cube_root():
    assert abs(Q**3 - 1.0) < 1e-15
    assert abs(Q**2 + Q + 1.0) < 1e-15


def test_eigenstates_orthonormal():
    states = analytic_eigenstates()
    gram = np.array([[np.vdot(a, b) for b in states] for a in states])
    assert np.abs(gram - np.eye(8)).max() < 1e-14


def test_state_zero_and_seven_are_polarized():
    states = analytic_eigenstates()
    assert np.allclose(states[0], ket(0, 0, 0))
    assert np.allclose(states[7], ket(1, 1, 1))


def test_symmetric_state_energy():
    states = np.asarray(analytic_eigenstates())
    for J in (0.8, -1.7):
        h = build_hamiltonian(ModelSpec.xx(J))
        assert np.linalg.norm(h @ states[3] - 2.0 * J * states[3]) < 1e-12


def test_states_are_simultaneous_eigenvectors():
    states = np.asarray(analytic_eigenstates())
    models = [
        ModelSpec.xx(-1.0),
        ModelSpec.xxz(1.0, 0.5),
        ModelSpec.xxz_field(1.0, 1.0, 2.0),
    ]
    for model in models:
        h = build_hamiltonian(model)
        energies = analytic_energies(model)
        for k, psi in enumerate(states):
            assert np.linalg.norm(h @ psi - energies[k] * psi) <= 1e-10


def test_modelspec_validation():
    with pytest.raises(ValueError):
        ModelSpec("xx")  # J missing
    with pytest.raises(ValueError):
        ModelSpec("nope", J=1.0)
    with pytest.raises(ValueError):
        ModelSpec.xx(float("nan"))


def test_closed_form_params():
    assert ModelSpec.xx(2.0).closed_form_params() == (2.0, 0.0, 0.0)
    assert ModelSpec.xxz(1.0, -0.5).closed_form_params() == (1.0, -0.5, 0.0)
    with pytest.raises(UnsupportedModel):
        ModelSpec.general_xyz(1, 1, 1).closed_form_params()
