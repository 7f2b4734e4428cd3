import numpy as np
import pytest

from spinthermal import (
    FloatOverflow,
    ModelSpec,
    NoConvergence,
    NotHermitian,
    NotPSD,
    build_hamiltonian,
    hermitian_eigen,
    psd_sqrt,
)
from spinthermal.linalg import degenerate_groups, singular_values
from spinthermal.spinmodel import SIGMA_X, SIGMA_Y, SIGMA_Z

from kron_reference import kron

I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)


def random_hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2.0


def test_kron_identity():
    assert np.array_equal(kron(I2, I2), I4)


def test_kron_sigma_x_pair_is_antidiagonal():
    got = kron(SIGMA_X, SIGMA_X)
    expected = np.zeros((4, 4), dtype=complex)
    for i in range(4):
        expected[i, 3 - i] = 1.0
    assert np.array_equal(got, expected)


def test_kron_sigma_y_pair_is_involutory():
    yy = kron(SIGMA_Y, SIGMA_Y)
    assert np.abs(yy @ yy - I4).max() < 1e-15


def test_kron_mixed_product_property():
    rng = np.random.default_rng(11)
    for _ in range(10):
        a, b, c, d = (
            rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            for _ in range(4)
        )
        lhs = kron(a, b) @ kron(c, d)
        rhs = kron(a @ c, b @ d)
        assert np.abs(lhs - rhs).max() < 1e-12


def test_kron_associative():
    rng = np.random.default_rng(12)
    a, b, c = (
        rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        for _ in range(3)
    )
    assert np.abs(kron(kron(a, b), c) - kron(a, kron(b, c))).max() < 1e-12


def test_eigen_sigma_z():
    spec = hermitian_eigen(SIGMA_Z)
    assert np.allclose(spec.eigenvalues, [-1.0, 1.0], atol=1e-14)


def test_eigen_xx_multiset():
    spec = hermitian_eigen(build_hamiltonian(ModelSpec.xx(1.0)))
    expected = np.array([-1.0, -1.0, -1.0, -1.0, 0.0, 0.0, 2.0, 2.0])
    assert np.abs(np.sort(spec.eigenvalues) - expected).max() < 1e-12


def test_eigen_xxz_multiset():
    # J = -1, delta = -1/2: the single-excitation quadruplet joins the
    # fully polarized pair at zero and the symmetric pair sits at -3.
    spec = hermitian_eigen(build_hamiltonian(ModelSpec.xxz(-1.0, -0.5)))
    expected = np.array([-3.0, -3.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    assert np.abs(np.sort(spec.eigenvalues) - expected).max() < 1e-12


def test_eigen_random_hermitian_invariants():
    # 1e150 takes the solver's overflow-guarded set-up, with a norm still finite
    rng = np.random.default_rng(5)
    for n in (2, 3, 4, 8):
        for scale in (1e-150, 1.0, 1e150):
            for _ in range(20):
                h = random_hermitian(rng, n) * scale
                spec = hermitian_eigen(h)
                assert abs(np.trace(h).real - np.asarray(spec.eigenvalues).sum()) < 1e-10 * scale
                v = np.asarray(spec.eigenvectors)
                assert np.abs(v.conj().T @ v - np.eye(n)).max() < 1e-10
                recon = (v * spec.eigenvalues) @ v.conj().T
                assert np.abs(recon - h).max() < 1e-10 * np.abs(h).max()
                assert (np.diff(spec.eigenvalues) >= -1e-14 * scale).all()


def assert_fresh_outputs(m, first, second):
    """``first`` and ``second``, two solves of ``m``, share no row with each other
    or with ``m``, and writing to every row of ``first`` leaves ``m`` and ``second`` as they were."""
    rows = [first.eigenvalues, *first.eigenvectors]
    others = [second.eigenvalues, *second.eigenvectors, *(m if isinstance(m, list) else [])]
    assert len({id(row) for row in rows}) == len(rows)
    assert not {id(row) for row in rows} & {id(row) for row in others}
    before = [np.array(x).tobytes() for x in (m, second.eigenvalues, second.eigenvectors)]
    for row in rows:
        row[:] = [7.0] * len(row)
    assert [np.array(x).tobytes() for x in (m, second.eigenvalues, second.eigenvectors)] == before


def test_eigen_leaves_its_input_and_shares_no_memory():
    rng = np.random.default_rng(8)
    for m in (random_hermitian(rng, 8),
              np.asarray(build_hamiltonian(ModelSpec.xxz_field(0.7, 0.3, 0.4)))):
        for given in (m, m.tolist()):
            before = np.array(given).tobytes()
            first, second = hermitian_eigen(given), hermitian_eigen(given)
            assert np.array(given).tobytes() == before
            # the rotations run on one work array per call: nothing carries over
            assert (np.asarray(first.eigenvalues).tobytes()
                    == np.asarray(second.eigenvalues).tobytes())
            assert (np.asarray(first.eigenvectors).tobytes()
                    == np.asarray(second.eigenvectors).tobytes())
            assert_fresh_outputs(given, first, second)


def test_eigen_matches_lapack():
    # random spectra, and degenerate ones: the identity and ring Hamiltonians
    rng = np.random.default_rng(6)
    rings = [np.asarray(build_hamiltonian(spec)) for spec in (
        ModelSpec.xx(1.0), ModelSpec.xxz(-1.0, -0.5), ModelSpec.xxz_field(1.0, 1.0, 1.0),
        ModelSpec.xxz_field(-1.0, -3.0, 0.25), ModelSpec.general_xyz(1.0, 0.5, -0.3))]
    for n in (1, 2, 4, 8):
        matrices = [random_hermitian(rng, n) for _ in range(25)] + [np.eye(n, dtype=complex)]
        for h in matrices + (rings if n == 8 else []):
            spec = hermitian_eigen(h)
            vals, v = np.asarray(spec.eigenvalues), np.asarray(spec.eigenvectors)
            scale = 1.0 + np.abs(vals).max()
            assert np.abs(vals - np.linalg.eigh(h)[0]).max() <= 1e-14 * scale
            # the off-diagonal tolerance, 1e-13 of the norm, bounds the residual
            assert np.abs(h @ v - v * vals).max() <= 1e-12 * scale
            assert np.abs(v.conj().T @ v - np.eye(n)).max() <= 1e-14


def test_singular_values_match_lapack():
    rng = np.random.default_rng(7)
    for rank in range(5):
        for _ in range(20):
            x, y = (rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
                    for _ in range(2))
            m = x @ y.conj().T
            got = singular_values(m)
            want = np.linalg.svd(m, compute_uv=False)
            assert np.abs(np.array(got) - want).max() <= 1e-14 * (1.0 + want[0])
            assert got == sorted(got, reverse=True)


def test_eigen_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        hermitian_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("m", (np.ones(3), np.zeros((2, 2, 2)), [[1.0, 0.0]], [[1.0], [0.0, 1.0]],
                               np.zeros((0, 0)), []))
def test_eigen_rejects_what_is_not_a_nonempty_square_matrix(m):
    # a 1-D or 3-D array raised ValueError from the list conversion, and 0x0 solved to nothing
    with pytest.raises(NotHermitian, match="matrix"):
        hermitian_eigen(m)


def test_eigen_rejects_non_finite():
    bad = np.array([[np.inf, 0.0], [0.0, 1.0]])
    with pytest.raises(NotHermitian):
        hermitian_eigen(bad)


def test_eigen_rejects_a_norm_beyond_the_float_range():
    # eight entries of 8e307: m + m^H stays finite and the norm, 2.3e308, does not
    with pytest.raises(FloatOverflow, match="Frobenius norm"):
        hermitian_eigen(np.diag([8e307] * 8))
    # a norm of 1.8e308, within the range but beyond half of it: 2 |apq| overflowed
    # in the rotation, and an eigenvalue came back inf
    z = complex(8e307, 8e307)
    with pytest.raises(FloatOverflow, match="Frobenius norm"):
        hermitian_eigen(np.array([[0.0, z], [z.conjugate(), 8e307]]))


@pytest.mark.parametrize("J", (1e-170, 1e160))
def test_eigen_of_a_ring_whose_squared_entries_underflow_or_overflow(J):
    # a norm from squared entries was 0 at 1e-170, and the eight energies came back 0;
    # at 1e160 it was inf, and the solve raised FloatOverflow
    h = np.asarray(build_hamiltonian(ModelSpec.xx(J)))
    spec = hermitian_eigen(h)
    assert np.abs(spec.eigenvalues - J * np.array([-1, -1, -1, -1, 0, 0, 2, 2])).max() <= 1e-14 * J
    v = np.asarray(spec.eigenvectors)
    assert np.abs(h @ v - v * spec.eigenvalues).max() <= 1e-12 * J
    assert np.abs(v.conj().T @ v - np.eye(8)).max() <= 1e-14


def test_eigen_zero_matrix():
    spec = hermitian_eigen(np.zeros((4, 4)))
    assert np.array_equal(spec.eigenvalues, np.zeros(4))


def test_eigen_zero_matrix_returns_a_fresh_identity():
    for zero in (np.zeros((3, 3)), [[0.0] * 3 for _ in range(3)]):
        first, second = hermitian_eigen(zero), hermitian_eigen(zero)
        assert np.array_equal(first.eigenvectors, np.eye(3))
        # no other call and no input shares a row
        assert_fresh_outputs(zero, first, second)
        assert np.array_equal(second.eigenvectors, np.eye(3))
        assert np.array_equal(zero, np.zeros((3, 3)))


@pytest.mark.parametrize("entry", (1.35e154, 1e200))
def test_eigen_of_entries_whose_squares_overflow(entry):
    # np.linalg.norm squared them to inf; hypot squares nothing
    m = np.array([[1.0, entry], [entry, entry]])
    want = np.linalg.eigvalsh(m / entry) * entry
    assert np.abs(hermitian_eigen(m).eigenvalues - want).max() <= 1e-15 * entry


@pytest.mark.parametrize("entry", (1.7e308,))
def test_eigen_of_entries_near_the_float_max_raises_without_a_warning(entry):
    # m + m^H overflows at 1.7e308
    with pytest.raises(FloatOverflow, match="Frobenius norm"):
        hermitian_eigen(np.array([[1.0, entry], [entry, entry]]))


def test_eigen_of_an_entry_whose_modulus_overflows_raises_float_overflow():
    # both parts are finite, so the matrix is finite although |z| is inf
    z = complex(1.3e308, 1.3e308)
    with pytest.raises(FloatOverflow, match="Frobenius norm"):
        hermitian_eigen(np.array([[1.0, z], [z.conjugate(), 1.0]]))


def test_degenerate_groups():
    spec = hermitian_eigen(build_hamiltonian(ModelSpec.xx(1.0)))
    sizes = sorted(len(g) for g in degenerate_groups(spec.eigenvalues))
    assert sizes == [2, 2, 4]


def test_degenerate_groups_are_scale_free():
    # the tolerance is relative to the spectrum: 1 + |E| grouped all of a ring at J = 1e-9
    values = hermitian_eigen(build_hamiltonian(ModelSpec.xxz_field(1.0, 1.0, 0.5))).eigenvalues
    want = degenerate_groups(values)
    assert [len(g) for g in want] == [2, 2, 1, 1, 1, 1]  # -3.5, -2.5, -1.5, -0.5, 0.5, 1.5
    for k in (-1000, -30, 30, 1000):
        assert degenerate_groups(np.ldexp(values, k)) == want
    assert degenerate_groups([0.0, 0.0, 0.0]) == [[0, 1, 2]]


def test_psd_sqrt_identity():
    assert np.abs(np.asarray(psd_sqrt(I4)) - I4).max() < 1e-12


def test_psd_sqrt_diagonal():
    m = np.diag([4.0, 1.0, 0.0, 0.0]).astype(complex)
    expected = np.diag([2.0, 1.0, 0.0, 0.0])
    assert np.abs(np.asarray(psd_sqrt(m)) - expected).max() < 1e-12


def test_psd_sqrt_maximally_mixed():
    assert np.abs(np.asarray(psd_sqrt(I4 / 4.0)) - I4 / 2.0).max() < 1e-12


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(9)
    for _ in range(10):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = a.conj().T @ a
        root = np.asarray(psd_sqrt(m))
        assert np.abs(root - root.conj().T).max() < 1e-12
        assert np.abs(root @ root - m).max() < 1e-9


def test_psd_sqrt_clamps_tiny_negative():
    m = np.diag([1.0, 0.5, -1e-13, 0.0]).astype(complex)
    root = np.asarray(psd_sqrt(m))
    assert root[2, 2].real == 0.0


def test_psd_sqrt_rejects_negative():
    with pytest.raises(NotPSD):
        psd_sqrt(np.diag([1.0, -0.5]).astype(complex))


def test_no_convergence_raised_at_sweep_cap(monkeypatch):
    # the 8x8 problems here always converge well inside the cap; force a
    # zero-sweep budget to exercise the failure path
    import spinthermal.linalg as linalg_mod

    monkeypatch.setattr(linalg_mod, "JACOBI_SWEEP_CAP", 0)
    with pytest.raises(NoConvergence):
        linalg_mod.hermitian_eigen(build_hamiltonian(ModelSpec.xx(1.0)))
    with pytest.raises(NoConvergence, match="after 0 sweeps"):
        linalg_mod.singular_values(I4)
