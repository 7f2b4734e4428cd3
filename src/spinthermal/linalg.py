"""Dense complex linear algebra sized for three-qubit problems.

Matrices are plain complex numpy arrays (2x2 up to 8x8).  The eigensolver
is a cyclic Jacobi iteration with complex plane rotations: at these sizes
it reaches near machine precision, and every spectral quantity downstream
(Gibbs weights, concurrence eigenvalues, square roots) runs through it.
Array code in the package calls libm functions only through :func:`map_floats`.
All functions are pure; nothing here keeps internal state.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NotHermitian, NotPSD

HERMITICITY_RTOL = 1e-10
JACOBI_OFF_TOL = 1e-13       # times the Frobenius norm of the input
JACOBI_SWEEP_CAP = 100
PSD_FLOOR = -1e-12           # eigenvalues below this reject the matrix
DEGENERACY_TOL = 1e-9        # scale for grouping near-equal eigenvalues


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a Hermitian matrix.

    ``eigenvalues`` are real and ascending; column ``k`` of
    ``eigenvectors`` is the unit-norm eigenvector paired with
    ``eigenvalues[k]``.  Ties keep the order produced by the solver.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def degenerate_groups(self, tol: float = DEGENERACY_TOL) -> list[list[int]]:
        """The eigenvalues' :func:`degenerate_groups`."""
        return degenerate_groups(self.eigenvalues, tol)


def degenerate_groups(values, tol: float = DEGENERACY_TOL) -> list[list[int]]:
    """Indices of ascending ``values`` grouped by near-degeneracy.

    Adjacent values closer than ``tol * (1 + |E|)`` land in one group.
    Zero-temperature logic consumes these groups rather than individual
    eigenvectors: the ring spectra are heavily degenerate by
    construction and the split of a degenerate eigenspace into vectors
    is arbitrary.
    """
    groups = [[0]]
    for i in range(1, len(values)):
        scale = 1.0 + max(abs(values[i]), abs(values[i - 1]))
        if values[i] - values[i - 1] <= tol * scale:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def map_floats(fn, *args) -> np.ndarray:
    """``fn`` applied to Python floats elementwise: a float array as long as the first arg.

    Each arg is a 1-D array, a 2-D array (``fn`` then gets one row as a
    list) or a scalar repeated for every element.  numpy's own ``exp``,
    ``power``, ``log`` and ``cosh`` differ from the C library's in the last
    bit on some inputs; going through ``math`` and ``pow`` keeps every
    value, and every ``OverflowError`` or ``ValueError``, those of the
    scalar code.
    """
    columns = [arg.tolist() if isinstance(arg, np.ndarray) else itertools.repeat(arg)
               for arg in args]
    return np.fromiter(map(fn, *columns), float, len(args[0]))


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; block (i, j) of the result is ``a[i, j] * b``."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def _check_hermitian(m: np.ndarray) -> None:
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotHermitian(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise NotHermitian("matrix has non-finite entries")
    scale = float(np.abs(m).max())
    dev = float(np.abs(m - m.conj().T).max())
    if dev > HERMITICITY_RTOL * max(scale, np.finfo(float).tiny):
        raise NotHermitian(f"max |m - m^H| = {dev:.3e} exceeds tolerance")


def _offdiag_norm(a: np.ndarray) -> float:
    off = a - np.diag(a.diagonal())
    return float(np.linalg.norm(off))


def _rotate(a: np.ndarray, v: np.ndarray, p: int, q: int, elem_tol: float) -> None:
    """Zero a[p, q] with a unitary plane rotation applied to ``a`` and ``v``."""
    apq = a[p, q]
    mag = abs(apq)
    if mag <= elem_tol:
        return
    tau = (a[q, q].real - a[p, p].real) / (2.0 * mag)
    t = -math.copysign(1.0, tau) / (abs(tau) + math.hypot(tau, 1.0))
    c = 1.0 / math.sqrt(1.0 + t * t)
    s = t * c * (apq / mag)
    rot = np.array([[c, -s], [s.conjugate(), c]])
    idx = [p, q]
    a[:, idx] = a[:, idx] @ rot
    a[idx, :] = rot.conj().T @ a[idx, :]
    a[p, q] = 0.0
    a[q, p] = 0.0
    a[p, p] = a[p, p].real
    a[q, q] = a[q, q].real
    v[:, idx] = v[:, idx] @ rot


def hermitian_eigen(m: np.ndarray) -> Spectrum:
    """Eigendecomposition of a Hermitian matrix by cyclic Jacobi rotations.

    Sweeps run until the off-diagonal Frobenius norm drops below
    ``JACOBI_OFF_TOL`` times the norm of the input, capped at
    ``JACOBI_SWEEP_CAP`` sweeps.

    Raises
    ------
    NotHermitian
        If ``max |m - m^H|`` exceeds ``1e-10`` times the largest entry
        magnitude, or the matrix is not square / not finite.
    NoConvergence
        If the sweep cap is reached with the off-diagonal norm still
        above threshold.
    """
    m = np.asarray(m, dtype=complex)
    _check_hermitian(m)
    n = m.shape[0]
    a = (m + m.conj().T) / 2.0
    v = np.eye(n, dtype=complex)
    norm = float(np.linalg.norm(a))
    if norm == 0.0:
        return Spectrum(np.zeros(n), v)
    tol = JACOBI_OFF_TOL * norm
    # Skipping elements below elem_tol cannot stall convergence: if every
    # |a[p, q]| <= elem_tol then the off-diagonal norm is already <= tol.
    elem_tol = tol / math.sqrt(n * (n - 1)) if n > 1 else tol
    converged = False
    for _ in range(JACOBI_SWEEP_CAP):
        if _offdiag_norm(a) <= tol:
            converged = True
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                _rotate(a, v, p, q, elem_tol)
    else:
        converged = _offdiag_norm(a) <= tol
    if not converged:
        raise NoConvergence(
            f"off-diagonal norm {_offdiag_norm(a):.3e} above {tol:.3e} "
            f"after {JACOBI_SWEEP_CAP} sweeps"
        )
    d = a.diagonal().real.copy()
    order = np.argsort(d, kind="stable")
    return Spectrum(d[order], v[:, order])


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Hermitian square root of a positive-semidefinite matrix.

    Eigenvalues in ``[PSD_FLOOR, 0)`` are treated as roundoff and clamped
    to zero; anything below the floor raises ``NotPSD``.
    """
    spectrum = hermitian_eigen(m)
    vals = spectrum.eigenvalues
    if float(vals.min()) < PSD_FLOOR:
        raise NotPSD(f"eigenvalue {vals.min():.3e} below {PSD_FLOOR:.0e}")
    roots = np.sqrt(np.clip(vals, 0.0, None))
    vecs = spectrum.eigenvectors
    out = (vecs * roots) @ vecs.conj().T
    return (out + out.conj().T) / 2.0
