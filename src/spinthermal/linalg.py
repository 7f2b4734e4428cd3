"""Dense complex linear algebra sized for three-qubit problems.

Matrices are plain complex numpy arrays (2x2 up to 8x8).  The eigensolver
is a cyclic Jacobi iteration with complex plane rotations: at these sizes
it reaches near machine precision, and every spectral quantity downstream
(Gibbs weights, concurrence eigenvalues, square roots) runs through it.
It keeps the matrix and its eigenvectors as the two halves of one
``(2n, n)`` work array, so one column update rotates both.
Array code in the package calls libm functions only through :func:`map_floats`.
All functions are pure; nothing here keeps internal state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FloatOverflow, NoConvergence, NotHermitian, NotPSD

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


def degenerate_groups(values) -> list[list[int]]:
    """Indices of ascending ``values`` grouped by near-degeneracy.

    Adjacent values closer than ``DEGENERACY_TOL * (1 + |E|)`` land in one group.
    Zero-temperature logic consumes these groups rather than individual
    eigenvectors: the ring spectra are heavily degenerate by
    construction and the split of a degenerate eigenspace into vectors
    is arbitrary.
    """
    groups = [[0]]
    for i in range(1, len(values)):
        scale = 1.0 + max(abs(values[i]), abs(values[i - 1]))
        if values[i] - values[i - 1] <= DEGENERACY_TOL * scale:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def map_floats(fn, arr: np.ndarray) -> np.ndarray:
    """``fn`` applied to Python floats elementwise: a float array as long as ``arr``.

    ``arr`` is 1-D.  numpy's own ``exp``, ``power``, ``log`` and ``cosh``
    differ from the C library's in the last bit on some inputs; going
    through ``math`` and ``pow`` keeps every value, and every
    ``OverflowError`` or ``ValueError``, those of the scalar code.
    """
    return np.fromiter(map(fn, arr.tolist()), float, len(arr))


def exp_or_inf(x: float) -> float:
    """``math.exp(x)``, saturating to ``inf`` where it overflows."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; block (i, j) of the result is ``a[i, j] * b``."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def check_hermitian(m: np.ndarray) -> None:
    """Raise ``NotHermitian`` unless ``m`` is square, finite and Hermitian.

    Hermitian means ``max |m - m^H|`` at most ``HERMITICITY_RTOL`` times
    the largest entry magnitude.  That magnitude is inf or nan where an
    entry is not finite, so the common case reads ``m`` twice.  Both reads
    run under ``np.errstate``: ``m - m^H`` of entries above half the
    float max overflows to inf, which fails the test without a warning.
    """
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotHermitian(f"expected a square matrix, got shape {m.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        scale = float(np.abs(m).max())
        dev = float(np.abs(m - m.conj().T).max())
    # |z| is inf also for finite parts near the float max; only then look at the entries
    if not math.isfinite(scale) and not np.isfinite(m).all():
        raise NotHermitian("matrix has non-finite entries")
    if dev > HERMITICITY_RTOL * max(scale, np.finfo(float).tiny):
        raise NotHermitian(f"max |m - m^H| = {dev:.3e} exceeds tolerance")


def _offdiag_norm(a: np.ndarray) -> float:
    off = a.copy()
    np.fill_diagonal(off, 0.0)
    return float(np.linalg.norm(off))


def _rotate(w: np.ndarray, p: int, q: int, apq, mag) -> None:
    """Zero a[p, q]: rotate columns p, q of ``w`` (``a`` and ``v``), then rows p, q of ``a``."""
    tau = (w[q, q].real - w[p, p].real) / (2.0 * mag)
    t = -math.copysign(1.0, tau) / (abs(tau) + math.hypot(tau, 1.0))
    c = 1.0 / math.sqrt(1.0 + t * t)
    s = t * c * (apq / mag)
    rot = np.empty((2, 2), complex)
    rot[0, 0] = rot[1, 1] = c
    rot[0, 1], rot[1, 0] = -s, s.conjugate()
    cols = w.take((p, q), axis=1) @ rot  # take is w[:, [p, q]] without the list-index overhead
    w[:, p] = cols[:, 0]
    w[:, q] = cols[:, 1]
    rows = rot.conj().T @ w.take((p, q), axis=0)
    w[p] = rows[0]
    w[q] = rows[1]
    w[p, q] = w[q, p] = 0.0
    w[p, p] = w[p, p].real
    w[q, q] = w[q, q].real


def hermitian_eigen(m: np.ndarray) -> Spectrum:
    """Eigendecomposition of a Hermitian matrix by cyclic Jacobi rotations.

    Sweeps run until the off-diagonal Frobenius norm drops below
    ``JACOBI_OFF_TOL`` times the norm of the input, capped at
    ``JACOBI_SWEEP_CAP`` sweeps.

    Raises
    ------
    NotHermitian
        If :func:`check_hermitian` rejects the matrix.
    FloatOverflow
        If the Frobenius norm of the input overflows (entries above
        about 1e154), so no tolerance can be set.
    NoConvergence
        If the sweep cap is reached with the off-diagonal norm still
        above threshold.
    """
    m = np.asarray(m, dtype=complex)
    check_hermitian(m)
    n = m.shape[0]
    # the norm's squares overflow from entries of 1.35e154, m + m^H near the float max
    with np.errstate(over="ignore", invalid="ignore"):
        w = np.vstack(((m + m.conj().T) / 2.0, np.eye(n, dtype=complex)))
        a, v = w[:n], w[n:]
        norm = float(np.linalg.norm(a))
    if not math.isfinite(norm):
        raise FloatOverflow("the Frobenius norm of the matrix is beyond the float range")
    if norm == 0.0:
        return Spectrum(np.zeros(n), np.eye(n, dtype=complex))
    tol = JACOBI_OFF_TOL * norm
    # Skipping elements below elem_tol cannot stall convergence: if every
    # |a[p, q]| <= elem_tol then the off-diagonal norm is already <= tol.
    elem_tol = tol / math.sqrt(n * (n - 1)) if n > 1 else tol
    pairs = [(p, q) for p in range(n - 1) for q in range(p + 1, n)]
    converged = False
    for _ in range(JACOBI_SWEEP_CAP):
        if _offdiag_norm(a) <= tol:
            converged = True
            break
        for p, q in pairs:
            apq = w[p, q]
            mag = abs(apq)
            if mag > elem_tol:
                _rotate(w, p, q, apq, mag)
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
