"""Dense complex linear algebra sized for three-qubit problems.

Matrices are plain complex numpy arrays (2x2 up to 8x8).  The eigensolver
is a cyclic Jacobi iteration with complex plane rotations: at these sizes
it reaches near machine precision, and every spectral quantity downstream
(Gibbs weights, the factor of the concurrence's density matrix) runs
through it.  Its rotations, and those of the one-sided Jacobi SVD that
gives the concurrence's lambdas, run on Python ``complex`` lists, with
no numpy call per rotation.
Array code in the package calls libm functions only through :func:`map_floats`.
All functions are pure; nothing here keeps internal state.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import FloatOverflow, NoConvergence, NotHermitian, NotPSD

HERMITICITY_RTOL = 1e-10
TRACE_TOL = 1e-10            # |trace - 1| allowed of a density matrix or X-state
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

    Adjacent values at most ``DEGENERACY_TOL * max(|E_first|, |E_last|)``
    apart land in one group; the tolerance scales with the spectrum, as
    the Jacobi error does.  Zero-temperature logic consumes these groups
    rather than individual eigenvectors: the ring spectra are heavily
    degenerate by construction and the split of a degenerate eigenspace
    into vectors is arbitrary.
    """
    tol = DEGENERACY_TOL * max(abs(values[0]), abs(values[-1]))
    groups = [[0]]
    for i in range(1, len(values)):
        if values[i] - values[i - 1] <= tol:
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


def _rotation(app: float, aqq: float, apq: complex, mag: float) -> tuple[float, float, complex]:
    """``(t, c, s)`` of the rotation ``R = [[c, -s], [conj(s), c]]`` that makes
    ``R^H [[app, apq], [conj(apq), aqq]] R`` diagonal, ``mag = |apq| > 0``;
    the diagonal becomes ``(app + t mag, aqq - t mag)``."""
    tau = (aqq - app) / (2.0 * mag)
    t = -math.copysign(1.0, tau) / (abs(tau) + math.hypot(tau, 1.0))
    c = 1.0 / math.sqrt(1.0 + t * t)
    return t, c, t * c * (apq / mag)


def _rotate_pair(x: list, y: list, c: float, s: complex) -> tuple[list, list]:
    """``[x, y] R`` for vectors ``x``, ``y``: ``(c x + conj(s) y, c y - s x)``."""
    sc = s.conjugate()
    return [c * u + sc * v for u, v in zip(x, y)], [c * v - s * u for u, v in zip(x, y)]


def hermitian_eigen(m: np.ndarray) -> Spectrum:
    """Eigendecomposition of a Hermitian matrix by cyclic Jacobi rotations.

    Sweeps run until the off-diagonal Frobenius norm drops below
    ``JACOBI_OFF_TOL`` times the norm of the input, capped at
    ``JACOBI_SWEEP_CAP`` sweeps; both norms are ``math.hypot`` of moduli,
    which squares nothing, and the zero matrix converges at once.  The
    rotations run on Python ``complex`` lists: each replaces rows ``p``
    and ``q`` of the matrix and fills its columns ``p`` and ``q`` by
    conjugation, so it stays exactly Hermitian, and rotates columns ``p``
    and ``q`` of the eigenvectors as rows of their transpose.

    Raises
    ------
    NotHermitian
        If :func:`check_hermitian` rejects the matrix.
    FloatOverflow
        If twice the Frobenius norm of the input is beyond the float
        range, where a rotation's ``aqq - app`` or ``2 |apq|`` could overflow.
    NoConvergence
        If the sweep cap is reached with the off-diagonal norm still
        above threshold.
    """
    m = np.asarray(m, dtype=complex)
    check_hermitian(m)
    n = m.shape[0]
    # hypot squares nothing; m + m^H or an entry's modulus can still overflow
    with np.errstate(over="ignore", invalid="ignore"):
        h = (m + m.conj().T) / 2.0
        norm = math.hypot(*np.abs(h).ravel().tolist())
    if not math.isfinite(2.0 * norm):  # bounds every aqq - app and 2 |apq| of a rotation
        raise FloatOverflow("the Frobenius norm of the matrix is beyond half the float range")
    tol = JACOBI_OFF_TOL * norm
    # Skipping elements below elem_tol cannot stall convergence: if every
    # |a[p, q]| <= elem_tol then the off-diagonal norm is already <= tol.
    elem_tol = tol / math.sqrt(n * (n - 1)) if n > 1 else tol
    pairs = list(itertools.combinations(range(n), 2))
    a = h.tolist()
    vt = np.eye(n, dtype=complex).tolist()  # row k is eigenvector k

    def off_norm() -> float:
        return math.sqrt(2.0) * math.hypot(*[abs(a[p][q]) for p, q in pairs])

    converged = False
    for _ in range(JACOBI_SWEEP_CAP):
        if off_norm() <= tol:
            converged = True
            break
        for p, q in pairs:
            apq = a[p][q]
            mag = abs(apq)
            if mag > elem_tol:
                t, c, s = _rotation(a[p][p].real, a[q][q].real, apq, mag)
                # rows p, q of R^H a; off the 2x2 block they are those of R^H a R
                row_p, row_q = _rotate_pair(a[p], a[q], c, s.conjugate())
                row_p[p], row_q[q] = a[p][p].real + t * mag, a[q][q].real - t * mag
                row_p[q] = row_q[p] = 0j
                a[p], a[q] = row_p, row_q
                for row, x, y in zip(a, row_p, row_q):
                    row[p], row[q] = x.conjugate(), y.conjugate()
                vt[p], vt[q] = _rotate_pair(vt[p], vt[q], c, s)
    else:
        converged = off_norm() <= tol
    if not converged:
        raise NoConvergence(
            f"off-diagonal norm {off_norm():.3e} above {tol:.3e} "
            f"after {JACOBI_SWEEP_CAP} sweeps"
        )
    d = np.array([a[k][k].real for k in range(n)])
    order = np.argsort(d, kind="stable")
    return Spectrum(d[order], np.array(vt, dtype=complex)[order].T)


def singular_values(m: np.ndarray) -> list[float]:
    """Singular values of a complex matrix, descending.

    One-sided (Hestenes) Jacobi: cyclic sweeps rotate pairs of columns
    ``x``, ``y`` of ``m`` until each pair is orthogonal to within
    ``JACOBI_OFF_TOL``, ``|x^H y| <= JACOBI_OFF_TOL |x| |y|``; the column
    norms are then the singular values.  A small singular value comes out
    with an error of about machine epsilon times the norm of ``m``.  It
    squares the columns, in range for its one caller's ``tau`` of a unit-trace state.

    Raises ``NoConvergence`` if ``JACOBI_SWEEP_CAP`` sweeps all rotate.
    """
    cols = np.asarray(m, dtype=complex).T.tolist()
    pairs = list(itertools.combinations(range(len(cols)), 2))
    for _ in range(JACOBI_SWEEP_CAP):
        rotated = False
        for p, q in pairs:
            x, y = cols[p], cols[q]
            xx = sum(u.real * u.real + u.imag * u.imag for u in x)
            yy = sum(v.real * v.real + v.imag * v.imag for v in y)
            xy = sum(u.conjugate() * v for u, v in zip(x, y))
            mag = abs(xy)
            if mag > JACOBI_OFF_TOL * math.sqrt(xx) * math.sqrt(yy):
                _, c, s = _rotation(xx, yy, xy, mag)
                cols[p], cols[q] = _rotate_pair(x, y, c, s)
                rotated = True
        if not rotated:
            return sorted((math.hypot(*map(abs, col)) for col in cols), reverse=True)
    raise NoConvergence(
        f"columns not orthogonal to {JACOBI_OFF_TOL:.0e} after {JACOBI_SWEEP_CAP} sweeps")


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
