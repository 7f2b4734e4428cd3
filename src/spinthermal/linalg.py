"""Dense complex linear algebra sized for three-qubit problems.

Matrices are nested lists of Python ``complex``, row by row (2x2 up to
8x8); an input may be any nested sequence of numbers, or an array that
converts to one by its ``tolist()``.  The eigensolver is a cyclic
Jacobi iteration with complex plane rotations: at these sizes it
reaches near machine precision, and every spectral quantity downstream
(Gibbs weights, the factor of the concurrence's density matrix) runs
through it.  It labels the matrix's coupled blocks once, from its
exactly nonzero entries (the symmetry sectors of the ring Hamiltonians,
the 2x2 blocks of an X state), and rotates each block in place.  Its
rotations, and those of the one-sided Jacobi SVD that gives the
concurrence's lambdas, run on the lists themselves, as does
:func:`mixture`, the one weighted sum of projectors, which builds every
density matrix and the PSD square root.  All functions are pure;
nothing here keeps internal state.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
import sys
from dataclasses import dataclass

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

    ``eigenvalues`` is a list of real values, ascending; ``eigenvectors``
    is the matrix (a list of rows) whose column ``k`` is the unit-norm
    eigenvector paired with ``eigenvalues[k]``.  Ties keep the order
    produced by the solver.
    """

    eigenvalues: list
    eigenvectors: list


def as_rows(m) -> list[list[complex]]:
    """A fresh list of the rows of the matrix ``m``, each a list of ``complex``.

    ``m`` is any nested sequence of numbers, or an array whose ``tolist()`` is one.
    Raises ``ValueError`` where ``m`` is not a list of equally long rows.
    """
    rows = m.tolist() if hasattr(m, "tolist") else m
    try:
        out = [list(map(complex, row)) for row in rows]
    except TypeError:
        raise ValueError("expected a matrix: a sequence of rows of numbers") from None
    if len(set(map(len, out))) > 1:
        raise ValueError("expected a matrix: its rows differ in length")
    return out


def shape(rows: list) -> tuple[int, int]:
    """``(rows, columns)`` of a matrix from :func:`as_rows`."""
    return len(rows), len(rows[0]) if rows else 0


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


def exp_or_inf(x: float) -> float:
    """``math.exp(x)``, saturating to ``inf`` where it overflows."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _moduli(values) -> list[float]:
    """``|z|`` of each of ``values``: ``inf`` where it is beyond the float range,
    where Python's ``abs`` raises ``OverflowError``."""
    return [math.hypot(z.real, z.imag) for z in values]


def check_hermitian(rows: list) -> bool:
    """Raise ``NotHermitian`` unless the matrix ``rows`` (see :func:`as_rows`)
    is square, nonempty, finite and Hermitian; return whether ``m == m^H`` exactly.

    Hermitian means ``max |m - m^H|`` at most ``HERMITICITY_RTOL`` times
    the largest entry magnitude.  An infinite or NaN entry leaves a NaN in
    ``m - m^H``, so ``m == m^H`` passes at once.  Otherwise a modulus
    beyond the float range counts as ``inf``; an ``inf`` in ``m - m^H``
    fails the test unless the largest entry is ``inf`` too.
    """
    n = len(rows)
    if not n or shape(rows) != (n, n):
        raise NotHermitian(f"expected a nonempty square matrix, got shape {shape(rows)}")
    diffs = list(map(operator.sub, itertools.chain.from_iterable(rows),
                     map(complex.conjugate, itertools.chain.from_iterable(zip(*rows)))))
    if not any(diffs):
        return True
    moduli = _moduli(itertools.chain.from_iterable(rows))
    if not math.isfinite(sum(moduli)):  # a NaN hides from max()
        if not all(map(cmath.isfinite, itertools.chain.from_iterable(rows))):
            raise NotHermitian("matrix has non-finite entries")
    dev = max(_moduli(diffs))
    if dev > HERMITICITY_RTOL * max(max(moduli), sys.float_info.min):
        raise NotHermitian(f"max |m - m^H| = {dev:.3e} exceeds tolerance")
    return False


def hermitian_part(rows: list) -> list[list[complex]]:
    """``(m + m^H) / 2`` of a square matrix (see :func:`as_rows`), as fresh rows."""
    return [[(x + y.conjugate()) / 2.0 for x, y in zip(row, col)]
            for row, col in zip(rows, zip(*rows))]


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


def jacobi_eigen(a: list) -> tuple[list[float], list[list[complex]]]:
    """Eigenvalues, ascending, and eigenvectors (a list of them, each a row) of
    the exactly Hermitian matrix ``a``, a list of rows of ``complex`` that the
    solve consumes; the kernel behind :func:`hermitian_eigen`, which
    documents it and its errors.  Callers that built ``a`` exactly
    Hermitian call it directly, with no check.
    """
    n = len(a)
    try:  # hypot squares nothing; only a modulus beyond the float range raises
        norm = math.hypot(*map(abs, itertools.chain.from_iterable(a)))
    except OverflowError:
        norm = math.inf
    if not math.isfinite(2.0 * norm):  # bounds every aqq - app and 2 |apq| of a rotation
        raise FloatOverflow("the Frobenius norm of the matrix is beyond half the float range")
    tol = JACOBI_OFF_TOL * norm
    # Skipping elements below elem_tol cannot stall convergence: if every
    # |a[p, q]| <= elem_tol then the off-diagonal norm is already <= tol.
    elem_tol = tol / math.sqrt(n * (n - 1)) if n > 1 else tol
    # the coupled blocks: each index labelled by the least index a chain of nonzero entries reaches
    label = list(range(n))
    for p, q in itertools.combinations(range(n), 2):
        if a[p][q] and label[p] != label[q]:
            lo, hi = sorted((label[p], label[q]))
            label = [lo if b == hi else b for b in label]
    blocks = [[k for k in range(n) if label[k] == b] for b in sorted(set(label))]
    # each in-block pair (p, q), with the rest of its block and the block
    pairs = [(p, q, [k for k in block if k != p and k != q], block)
             for block in blocks for p, q in itertools.combinations(block, 2)]
    vt = [[0j] * k + [1 + 0j] + [0j] * (n - 1 - k) for k in range(n)]  # row k: eigenvector k

    def off_norm() -> float:  # entries off every block stay exactly 0
        return math.sqrt(2.0) * math.hypot(*[abs(a[p][q]) for p, q, _, _ in pairs])

    converged = False
    for _ in range(JACOBI_SWEEP_CAP):
        if off_norm() <= tol:
            converged = True
            break
        for p, q, rest, block in pairs:
            row_p, row_q = a[p], a[q]
            apq = row_p[q]
            mag = abs(apq)
            if mag > elem_tol:
                t, c, s = _rotation(row_p[p].real, row_q[q].real, apq, mag)
                sc = s.conjugate()
                # rows p, q of R^H a R in place, mirrored into columns p, q
                for k in rest:
                    u, v = row_p[k], row_q[k]
                    row_p[k] = x = c * u + s * v
                    row_q[k] = y = c * v - sc * u
                    a[k][p], a[k][q] = x.conjugate(), y.conjugate()
                row_p[p], row_q[q] = row_p[p].real + t * mag, row_q[q].real - t * mag
                row_p[q], row_q[p] = (0j).conjugate(), 0j  # row q's 0j, mirrored into row p
                vp, vq = vt[p], vt[q]
                for k in block:
                    u, v = vp[k], vq[k]
                    vp[k], vq[k] = c * u + sc * v, c * v - s * u
    else:
        converged = off_norm() <= tol
    if not converged:
        raise NoConvergence(
            f"off-diagonal norm {off_norm():.3e} above {tol:.3e} "
            f"after {JACOBI_SWEEP_CAP} sweeps"
        )
    d = [a[k][k].real for k in range(n)]
    order = sorted(range(n), key=d.__getitem__)  # stable: ties keep the solver's order
    return [d[k] for k in order], [vt[k] for k in order]


def hermitian_eigen(m) -> Spectrum:
    """Eigendecomposition of a Hermitian matrix by cyclic Jacobi rotations.

    ``m`` is a square matrix (see :func:`as_rows`), checked by
    :func:`check_hermitian`.  The solve takes ``(m + m^H) / 2``, which is
    ``m`` where ``m`` is exactly Hermitian.  Sweeps run until the
    off-diagonal Frobenius norm drops below ``JACOBI_OFF_TOL`` times the
    norm of the input, capped at ``JACOBI_SWEEP_CAP`` sweeps; both norms
    are ``math.hypot`` of moduli, which squares nothing, and the zero
    matrix converges at once.  The solve first labels the coupled blocks:
    indices joined by a chain of exactly nonzero entries.  Every sweep then
    rotates the pairs of each block, in lexicographic order, in place on
    Python ``complex`` lists: a rotation rewrites rows ``p`` and ``q`` of
    the matrix over their block's indices and fills its columns ``p`` and
    ``q`` by conjugation, so it stays exactly Hermitian, and rotates
    columns ``p`` and ``q`` of the eigenvectors as rows of their
    transpose.  Entries off every block are never written, so they stay
    exactly 0; a dense matrix is one block.

    Raises
    ------
    NotHermitian
        If ``m`` is not a nonempty square matrix of numbers, or
        :func:`check_hermitian` rejects it.
    FloatOverflow
        If twice the Frobenius norm of the input is beyond the float
        range, where a rotation's ``aqq - app`` or ``2 |apq|`` could overflow.
    NoConvergence
        If the sweep cap is reached with the off-diagonal norm still
        above threshold.
    """
    try:
        h = as_rows(m)
    except ValueError as exc:
        raise NotHermitian(str(exc)) from None
    if not check_hermitian(h):
        h = hermitian_part(h)
    values, vectors = jacobi_eigen(h)
    return Spectrum(values, [list(row) for row in zip(*vectors)])


def singular_values(m) -> list[float]:
    """Singular values of a complex matrix (see :func:`as_rows`), descending.

    One-sided (Hestenes) Jacobi: cyclic sweeps rotate pairs of columns
    ``x``, ``y`` of ``m`` until each pair is orthogonal to within
    ``JACOBI_OFF_TOL``, ``|x^H y| <= JACOBI_OFF_TOL |x| |y|``; the column
    norms are then the singular values.  A small singular value comes out
    with an error of about machine epsilon times the norm of ``m``.  It
    squares the columns, in range for its one caller's ``tau`` of a unit-trace state.

    Raises ``NoConvergence`` if ``JACOBI_SWEEP_CAP`` sweeps all rotate.
    """
    def squared_norm(col: list) -> float:
        return sum([u.real * u.real + u.imag * u.imag for u in col])

    cols = [list(col) for col in zip(*as_rows(m))]
    norms = list(map(squared_norm, cols))  # kept with their columns
    pairs = list(itertools.combinations(range(len(cols)), 2))
    for _ in range(JACOBI_SWEEP_CAP):
        rotated = False
        for p, q in pairs:
            x, y = cols[p], cols[q]
            xx, yy = norms[p], norms[q]
            xy = sum(map(operator.mul, map(complex.conjugate, x), y))
            mag = abs(xy)
            if mag > JACOBI_OFF_TOL * math.sqrt(xx) * math.sqrt(yy):
                _, c, s = _rotation(xx, yy, xy, mag)
                cols[p], cols[q] = _rotate_pair(x, y, c, s)
                norms[p], norms[q] = squared_norm(cols[p]), squared_norm(cols[q])
                rotated = True
        if not rotated:
            return sorted((math.hypot(*map(abs, col)) for col in cols), reverse=True)
    raise NoConvergence(
        f"columns not orthogonal to {JACOBI_OFF_TOL:.0e} after {JACOBI_SWEEP_CAP} sweeps")


def mixture(weights: list, vectors: list) -> list[list[complex]]:
    """``sum_k weights[k] v_k v_k^H`` over the vectors ``v_k``, exactly Hermitian.

    Each ``v_k`` of nonzero weight adds its products over its nonzero
    entries (a zero entry adds nothing) to the upper triangle; the lower
    triangle is its conjugate and the diagonal is real.
    """
    n = len(vectors[0])
    rho = [[0j] * n for _ in range(n)]
    for w, v in zip(weights, vectors):
        if w:
            support = [(i, x) for i, x in enumerate(v) if x]
            for a, (i, x) in enumerate(support):
                wx, row = w * x, rho[i]
                for j, y in support[a:]:
                    row[j] += wx * y.conjugate()
    for i, row in enumerate(rho):
        row[i] = complex(row[i].real)
        for j in range(i + 1, n):
            rho[j][i] = row[j].conjugate()
    return rho


def psd_sqrt(m) -> list[list[complex]]:
    """Hermitian square root ``sum_k sqrt(d_k) v_k v_k^H`` of a positive-semidefinite
    matrix (see :func:`as_rows`) over its eigenpairs, by :func:`mixture`.

    Eigenvalues in ``[PSD_FLOOR, 0)`` are treated as roundoff and clamped
    to zero; anything below the floor raises ``NotPSD``.
    """
    spectrum = hermitian_eigen(m)
    lowest = spectrum.eigenvalues[0]
    if lowest < PSD_FLOOR:
        raise NotPSD(f"eigenvalue {lowest:.3e} below {PSD_FLOOR:.0e}")
    return mixture([math.sqrt(max(d, 0.0)) for d in spectrum.eigenvalues],
                   list(zip(*spectrum.eigenvectors)))
