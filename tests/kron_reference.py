"""Numpy reference builds of the ring's operators, for the tests.

``kron``, ``pauli`` and ``spin_flip`` form operators from Kronecker
products of the single-qubit matrices, as textbooks write them.  The
package builds the same operators without numpy, from sparse tables and
lists of ``complex``; the tests compare those builds against these, bit
for bit where they say so.  No ``test_`` prefix, so pytest does not
collect this module.
"""

import numpy as np

from spinthermal.spinmodel import IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z

_AXES = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}


def kron(a, b):
    """Kronecker product as a numpy array; block (i, j) of the result is ``a[i, j] * b``."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def pauli(site: int, axis: str):
    """Single-site operator embedded in the three-qubit space, as a numpy array.

    ``axis`` is one of ``x``, ``y``, ``z``; ``site`` counts from 1.
    """
    if site not in (1, 2, 3):
        raise ValueError(f"site must be 1, 2 or 3, got {site}")
    if axis not in _AXES:
        raise ValueError(f"axis must be one of x, y, z; got {axis!r}")
    factors = [IDENTITY_2] * 3
    factors[site - 1] = _AXES[axis]
    return kron(kron(factors[0], factors[1]), factors[2])


def spin_flip(rho):
    """The tilde transform ``(sy x sy) conj(rho) (sy x sy)`` of a 4x4 matrix
    (or of one held as ``.mat``), as a numpy array."""
    flip = kron(SIGMA_Y, SIGMA_Y)
    return flip @ np.asarray(getattr(rho, "mat", rho), dtype=complex).conj() @ flip
