"""Three-qubit Heisenberg ring Hamiltonians and their symmetry structure.

Basis conventions, fixed and not configurable:

* the basis state ``|q1 q2 q3>`` maps to index ``4*q1 + 2*q2 + q3``
  (qubit 1 is the most significant bit);
* ``sigma^z |1> = +|1>`` and ``sigma^z |0> = -|0>``, so a uniform field
  ``B * sum_n sigma_n^z`` gives ``|000>`` the energy ``-3B``.

Couplings follow the standard ring form: ``J/2`` on each ``xx + yy``
bond, ``Delta*J/2`` on each ``(zz - 1)`` bond, with periodic boundary
(site 4 is site 1).  Positive ``J`` is the antiferromagnetic side,
negative ``J`` the ferromagnetic side.  All four uniform models share
one eigenbasis because the anisotropy and field terms commute with the
hopping term; :func:`analytic_eigenstates` returns it explicitly so the
numerics can be checked against exact expressions.  Matrices and
vectors are lists of ``complex``, a matrix row by row.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

from .errors import FloatOverflow, UnsupportedModel

#: The model variants and the coupling fields each needs; others stay ``None``.
REQUIRED_FIELDS = {
    "xx": ("J",),
    "xxz": ("J", "delta"),
    "xxzfield": ("J", "delta", "B"),
    "xyz": ("J1", "J2", "J3", "B1", "B2", "B3"),
}

#: Single-qubit operators as rows in the basis (|0>, |1>).
IDENTITY_2 = ((1 + 0j, 0j), (0j, 1 + 0j))
SIGMA_X = ((0j, 1 + 0j), (1 + 0j, 0j))
SIGMA_Y = ((0j, 1j), (-1j, 0j))
SIGMA_Z = ((-1 + 0j, 0j), (0j, 1 + 0j))

_AXIS_TABLE = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}

# Primitive cube root of unity; the phase carried by the translation
# eigenstates of the ring.
Q = complex(-0.5, math.sqrt(3.0) / 2.0)

# Cyclic-shift eigenphase of each analytic eigenstate, in state order.
# States 0, 3, 6, 7 are fully symmetric; the two chiral pairs pick up
# conjugate phases (states 1 and 4 share Q, states 2 and 5 share Q**2).
SHIFT_PHASES = (1.0 + 0.0j, Q, Q * Q, 1.0 + 0.0j, Q, Q * Q, 1.0 + 0.0j, 1.0 + 0.0j)

#: The six levels of the uniform models as analytic_eigenstates() indices: |000>,
#: the chiral and symmetric single excitations, the same doubly excited, |111>.
LEVELS = ((0,), (1, 2), (3,), (4, 5), (6,), (7,))

_RING_BONDS = ((1, 2), (2, 3), (3, 1))


def basis_index(q1: int, q2: int, q3: int) -> int:
    """Index of ``|q1 q2 q3>`` in the computational basis."""
    return 4 * q1 + 2 * q2 + q3


@dataclass(frozen=True)
class ModelSpec:
    """Which Hamiltonian to build, with its couplings.

    Fields that do not belong to the chosen ``variant`` (its
    :data:`REQUIRED_FIELDS`) stay ``None``; one set anyway is ignored, by
    the Hamiltonian and the closed forms alike, and is not a sweep axis.
    Use the classmethod constructors rather than filling fields by hand.
    """

    variant: str
    J: float | None = None
    delta: float | None = None
    B: float | None = None
    J1: float | None = None
    J2: float | None = None
    J3: float | None = None
    B1: float | None = None
    B2: float | None = None
    B3: float | None = None

    def __post_init__(self) -> None:
        if self.variant not in REQUIRED_FIELDS:
            raise ValueError(f"unknown model variant {self.variant!r}")
        for name in REQUIRED_FIELDS[self.variant]:
            value = getattr(self, name)
            if value is None:
                raise ValueError(f"variant {self.variant!r} requires field {name!r}")
            if not math.isfinite(value):
                raise ValueError(f"field {name!r} must be finite, got {value!r}")

    @classmethod
    def xx(cls, J: float) -> "ModelSpec":
        return cls("xx", J=float(J))

    @classmethod
    def xxz(cls, J: float, delta: float) -> "ModelSpec":
        return cls("xxz", J=float(J), delta=float(delta))

    @classmethod
    def xxz_field(cls, J: float, delta: float, B: float) -> "ModelSpec":
        return cls("xxzfield", J=float(J), delta=float(delta), B=float(B))

    @classmethod
    def general_xyz(
        cls,
        J1: float,
        J2: float,
        J3: float,
        B1: float = 0.0,
        B2: float = 0.0,
        B3: float = 0.0,
    ) -> "ModelSpec":
        return cls(
            "xyz",
            J1=float(J1),
            J2=float(J2),
            J3=float(J3),
            B1=float(B1),
            B2=float(B2),
            B3=float(B3),
        )

    def closed_form_params(self) -> tuple[float, float, float]:
        """Effective ``(J, delta, B)`` for the models with closed forms.

        A uniform field the variant lacks is 0.0 (the XX model is delta = 0,
        the field-free models are B = 0); one set outside the variant's
        :data:`REQUIRED_FIELDS` is ignored.  Raises ``UnsupportedModel`` for
        the general XYZ variant.
        """
        if self.variant == "xyz":
            raise UnsupportedModel("no closed form for the general XYZ model")
        fields = REQUIRED_FIELDS[self.variant]
        return tuple(float(getattr(self, name)) if name in fields else 0.0
                     for name in ("J", "delta", "B"))


def _operator(factors: dict) -> dict:
    """Nonzero entries ``{(row, column): value}`` of the product of the
    single-qubit operators ``{site: table}`` on distinct sites, the identity
    on the others: entry ``(r, s)`` is the product over sites of
    ``table[bit of r][bit of s]``."""
    entries = {}
    for r, s in itertools.product(range(8), repeat=2):
        value = 1 + 0j
        for site in (1, 2, 3):
            shift = 3 - site
            value *= factors.get(site, IDENTITY_2)[(r >> shift) & 1][(s >> shift) & 1]
        if value:
            entries[r, s] = value
    return entries


def _term(*operators: dict) -> tuple:
    """The sum of ``operators`` as its nonzero ``(row, column, value)`` entries,
    each value a float where it is real."""
    total: dict = {}
    for op in operators:
        for key, value in op.items():
            total[key] = total.get(key, 0) + value
    return tuple((r, s, value if value.imag else value.real)
                 for (r, s), value in sorted(total.items()) if value)


# Fixed terms of H, as sparse tables: per ring bond (in _RING_BONDS order) its
# xx, yy, zz products, and the z operator of each site.
_BOND_PRODUCTS = tuple(tuple(_operator({n: _AXIS_TABLE[axis], m: _AXIS_TABLE[axis]})
                             for axis in "xyz") for n, m in _RING_BONDS)
_SITE_Z = tuple(_term(_operator({n: SIGMA_Z})) for n in (1, 2, 3))
_MINUS_ONE = {(i, i): -1 + 0j for i in range(8)}

# H as (index into the coefficients, term) pairs, in summation order: the uniform
# models' hopping xx + yy and anisotropy zz - 1 bond by bond, then the field site by site.
_UNIFORM_TERMS = (tuple(t for xx, yy, zz in _BOND_PRODUCTS
                        for t in ((0, _term(xx, yy)), (1, _term(zz, _MINUS_ONE))))
                  + tuple((2, z) for z in _SITE_Z))
_XYZ_TERMS = (tuple(t for bond in _BOND_PRODUCTS for t in enumerate(map(_term, bond)))
              + tuple(enumerate(_SITE_Z, 3)))


def build_hamiltonian(spec: ModelSpec) -> list[list[complex]]:
    """8x8 Hamiltonian of the requested ring model, as a list of rows of ``complex``.

    Prefactors are kept exactly as defined for each variant (``J/2`` on
    ``xx + yy``, ``delta*J/2`` on ``zz - 1``, ``J_a/2`` per axis for the
    general model) so the exact energy expressions hold digit for digit.
    The bond and site terms are sparse tables built once at import from
    the qubits' bits; each call scales their nonzero entries and adds
    them bond by bond, then site by site, skipping zero coefficients (no
    entry is ever -0, so a zero term changes no bit).  The result is
    exactly Hermitian.  A scaled coupling or an entry beyond the float
    range raises ``FloatOverflow``.
    """
    if spec.variant == "xyz":
        coefs = (spec.J1 / 2.0, spec.J2 / 2.0, spec.J3 / 2.0, spec.B1, spec.B2, spec.B3)
        terms = _XYZ_TERMS
    else:
        J, delta, B = spec.closed_form_params()
        coefs, terms = (J / 2.0, delta * J / 2.0, B), _UNIFORM_TERMS
    h = [[0j] * 8 for _ in range(8)]
    for k, entries in terms:
        coef = coefs[k]
        if coef:
            for r, s, value in entries:
                h[r][s] += coef * value
    if not all(map(cmath.isfinite, itertools.chain.from_iterable(h))):
        raise FloatOverflow("a coupling or an entry of the Hamiltonian is beyond the float range")
    return h


def cyclic_shift() -> list[list[complex]]:
    """Permutation matrix of the ring rotation ``|ijk> -> |kij>``."""
    p = [[0j] * 8 for _ in range(8)]
    for i, j, k in itertools.product((0, 1), repeat=3):
        p[basis_index(k, i, j)][basis_index(i, j, k)] = 1 + 0j
    return p


def analytic_eigenstates() -> list[list[complex]]:
    """The eight exact eigenstates shared by all uniform ring models.

    State 0 is ``|000>`` and state 7 is ``|111>``; states 1..3 live in
    the single-excitation sector and 4..6 in the double-excitation
    sector, each sector holding one symmetric combination and two
    chiral ones weighted by powers of :data:`Q`.  All are unit vectors
    and pairwise orthonormal.
    """
    s = 1.0 / math.sqrt(3.0)
    q, q2 = Q, Q * Q
    states = [[0j] * 8 for _ in range(8)]
    states[0][basis_index(0, 0, 0)] = states[7][basis_index(1, 1, 1)] = 1 + 0j
    for first, sector in ((1, ((0, 0, 1), (0, 1, 0), (1, 0, 0))),
                          (4, ((1, 1, 0), (1, 0, 1), (0, 1, 1)))):
        for k, phases in enumerate(((q, q2, 1.0), (q2, q, 1.0), (1.0, 1.0, 1.0)), first):
            for bits, phase in zip(sector, phases):
                states[k][basis_index(*bits)] = complex(s * phase)
    return states


def level_energies(J: float, delta: float, B: float) -> tuple[float, ...]:
    """Exact energies of the six :data:`LEVELS` at closed-form parameters."""
    e_single = -2.0 * J * (delta + 0.5)
    e_symmetric = -2.0 * J * (delta - 1.0)
    return (-3.0 * B, e_single - B, e_symmetric - B,
            e_single + B, e_symmetric + B, 3.0 * B)


def analytic_energies(spec: ModelSpec) -> list[float]:
    """Exact energies of the eight analytic eigenstates, in state order.

    Only the uniform models have a closed spectrum here; the general XYZ
    variant raises ``UnsupportedModel`` (from ``closed_form_params``).
    """
    levels = level_energies(*spec.closed_form_params())
    return [levels[n] for n, states in enumerate(LEVELS) for _ in states]
