"""Pauli algebra and Bloch-ball primitives for a single qubit.

A qubit density matrix is parametrized by a real 3-vector r in the closed
unit ball, rho(r) = (I + r . sigma) / 2. Evolution under a fixed-axis
Hamiltonian H = omega0 * (n . sigma), optionally shifted by +omega0 * I to
make the spectrum nonnegative, rotates r about n at angular speed
2 * omega0. hbar = 1 everywhere; omega0 carries units of inverse time.

All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import NormViolation

__all__ = [
    "NORM_EPS",
    "RATE_LIMIT",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "PAULI",
    "ID2",
    "HamiltonianSpec",
    "SLDResult",
    "as_bloch",
    "bloch_to_density",
    "check_density",
    "density_to_bloch",
    "evolve_bloch",
    "evolve_density",
    "p_err",
    "p_err_bloch",
    "pure_state_bloch",
    "qfi",
    "sld",
    "unitary",
]

NORM_EPS = 1e-12
# Rates (omega0, a cavity's g) lie in [1 / RATE_LIMIT, RATE_LIMIT], so every
# time, bound and Fisher information derived from them is a finite float.
RATE_LIMIT = 1e100

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI = np.stack([SIGMA_X, SIGMA_Y, SIGMA_Z])
ID2 = np.eye(2, dtype=complex)


def _rate(value, name: str) -> float:
    """A rate in [1 / RATE_LIMIT, RATE_LIMIT], as float."""
    x = float(value)
    if not 1.0 / RATE_LIMIT <= x <= RATE_LIMIT:  # NaN fails too
        raise ValueError(
            f"{name} must be finite and lie in [{1.0 / RATE_LIMIT:g}, {RATE_LIMIT:g}], got {x!r}")
    return x


def as_bloch(r) -> np.ndarray:
    """Validate r as a real 3-vector inside the closed unit ball."""
    vec = np.asarray(r, dtype=float)
    if vec.shape != (3,):
        raise ValueError(f"Bloch vector must have shape (3,), got {vec.shape}")
    norm = float(np.linalg.norm(vec))
    if not norm <= 1.0 + NORM_EPS:
        if norm != norm:  # a NaN entry
            raise ValueError(f"Bloch vector must be finite, got {vec.tolist()}")
        raise NormViolation(f"Bloch vector norm {norm:.17g} exceeds 1")
    return vec


@dataclass(frozen=True, eq=False)
class HamiltonianSpec:
    """Fixed rotation axis (unit 3-vector), rate omega0 (see RATE_LIMIT), optional +I shift.

    The shift adds omega0 * I so the spectrum is {0, 2 * omega0}. It only
    contributes a global phase to the dynamics but is required by the
    mean-energy (Margolus-Levitin) bound.
    """

    axis: np.ndarray
    omega0: float = 1.0
    identity_shift: bool = False

    def __post_init__(self):
        axis = np.asarray(self.axis, dtype=float)
        if axis.shape != (3,):
            raise ValueError("axis must be a 3-vector")
        if not abs(np.linalg.norm(axis) - 1.0) <= NORM_EPS:  # NaN fails too
            raise ValueError("axis must be a finite unit vector; see from_axis()")
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "omega0", _rate(self.omega0, "omega0"))

    @classmethod
    def from_axis(cls, axis, omega0: float = 1.0, identity_shift: bool = False):
        """Build a spec from a not-necessarily-normalized axis."""
        vec = np.asarray(axis, dtype=float)
        norm = np.linalg.norm(vec)
        if not 0.0 < norm < math.inf:
            raise ValueError(f"axis must be nonzero and finite, got {vec.tolist()}")
        return cls(vec / norm, omega0, identity_shift)

    def matrix(self) -> np.ndarray:
        """2x2 matrix omega0 * (n . sigma [+ I])."""
        h = self.omega0 * np.einsum("i,ijk->jk", self.axis, PAULI)
        if self.identity_shift:
            h = h + self.omega0 * ID2
        return h


def bloch_to_density(r) -> np.ndarray:
    """Density matrix (I + r . sigma) / 2."""
    vec = as_bloch(r)
    return 0.5 * (ID2 + np.einsum("i,ijk->jk", vec, PAULI))


def check_density(rho, tol: float = NORM_EPS) -> np.ndarray:
    """Validate a finite 2x2 density matrix (Hermitian, unit trace, PSD)."""
    mat = np.asarray(rho, dtype=complex)
    if mat.shape != (2, 2):
        raise ValueError("density matrix must be 2x2")
    a, b, c, d = mat.ravel().tolist()
    if not all(map(cmath.isfinite, (a, b, c, d))):
        raise ValueError("density matrix must be finite")
    # each test is written so that a NaN fails it
    if not (2.0 * abs(a.imag) <= tol and 2.0 * abs(d.imag) <= tol
            and abs(b - c.conjugate()) <= tol):
        raise ValueError("density matrix must be Hermitian")
    tr = a + d
    if not abs(tr - 1.0) <= tol:
        raise ValueError(f"density matrix must have unit trace, got {tr}")
    # smallest eigenvalue in closed form, from the lower triangle as eigvalsh reads it
    if not 0.5 * (a.real + d.real - math.hypot(a.real - d.real, 2.0 * abs(c))) >= -tol:
        raise ValueError("density matrix must be positive semidefinite")
    return mat


def density_to_bloch(rho) -> np.ndarray:
    """Bloch vector (tr(rho sigma_x), tr(rho sigma_y), tr(rho sigma_z))."""
    mat = check_density(rho)
    return np.array(
        [
            2.0 * mat[0, 1].real,
            -2.0 * mat[0, 1].imag,
            (mat[0, 0] - mat[1, 1]).real,
        ]
    )


def _unit_state(psi) -> np.ndarray:
    """A 2-component state vector normalized within 1e-10, renormalized exactly."""
    vec = np.asarray(psi, dtype=complex)
    if vec.shape != (2,):
        raise ValueError("state vector must have 2 components")
    norm = float(np.linalg.norm(vec))
    if not abs(norm - 1.0) <= 1e-10:  # NaN fails too
        raise ValueError("state vector must be finite and normalized")
    return vec / norm


def pure_state_bloch(psi) -> np.ndarray:
    """Bloch vector of a normalized 2-component state vector."""
    vec = _unit_state(psi)
    off = vec[0] * np.conj(vec[1])
    return np.array(
        [2.0 * off.real, -2.0 * off.imag, abs(vec[0]) ** 2 - abs(vec[1]) ** 2]
    )


def p_err(rho, sigma) -> float:
    """Helstrom minimum error probability 1/2 - ||rho - sigma||_1 / 4.

    The trace norm is evaluated from the eigenvalues of the Hermitian
    difference. Symmetric in its arguments; 1/2 iff the states coincide,
    0 iff they are orthogonal pure states.
    """
    a = check_density(rho)
    b = check_density(sigma)
    eigs = np.linalg.eigvalsh(a - b)
    return float(np.clip(0.5 - 0.25 * np.sum(np.abs(eigs)), 0.0, 0.5))


def p_err_bloch(r1, r2) -> float:
    """p_err via the qubit identity ||rho - sigma||_1 = |r1 - r2|."""
    d = float(np.linalg.norm(as_bloch(r1) - as_bloch(r2)))
    return max(0.0, min(0.5, 0.5 - 0.25 * d))  # d is finite: as_bloch checked both


def unitary(ham: HamiltonianSpec, t: float) -> np.ndarray:
    """Closed-form propagator exp(-i H t)."""
    angle = ham.omega0 * t
    n_sigma = np.einsum("i,ijk->jk", ham.axis, PAULI)
    u = np.cos(angle) * ID2 - 1j * np.sin(angle) * n_sigma
    if ham.identity_shift:
        u = np.exp(-1j * angle) * u
    return u


def evolve_bloch(r, ham: HamiltonianSpec, t: float) -> np.ndarray:
    """Bloch vector after evolving for time t.

    The orbit is the right-handed rotation about the axis by 2*omega0*t:

        r(t) = cos(2wt) r - sin(2wt) (r x n) + 2 sin(wt)^2 (n . r) n

    Norm and the component perpendicular to the axis are conserved. The
    identity shift is a global phase and has no effect here.
    """
    vec = as_bloch(r)
    n = ham.axis
    phi = 2.0 * ham.omega0 * t
    return (
        np.cos(phi) * vec
        - np.sin(phi) * _cross(vec, n)
        + (1.0 - np.cos(phi)) * np.dot(n, vec) * n
    )


def evolve_density(rho, ham: HamiltonianSpec, t: float) -> np.ndarray:
    """Conjugate rho by the propagator. Matrix-level cross-check path."""
    mat = check_density(rho)
    u = unitary(ham, t)
    return u @ mat @ u.conj().T


@dataclass(frozen=True, eq=False)
class SLDResult:
    """Direction vector of the symmetric logarithmic derivative, plus QFI.

    L = v . sigma solves (L rho + rho L) / 2 = -i [H, rho]; fisher equals
    tr(L^2 rho) = |v|^2, so the operator norm of L is sqrt(fisher).
    """

    v: np.ndarray
    fisher: float


def _cross(a, b):
    """a x b for 3-vectors or (N, 3) stacks, in either order; numpy's bits.

    Each component is two products and their difference, each rounded on
    its own, as numpy's cross computes them, without the axis bookkeeping
    that is most of numpy's cost on one vector. Two vectors go through
    Python floats, anything else through columns.
    """
    if a.ndim == 1 and b.ndim == 1:
        a0, a1, a2 = a.tolist()
        b0, b1, b2 = b.tolist()
        return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


def _perp(axis, r):
    """n x r and the orbit radius |n x r|, for one r or an (N, 3) stack.

    np.linalg.norm rounds one vector (BLAS dot) and the rows of a stack (a
    plain sum) apart in the last bit; each keeps what qsl and scan print.
    """
    x = _cross(axis, r)
    return x, np.linalg.norm(x, axis=None if x.ndim == 1 else -1)


def _fisher(s, omega0):
    """QFI of an orbit of radius s = |n x r| at rate omega0; floats or arrays.

    A float squares through pow and an array by multiplication; the two
    can differ in the last bit, and each keeps what qsl and scan print.
    """
    return 4.0 * (omega0 * s) ** 2


def sld(r, ham: HamiltonianSpec) -> SLDResult:
    """SLD of the orbit through r: v = 2*omega0*(n x r), F = |v|^2.

    Both are constant along the orbit since the rotation preserves
    |n x r|. The zero vector is a legal result for states that commute
    with the Hamiltonian.
    """
    perp, s = _perp(ham.axis, as_bloch(r))
    return SLDResult(v=2.0 * ham.omega0 * perp, fisher=float(_fisher(s, ham.omega0)))


def qfi(r, ham: HamiltonianSpec) -> float:
    """Quantum Fisher information F = 4 * omega0^2 * |n x r|^2; sld's bits, no SLD."""
    return float(_fisher(_perp(ham.axis, as_bloch(r))[1], ham.omega0))
