"""Pauli algebra and Bloch-ball primitives for a single qubit.

A qubit density matrix is parametrized by a real 3-vector r in the closed
unit ball, rho(r) = (I + r . sigma) / 2. Evolution under a fixed-axis
Hamiltonian H = omega0 * (n . sigma), optionally shifted by +omega0 * I to
make the spectrum nonnegative, rotates r about n at angular speed
2 * omega0. hbar = 1 everywhere; omega0 carries units of inverse time.

All functions are pure and safe to call concurrently. One-vector arithmetic
runs on Python floats, which round each operation as numpy does; math.sin and
math.cos give np.sin's and np.cos's bits. numpy stays where its bits differ:
every norm and every n . r is a BLAS dot (_vec_norm), arcsin and arctan2 are
np.arcsin and np.arctan2, and complex products are numpy's.
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


# what float() and complex() read but no number is: text, and a flag
_NOT_NUMBERS = (str, bytes, bytearray, bool, np.bool_)


def _real(value, name: str, lo: float = -math.inf, hi: float = math.inf) -> float:
    """value as a finite float in [lo, hi], else a ValueError naming it; no numpy call."""
    try:
        if isinstance(value, _NOT_NUMBERS):
            raise TypeError
        x = float(value)
    except OverflowError:  # an integer no float holds
        raise ValueError(f"{name} must be finite, got {len(str(value))} digits") from None
    except (TypeError, ValueError):  # None, text, a sequence
        raise ValueError(f"{name} must be a number, got {value!r}") from None
    if not (lo <= x <= hi and math.isfinite(x)):  # NaN fails too
        where = "" if lo == -math.inf and hi == math.inf else f" and lie in [{lo:g}, {hi:g}]"
        raise ValueError(f"{name} must be finite{where}, got {x!r}")
    return x


def _integer(value, name: str, lo: float, hi: float = math.inf) -> int:
    """value as an int in [lo, hi]: 3 and 3.0 pass, 2.5 is a ValueError naming it."""
    x = _real(value, name, lo, hi)
    if not x.is_integer():
        raise ValueError(f"{name} must be an integer, got {x!r}")
    return int(x)


def _flag(value, name: str) -> bool:
    """value as a bool: only True, False or a numpy bool pass, else a ValueError naming it."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be True or False, got {value!r}")
    return bool(value)


def _complex(value, name: str) -> complex:
    """value as a complex with a finite |value|^2, else a ValueError naming it."""
    if isinstance(value, _NOT_NUMBERS):
        raise ValueError(f"{name} must be a number, got {value!r}")
    arr = _as_float(value, name, complex)
    if arr.ndim:
        raise ValueError(f"{name} must be a number, got an array of shape {arr.shape}")
    z = complex(arr)
    if not z.real * z.real + z.imag * z.imag < math.inf:  # NaN, inf, an overflowing |z|^2
        raise ValueError(f"{name} must be finite (|{name}|^2 too), got {z!r}")
    return z


def _as_float(x, name: str, dtype=float) -> np.ndarray:
    """x as a float (or dtype) array; a non-number or a huge integer is a ValueError naming x."""
    # numpy casts a complex array or numpy scalar to float by dropping its
    # imaginary part, also one inside a list, so a list is first read as it is
    if dtype is float and getattr(getattr(x, "dtype", None), "kind", "") != "f":
        if isinstance(x, (list, tuple)):
            x = _as_float(x, name, None)
        kind = getattr(getattr(x, "dtype", None), "kind", "")
        if kind == "c" or kind == "O" and any(isinstance(v, np.complexfloating) for v in x.flat):
            raise ValueError(f"{name} must be real, got dtype {x.dtype}")
    try:
        return np.asarray(x, dtype=dtype)
    except OverflowError:
        raise ValueError(f"{name} must be finite, got an integer past the float range") from None
    except (TypeError, ValueError) as exc:  # a dict, text, a ragged sequence
        raise ValueError(f"{name} must be numeric: {exc}") from None


def _rate(value, name: str) -> float:
    """A rate in [1 / RATE_LIMIT, RATE_LIMIT], as float."""
    return _real(value, name, 1.0 / RATE_LIMIT, RATE_LIMIT)


def _phase(rate: float, t: float, name: str = "t") -> float:
    """rate * t, or a ValueError naming the time t when that overflows."""
    phase = rate * t
    if not math.isfinite(phase):
        raise ValueError(f"{name} = {t!r} overflows the largest phase, {name} * {rate:g}")
    return phase


def _instance(value, cls, name: str):
    """value if it is a cls, else a ValueError naming the parameter."""
    if not isinstance(value, cls):
        raise ValueError(f"{name} must be a {cls.__name__}, got {type(value).__name__}")
    return value


def _as_vec3(value, name: str):
    """value as a float 3-vector, its entries as floats and its length (math.hypot: no
    overflow, no warning). A native float64 (3,) ndarray is taken as it is, else _as_float's."""
    if not (type(value) is np.ndarray and value.dtype == float and value.shape == (3,)):
        value = _as_float(value, name)
        if value.shape != (3,):
            raise ValueError(f"{name} must have shape (3,), got {value.shape}")
    xyz = value.tolist()
    return value, xyz, math.hypot(*xyz)


def _vec_norm(v: np.ndarray) -> float:
    """np.linalg.norm(v) of a real vector by its formula, without its dispatch: the square
    root of the BLAS dot of v raveled, whose last bit depends on the kernel."""
    v = v.ravel()
    return math.sqrt(v.dot(v))


def _bloch(r):
    """as_bloch's vector and its entries as floats."""
    vec, xyz, norm = _as_vec3(r, "Bloch vector")
    if not norm <= 1.0 + NORM_EPS:
        if norm != norm:  # a NaN entry
            raise ValueError(f"Bloch vector must be finite, got {xyz}")
        raise NormViolation(f"Bloch vector norm {norm:.17g} exceeds 1")
    return vec, xyz


def as_bloch(r) -> np.ndarray:
    """Validate r as a real 3-vector inside the closed unit ball."""
    return _bloch(r)[0]


@dataclass(frozen=True, eq=False, init=False)
class HamiltonianSpec:
    """Fixed rotation axis (unit 3-vector), rate omega0 (see RATE_LIMIT), optional +I shift.

    The shift adds omega0 * I so the spectrum is {0, 2 * omega0}. It only
    contributes a global phase to the dynamics but is required by the
    mean-energy (Margolus-Levitin) bound.
    """

    axis: np.ndarray
    omega0: float = 1.0
    identity_shift: bool = False

    def __init__(self, axis, omega0: float = 1.0, identity_shift: bool = False):
        # checks and sets each field once; frozen, so through the instance dict
        axis, _, norm = _as_vec3(axis, "axis")
        if not abs(norm - 1.0) <= NORM_EPS:  # NaN fails too
            raise ValueError("axis must be a finite unit vector; see from_axis()")
        vars(self).update(axis=axis, omega0=_rate(omega0, "omega0"),
                          identity_shift=_flag(identity_shift, "identity_shift"))

    @classmethod
    def from_axis(cls, axis, omega0: float = 1.0, identity_shift: bool = False):
        """Build a spec from a not-necessarily-normalized axis."""
        vec, _, norm = _as_vec3(axis, "axis")
        # within these bounds BLAS's norm, whose bits the axis keeps, cannot overflow
        _real(norm, "axis length", 1.0 / RATE_LIMIT, RATE_LIMIT)
        return cls(vec / _vec_norm(vec), omega0, identity_shift)

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
    mat = _as_float(rho, "density matrix", complex)
    tol = _real(tol, "tol", 0.0)
    if mat.shape != (2, 2):
        raise ValueError("density matrix must be 2x2")
    a, b, c, d = mat.ravel().tolist()
    if not all(map(cmath.isfinite, (a, b, c, d))):
        raise ValueError("density matrix must be finite")
    # each test is written so that a NaN fails it; math.hypot gives inf where abs() raises
    if not (2.0 * abs(a.imag) <= tol and 2.0 * abs(d.imag) <= tol
            and math.hypot(b.real - c.real, b.imag + c.imag) <= tol):
        raise ValueError("density matrix must be Hermitian")
    tr = a + d
    if not abs(tr - 1.0) <= tol:
        raise ValueError(f"density matrix must have unit trace, got {tr}")
    # the smallest eigenvalue from the lower triangle, as eigvalsh reads it
    if not _margins(a.real, c, d.real)[1] >= -tol:
        raise ValueError("density matrix must be positive semidefinite")
    return mat


def _margins(ee, eg, gg):
    """|ee + gg - 1| and the smallest eigenvalue 0.5 (ee + gg - sqrt((ee - gg)^2 + 4 |eg|^2))
    of [[ee, eg], [conj(eg), gg]], elementwise on floats or arrays; the one physicality rule.

    No x ** 2 and no abs() of a complex, which raise OverflowError on floats (abs() also
    after a libm range error): a square past the float range gives an eigenvalue of -inf
    and a NaN stays NaN, which every caller's test refuses. The root is math.sqrt on a
    float, as np.sqrt on an array, both correctly rounded; float ** 0.5 is libm's pow.
    """
    tr, d, x, y = ee + gg, ee - gg, eg.real, eg.imag
    q = d * d + (x * x + y * y) * 4.0
    return abs(tr - 1.0), 0.5 * (tr - (math.sqrt(q) if isinstance(q, float) else np.sqrt(q)))


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
    vec = _as_float(psi, "state vector", complex)
    if vec.shape != (2,):
        raise ValueError("state vector must have 2 components")
    a, b = vec.tolist()
    if not abs(math.hypot(a.real, a.imag, b.real, b.imag) - 1.0) <= 1e-10:  # NaN fails too
        raise ValueError("state vector must be finite and normalized")
    # no overflow at norm 1: np.linalg.norm's complex formula, and numpy's division
    x = vec.ravel()
    return vec / math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))


def pure_state_bloch(psi) -> np.ndarray:
    """Bloch vector of a normalized 2-component state vector."""
    vec = _unit_state(psi)
    off = vec[0] * np.conj(vec[1])
    return np.array(
        [2.0 * off.real, -2.0 * off.imag, abs(vec[0]) ** 2 - abs(vec[1]) ** 2]
    )


def p_err(rho, sigma) -> float:
    """Helstrom minimum error probability 1/2 - ||rho - sigma||_1 / 4.

    The trace norm of a qubit difference is the distance |r_rho - r_sigma|
    of the two Bloch vectors (density_to_bloch), as in p_err_bloch, with
    the same clamp. Symmetric in its arguments; 1/2 iff the states
    coincide, 0 iff they are orthogonal pure states.
    """
    return _helstrom(density_to_bloch(rho) - density_to_bloch(sigma))


def p_err_bloch(r1, r2) -> float:
    """p_err via the qubit identity ||rho - sigma||_1 = |r1 - r2|."""
    return _helstrom(as_bloch(r1) - as_bloch(r2))


def _helstrom(dr: np.ndarray) -> float:
    """1/2 - _vec_norm(dr) / 4, clamped to [0, 1/2] on floats; dr is finite (both ends checked)."""
    return max(0.0, min(0.5, 0.5 - 0.25 * _vec_norm(dr)))


def unitary(ham: HamiltonianSpec, t: float) -> np.ndarray:
    """Closed-form propagator exp(-i H t)."""
    _instance(ham, HamiltonianSpec, "ham")
    angle = _phase(ham.omega0, _real(t, "t"))
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
    vec, r3 = _bloch(r)
    n = _instance(ham, HamiltonianSpec, "ham").axis
    phi = _phase(2.0 * ham.omega0, _real(t, "t"))
    c, s = math.cos(phi), math.sin(phi)  # libm's, as np.cos and np.sin round them
    k = (1.0 - c) * float(n.dot(vec))
    n3 = n.tolist()
    (x, y, z), (u, v, w), (a, b, d) = r3, _cross(r3, n3), n3
    return np.array([c * x - s * u + k * a, c * y - s * v + k * b, c * z - s * w + k * d])


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
    """a x b of two triples, each three floats or three coordinate columns; numpy's bits.

    Columns are arrays, which may broadcast. Each component is two products
    and their difference, each rounded on its own, as numpy's cross computes
    them, without the axis bookkeeping that is most of numpy's cost on one
    vector. Returns the triple as a tuple.
    """
    (a0, a1, a2), (b0, b1, b2) = a, b
    return a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0


def _perp(axis, r):
    """n x r and the orbit radius |n x r|, for one r or for columns.

    One r (floats) gives an array and _vec_norm's float, np.linalg.norm's
    bits (a BLAS dot); columns give columns and sqrt((x*x + y*y) + z*z),
    the plain sum of np.linalg.norm(axis=-1). The two differ in the last
    bit; each keeps what qsl and scan print.
    """
    x = _cross(axis, r)
    if isinstance(x[0], float):
        x = np.array(x)
        return x, _vec_norm(x)
    return x, np.sqrt((x[0] * x[0] + x[1] * x[1]) + x[2] * x[2])


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
    perp, s = _perp(_instance(ham, HamiltonianSpec, "ham").axis.tolist(), _bloch(r)[1])
    return SLDResult(v=2.0 * ham.omega0 * perp, fisher=_fisher(s, ham.omega0))


def qfi(r, ham: HamiltonianSpec) -> float:
    """Quantum Fisher information F = 4 * omega0^2 * |n x r|^2; sld's bits, no SLD."""
    return _fisher(_perp(_instance(ham, HamiltonianSpec, "ham").axis.tolist(), _bloch(r)[1])[1],
                   ham.omega0)
