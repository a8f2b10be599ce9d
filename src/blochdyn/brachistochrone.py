"""Minimal-time rotations between equal-radius Bloch vectors.

Among all generators omega0 * q . sigma with unit axis q (fixed operator
norm, hbar = 1), the axis q = (r1 x r2) / |r1 x r2| carries r1 to r2 along
the great circle of its sphere, arriving at

    T = arcsin(|r1 - r2| / (2 |r1|)) / omega0 = phi12 / (2 * omega0),

where phi12 is the angle between the two vectors. No unit axis arrives
earlier. The axis is orthogonal to both endpoints, so the quantum Fisher
information along the path is the orbit maximum 4 * omega0^2 * |r1|^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bloch import _bloch, _cross, _fisher, _rate, _unit_state, _vec_norm
from .errors import CollinearInput, LinearlyDependent, OverlapNotReal, RadiusMismatch

__all__ = ["BrachResult", "brach_hamiltonian", "brach_time", "pure_brach"]

RADIUS_TOL = 1e-9
_POINT_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class BrachResult:
    """Minimal-time axis and arrival data for one pair of Bloch vectors."""

    axis: np.ndarray
    duration: float
    phi12: float
    fisher_on_path: float


def _fallback_axis(r1: np.ndarray) -> np.ndarray:
    # Deterministic unit axis orthogonal to r1: project e1 out of r1's
    # direction, switching to e2 when r1 (nearly) shadows e1. For r1 = 0
    # any axis is valid; e1 is returned.
    norm = _vec_norm(r1)
    if norm <= _POINT_TOL:
        return np.array([1.0, 0.0, 0.0])
    unit = r1 / norm
    for basis in (np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])):
        perp = basis - (basis @ unit) * unit
        pnorm = _vec_norm(perp)
        if pnorm > 1e-6:
            return perp / pnorm
    raise AssertionError("unreachable: a unit vector cannot shadow e1 and e2")


def brach_hamiltonian(r1, r2, omega0: float = 1.0) -> BrachResult:
    """Time-optimal fixed axis taking r1 to r2, with its arrival time.

    Equal inputs return duration 0. Antipodal inputs admit a whole circle
    of optimal axes; a deterministic orthogonal fallback is chosen so
    output is reproducible. Vectors collinear within tolerance but
    neither equal nor antipodal have no rotation plane and are rejected.
    """
    (a, a3), (b, b3) = _bloch(r1), _bloch(r2)
    omega0 = _rate(omega0, "omega0")
    ra, rb = _vec_norm(a), _vec_norm(b)
    if abs(ra - rb) > RADIUS_TOL:
        raise RadiusMismatch(
            f"|r1| = {ra:.17g}, |r2| = {rb:.17g}: rotations preserve the radius"
        )

    cross = np.array(_cross(a3, b3))
    cross_norm = _vec_norm(cross)
    phi12 = float(np.arctan2(cross_norm, float(a.dot(b))))  # math.atan2 rounds apart

    if cross_norm > _POINT_TOL:
        axis = cross / cross_norm
    elif _vec_norm(a - b) <= _POINT_TOL:
        axis = _fallback_axis(a)
        phi12 = 0.0
    elif _vec_norm(a + b) <= _POINT_TOL:
        axis = _fallback_axis(a)
        phi12 = float(np.pi)
    else:
        raise CollinearInput(
            "r1 and r2 are collinear but neither equal nor antipodal"
        )

    return BrachResult(
        axis=axis,
        duration=0.5 * phi12 / omega0,
        phi12=phi12,
        fisher_on_path=_fisher(ra, omega0),
    )


def brach_time(r1, r2, omega0: float = 1.0) -> float:
    """Minimal arrival time arcsin(|r1 - r2| / (2 |r1|)) / omega0."""
    return brach_hamiltonian(r1, r2, omega0).duration


def pure_brach(psi1, psi2, omega0: float = 1.0) -> np.ndarray:
    """Minimal-time generator between two pure states with real overlap.

    Returns the Hermitian traceless operator

        H = -i * omega0 / sqrt(1 - z^2) * (|psi1><psi2| - |psi2><psi1|),

    z = <psi1|psi2>, with operator norm omega0. The sign of psi2 is
    gauge-fixed so z >= 0 (the same physical state); this keeps the
    generated rotation on the short great-circle arc, and the operator's
    Bloch axis then equals brach_hamiltonian() of the two states' Bloch
    vectors. Arrival takes arcsin(sqrt(1 - z^2)) / omega0, and the state
    orthogonalizes to (z |psi1> - |psi2>)/sqrt(1 - z^2) at
    omega0 * t = pi/2.
    """
    omega0 = _rate(omega0, "omega0")
    a = _unit_state(psi1)
    b = _unit_state(psi2)
    z = complex(np.vdot(a, b))
    if abs(z.imag) > 1e-12:
        raise OverlapNotReal(
            f"overlap {z} has a nonzero imaginary part; fix the phase gauge"
        )
    zr = z.real
    if abs(zr) >= 1.0 - 1e-12:
        raise LinearlyDependent("the states are numerically proportional")
    if zr < 0.0:
        b = -b
        zr = -zr
    outer = a[:, None] * b.conj()  # np.outer's product; numpy's complex multiply
    return (-1j * omega0 / np.sqrt(1.0 - zr * zr)) * (outer - outer.conj().T)
