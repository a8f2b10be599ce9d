"""Distinguishability times for fixed-axis qubit evolution.

Along the orbit of rho(r) under H = omega0 * n . sigma the Helstrom error
probability is

    p_err(t) = 1/2 - |n x r| |sin(omega0 t)| / 2,

so a level delta is reachable iff 1 - 2*delta <= |n x r| (equivalently
2 * (1 - 2*delta) <= sqrt(F) / omega0 in terms of the quantum Fisher
information), and the first crossing is arcsin((1-2*delta)/|n x r|)/omega0.
This module has the exact time, the Mandelstam-Tamm (variance) and
Margolus-Levitin (mean energy) lower bounds, a reachability report, the
"at least as fast" membership test, and a ball scan of the fast ring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bloch import (NORM_EPS, HamiltonianSpec, _bloch, _fisher, _flag, _instance, _integer, _perp,
                    _real)
from .errors import DegenerateOrbit, GroundState, NotReachable

__all__ = [
    "GRID_LIMIT",
    "REACH_SLACK",
    "ReachabilityReport",
    "RingScan",
    "check_delta",
    "classify",
    "faster_set_contains",
    "perp_norm",
    "scan_ring",
    "tau_exact",
    "tau_ml",
    "tau_mt",
]

# absolute slack accepting boundary cases |n x r| = 1 - 2*delta as reachable
REACH_SLACK = 1e-12
_DEGENERATE_TOL = 1e-12
_GROUND_TOL = 1e-12  # n . r + 1 at or below this is the ground state for tau_ml
GRID_LIMIT = 400  # largest scan_ring grid; its docstring gives the memory
_SLAB_POINTS = 1 << 16  # lattice points per x-slab of a ring scan


def check_delta(delta) -> float:
    """Validate an error level in the closed interval [0, 1/2]."""
    return _real(delta, "delta", 0.0, 0.5)


def perp_norm(r, ham: HamiltonianSpec) -> float:
    """|n x r|, the radius of the orbit around the rotation axis."""
    return _perp(_instance(ham, HamiltonianSpec, "ham").axis.tolist(), _bloch(r)[1])[1]


# Each time helper takes floats s = |n x r|, c = n . r, omega0 and target =
# 1 - 2*delta, and returns the time: 0 where target is 0 (only at delta = 1/2),
# None where the bound does not exist. Each rule is one expression: the orbit
# moves (_moves), reaches a radius (_reaches: a level's target, or |n x r_ref|
# on the fast ring), and stays off the ground state (in _ml_time). Only arcsin
# stays numpy, on floats: math.asin rounds apart from it.


def _moves(s):  # the degeneracy rule, on a float or the scan's array
    return s > _DEGENERATE_TOL


def _reaches(s, target):  # the reach and ring rule, on a float or the scan's array
    return target <= s + REACH_SLACK


def _exact_time(s, target, omega0):
    if not isinstance(s, float):  # the scan's kept radii
        return np.arcsin(np.minimum(target / s, 1.0)) / omega0
    if target and _moves(s) and _reaches(s, target):
        return float(np.arcsin(min(target / s, 1.0))) / omega0
    return None if target else 0.0


def _mt_time(s, target, omega0):
    if target and _moves(s):
        return 2.0 * float(np.arcsin(target)) / math.sqrt(_fisher(s, omega0))
    return None if target else 0.0


def _ml_time(c, target, omega0):
    if target and c + 1.0 > _GROUND_TOL:
        return math.pi * (1.0 - math.sqrt(1.0 - target * target)) / (2.0 * omega0 * (c + 1.0))
    return None if target else 0.0


def tau_exact(r, ham: HamiltonianSpec, delta) -> float:
    """First time at which the evolved state reaches error level delta.

    Returns arcsin((1 - 2*delta) / |n x r|) / omega0, the smallest
    nonnegative crossing. p_err is periodic with period pi/omega0; later
    crossings are not reported. delta = 1/2 short-circuits to 0, once r
    is checked.
    """
    d = check_delta(delta)
    s = perp_norm(r, ham)
    t = _exact_time(s, 1.0 - 2.0 * d, ham.omega0)
    if t is None:
        if not _moves(s):
            raise DegenerateOrbit("state commutes with the Hamiltonian; p_err stays 1/2")
        raise NotReachable(f"delta={d:.17g} needs |n x r| >= {1.0 - 2.0 * d:.17g}, "
                           f"orbit has {s:.17g}")
    return t


def tau_mt(r, ham: HamiltonianSpec, delta) -> float:
    """Mandelstam-Tamm lower bound 2 * arcsin(1 - 2*delta) / sqrt(F).

    Tight exactly on pure equator states (|r| = 1, r . n = 0), where the
    exact crossing time coincides with the bound for every delta.
    """
    d = check_delta(delta)
    t = _mt_time(perp_norm(r, ham), 1.0 - 2.0 * d, ham.omega0)
    if t is None:
        raise DegenerateOrbit("zero quantum Fisher information on this orbit")
    return t


def tau_ml(r, ham: HamiltonianSpec, delta, symmetrized: bool = False) -> float:
    """Margolus-Levitin-type bound from the mean energy above the ground state.

        pi * (1 - sqrt(1 - (1-2*delta)^2)) / (2 * omega0 * (n . r + 1))

    Requires the identity-shifted Hamiltonian (nonnegative spectrum).
    With symmetrized=True, |n . r| replaces n . r; that variant respects
    the r -> -r symmetry of the dynamics and is the one that provably
    never exceeds the Mandelstam-Tamm bound.
    """
    d, symmetrized = check_delta(delta), _flag(symmetrized, "symmetrized")
    if not _instance(ham, HamiltonianSpec, "ham").identity_shift:
        raise ValueError("the mean-energy bound requires identity_shift=True")
    c = float(ham.axis.dot(_bloch(r)[0]))
    t = _ml_time(abs(c) if symmetrized else c, 1.0 - 2.0 * d, ham.omega0)
    if t is None:
        raise GroundState("state sits at the bottom of the spectrum")
    return t


@dataclass(frozen=True, eq=False)
class ReachabilityReport:
    """Everything classify() knows about one (state, Hamiltonian, delta).

    Times are raw (multiply by omega0 for dimensionless units). tau_exact
    is None when the level is unreachable; diverging bounds are reported
    as inf rather than raised.
    """

    reachable: bool
    tau_exact: float | None
    tau_mt: float
    tau_ml: float
    fisher: float
    perp_norm: float
    min_perr: float


def classify(r, ham: HamiltonianSpec, delta, ml_symmetrized: bool = False) -> ReachabilityReport:
    """Reachability report; never raises for in-range inputs.

    Each time comes from the helper its tau_* function reads, so where
    that function raises, tau_exact is None and a bound is inf. The smallest error on the orbit is min_perr = 1/2 - |n x r| / 2,
    attained at omega0 * t = pi/2. The mean-energy bound is evaluated
    for the identity-shifted spectrum regardless of the flag on ``ham``
    (the shift does not change its value).
    """
    d, ml_symmetrized = check_delta(delta), _flag(ml_symmetrized, "ml_symmetrized")
    vec, r3 = _bloch(r)
    s = _perp(_instance(ham, HamiltonianSpec, "ham").axis.tolist(), r3)[1]
    target, omega0, c = 1.0 - 2.0 * d, ham.omega0, float(ham.axis.dot(vec))
    t_exact = _exact_time(s, target, omega0)
    t_mt = _mt_time(s, target, omega0)
    t_ml = _ml_time(abs(c) if ml_symmetrized else c, target, omega0)
    return ReachabilityReport(t_exact is not None, t_exact, math.inf if t_mt is None else t_mt,
                              math.inf if t_ml is None else t_ml, _fisher(s, omega0), s,
                              max(0.0, 0.5 - 0.5 * s))


def faster_set_contains(r_ref, sigma, ham: HamiltonianSpec) -> bool:
    """True iff sigma's orbit reaches every level at least as fast as r_ref's.

    Membership only depends on the orbit radius: the set is the ring
    |n x r| >= |n x r_ref|, which contains mixed states whenever the
    reference is not a pure equator state. A radius within REACH_SLACK
    below the reference's counts as on the ring, as in tau_exact and
    scan_ring, so a degenerate r_ref's set holds every state. sigma's own
    orbit must move unless r_ref's does not: a degenerate sigma has no
    crossing time to compare.
    """
    s, s_ref = perp_norm(sigma, ham), perp_norm(r_ref, ham)
    return _reaches(s, s_ref) and (_moves(s) or not _moves(s_ref))


@dataclass(frozen=True, eq=False)
class RingScan:
    """Lattice samples of a fast ring, in lexicographic grid order.

    points[i] is a Bloch vector, tau_exact[i] its raw crossing time at
    the scan's implied level, fisher[i] its QFI.
    """

    points: np.ndarray
    tau_exact: np.ndarray
    fisher: np.ndarray
    theta_psi: float
    delta: float


def _ring_slabs(ham: HamiltonianSpec, theta_psi, grid):
    """Check theta_psi and grid, then return (ticks, delta, slabs).

    slabs yields (ix, iy, iz, tau_exact, fisher) for the kept points of
    successive runs of whole x ticks, at most _SLAB_POINTS lattice points
    a run (one tick when a y-z plane is larger), in lexicographic order;
    a point is (ticks[ix], ticks[iy], ticks[iz]). A run is walked as
    coordinate columns that broadcast over it, with no (N, 3) array.
    |n x r| is _perp of the columns, bit for bit a per-point walk's, and
    |r|^2 is (x^2 + y^2) + z^2 of squared ticks: it keeps the points a
    per-point einsum keeps on every grid, though not always its bits.
    """
    _instance(ham, HamiltonianSpec, "ham")
    theta = _real(theta_psi, "theta_psi", 0.0, np.pi / 2.0)
    res = _integer(grid, "grid", 2, GRID_LIMIT)

    ticks = np.linspace(-1.0, 1.0, res)
    sq = ticks * ticks
    index = np.arange(res)
    sin_ref = float(np.sin(theta))
    delta = 0.5 * (1.0 - sin_ref)
    step = max(1, _SLAB_POINTS // (res * res))

    def slabs():
        for lo in range(0, res, step):
            run = np.s_[lo:lo + step, None, None]
            s = _perp(ham.axis, (ticks[run], ticks[:, None], ticks))[1]
            keep = (((sq[run] + sq[:, None]) + sq <= (1.0 + NORM_EPS) ** 2)
                    & _reaches(s, sin_ref) & _moves(s))
            ix, iy, iz = (np.broadcast_to(i, keep.shape)[keep]
                          for i in (index[run], index[:, None], index))
            s = s[keep]
            yield ix, iy, iz, _exact_time(s, 1.0 - 2.0 * delta, ham.omega0), _fisher(s, ham.omega0)

    return ticks, delta, slabs()


def scan_ring(ham: HamiltonianSpec, theta_psi: float, grid: int) -> RingScan:
    """Scan a cubic Bloch-ball lattice for the ring |n x r| >= sin(theta_psi).

    theta_psi in [0, pi/2] is the polar angle of a reference pure state
    measured from the axis; the implied level is delta = (1 - sin
    theta_psi) / 2, and every sample satisfies tau_exact <= pi / (2 *
    omega0), with equality on the ring boundary. A radius within
    REACH_SLACK below sin(theta_psi) is kept, as faster_set_contains keeps
    it, and on-axis degenerate orbits are excluded. Output order is deterministic (lexicographic in
    the lattice indices), so results do not depend on how callers
    parallelize downstream work.

    grid lies in [2, GRID_LIMIT]. The lattice is walked in x-slabs of
    bounded size as coordinate columns (see _ring_slabs), and each slab's
    points are gathered from its tick indices, but the result holds every
    kept point at 40 bytes each: at the ceiling with theta_psi = 0 that is
    33.3 million points, about 1.3 GB, and twice that while the slabs are
    joined, once, at the end. ``blochdyn scan`` builds no points: it
    writes each slab's tick labels as the slabs come and holds one at a
    time.
    """
    ticks, delta, slabs = _ring_slabs(ham, theta_psi, grid)
    parts = []
    for ix, iy, iz, tau, fisher in slabs:
        pts = np.empty((tau.size, 3))
        pts[:, 0], pts[:, 1], pts[:, 2] = ticks[ix], ticks[iy], ticks[iz]
        parts.append((pts, tau, fisher))
    points, tau, fisher = (np.concatenate(c) for c in zip(*parts))
    return RingScan(points=points, tau_exact=tau, fisher=fisher,
                    theta_psi=float(theta_psi), delta=delta)
