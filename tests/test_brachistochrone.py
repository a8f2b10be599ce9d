import numpy as np
import numpy.testing as npt
import pytest

from blochdyn import (
    CollinearInput,
    HamiltonianSpec,
    LinearlyDependent,
    OverlapNotReal,
    RadiusMismatch,
    brach_hamiltonian,
    brach_time,
    evolve_bloch,
    pure_brach,
    pure_state_bloch,
    qfi,
    tau_exact,
)
from oracles import SX, SY, SZ, first_arrival_times, rho_of


def random_equal_radius_pair(rng, rmin=0.2, phi_lo=0.1, phi_hi=np.pi - 0.1):
    radius = rng.uniform(rmin, 1.0)
    a = rng.normal(size=3)
    a *= radius / np.linalg.norm(a)
    # rotate a by a random angle about a random perpendicular direction
    perp = np.cross(a, rng.normal(size=3))
    perp /= np.linalg.norm(perp)
    phi = rng.uniform(phi_lo, phi_hi)
    b = np.cos(phi) * a + np.sin(phi) * np.cross(perp, a)
    return a, b


def test_quarter_circle_example():
    res = brach_hamiltonian((1, 0, 0), (0, 1, 0))
    npt.assert_allclose(res.axis, [0, 0, 1], atol=1e-15)
    assert res.duration == pytest.approx(np.pi / 4, abs=1e-14)
    assert res.phi12 == pytest.approx(np.pi / 2, abs=1e-14)
    assert res.fisher_on_path == pytest.approx(4.0, abs=1e-14)
    ham = HamiltonianSpec.from_axis(res.axis)
    npt.assert_allclose(evolve_bloch((1, 0, 0), ham, res.duration), [0, 1, 0], atol=1e-10)


def test_coincident_inputs():
    res = brach_hamiltonian((0.3, 0.4, 0.1), (0.3, 0.4, 0.1))
    assert res.duration == 0.0
    assert res.phi12 == 0.0
    assert abs(np.dot(res.axis, [0.3, 0.4, 0.1])) < 1e-12
    assert np.linalg.norm(res.axis) == pytest.approx(1.0, abs=1e-12)


def test_antipodal_pure_pair():
    res = brach_hamiltonian((1, 0, 0), (-1, 0, 0))
    assert res.duration == pytest.approx(np.pi / 2, abs=1e-14)
    assert abs(np.dot(res.axis, [1, 0, 0])) < 1e-12
    ham = HamiltonianSpec.from_axis(res.axis)
    npt.assert_allclose(evolve_bloch((1, 0, 0), ham, res.duration), [-1, 0, 0], atol=1e-10)
    # deterministic choice for the degenerate geometry
    res2 = brach_hamiltonian((1, 0, 0), (-1, 0, 0))
    npt.assert_array_equal(res.axis, res2.axis)


def test_radius_mismatch_and_collinear():
    with pytest.raises(RadiusMismatch):
        brach_hamiltonian((1, 0, 0), (0, 0.5, 0))
    with pytest.raises(CollinearInput):
        brach_hamiltonian((0.5, 0, 0), (0.5 + 5e-10, 0, 0))


def test_axis_orthogonality_and_time_angle_relation():
    rng = np.random.default_rng(97)
    for _ in range(50):
        a, b = random_equal_radius_pair(rng)
        w = rng.uniform(0.5, 2.0)
        res = brach_hamiltonian(a, b, omega0=w)
        assert abs(np.dot(res.axis, a)) < 1e-12
        assert abs(np.dot(res.axis, b)) < 1e-12
        assert res.duration == pytest.approx(res.phi12 / (2 * w), abs=1e-12)
        ham = HamiltonianSpec.from_axis(res.axis, omega0=w)
        npt.assert_allclose(evolve_bloch(a, ham, res.duration), b, atol=1e-10)


def test_minimal_time_radius_independent_at_fixed_angle():
    # quarter-turn target at radius 0.9 still needs a quarter period
    t = brach_time((0.9, 0, 0), (0, 0.9, 0))
    assert t == pytest.approx(np.pi / 4, abs=1e-12)
    # frozen against the brute scan: arrival at 0.78539820 with step 1e-7
    assert t == pytest.approx(0.78539820, abs=1e-6)
    assert brach_time((0.4, 0, 0), (0, 0.4, 0)) == pytest.approx(t, abs=1e-12)


def test_duration_formula_matches_chord():
    rng = np.random.default_rng(101)
    for _ in range(40):
        a, b = random_equal_radius_pair(rng)
        res = brach_hamiltonian(a, b)
        chord = np.linalg.norm(a - b) / (2 * np.linalg.norm(a))
        assert res.duration == pytest.approx(np.arcsin(chord), abs=1e-12)


def test_orbit_is_a_great_circle_in_the_axis_plane():
    rng = np.random.default_rng(103)
    a, b = random_equal_radius_pair(rng)
    res = brach_hamiltonian(a, b)
    ham = HamiltonianSpec.from_axis(res.axis)
    for t in np.linspace(0, res.duration, 9):
        rt = evolve_bloch(a, ham, t)
        assert abs(np.dot(rt, res.axis)) < 1e-12
        assert np.linalg.norm(rt) == pytest.approx(np.linalg.norm(a), abs=1e-12)


def test_duration_agrees_with_exact_crossing_time():
    rng = np.random.default_rng(107)
    for _ in range(40):
        a, b = random_equal_radius_pair(rng)
        w = rng.uniform(0.5, 2.0)
        res = brach_hamiltonian(a, b, omega0=w)
        ham = HamiltonianSpec.from_axis(res.axis, omega0=w)
        delta = 0.5 - 0.25 * np.linalg.norm(np.asarray(a) - np.asarray(b))
        assert res.duration == pytest.approx(tau_exact(a, ham, delta), abs=1e-12)


def test_fisher_on_path():
    rng = np.random.default_rng(109)
    for _ in range(20):
        a, b = random_equal_radius_pair(rng)
        w = rng.uniform(0.5, 2.0)
        res = brach_hamiltonian(a, b, omega0=w)
        ra = np.linalg.norm(a)
        assert res.fisher_on_path == pytest.approx(4 * w * w * ra * ra, rel=1e-12)
        ham = HamiltonianSpec.from_axis(res.axis, omega0=w)
        assert res.fisher_on_path == pytest.approx(qfi(a, ham), rel=1e-12)


def test_no_alternative_axis_arrives_earlier():
    # Entering a ball of radius tol around r2 at time t implies the optimal
    # time to some point within tol of r2 is <= t, so by the arcsin Lipschitz
    # bound t >= T - tol / (2 w |r1| sqrt(1 - x^2)) with x the half-chord.
    rng = np.random.default_rng(113)
    tol = 1e-6
    for _ in range(6):
        a, b = random_equal_radius_pair(rng, rmin=0.3)
        res = brach_hamiltonian(a, b)
        radius = np.linalg.norm(a)
        x = np.linalg.norm(np.asarray(a) - np.asarray(b)) / (2 * radius)
        slack = tol / (2 * radius * np.sqrt(1 - x * x))
        axes = rng.normal(size=(2000, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        # tilt the optimal axis by a range of angles so some orbits pass
        # near the target and the bound is exercised away from vacuity
        tilts = []
        for eta in np.geomspace(1e-8, 1e-1, 50):
            d = rng.normal(size=3)
            d -= np.dot(d, res.axis) * res.axis
            d /= np.linalg.norm(d)
            tilts.append(np.cos(eta) * res.axis + np.sin(eta) * d)
        axes = np.vstack([axes, tilts, res.axis])
        times = first_arrival_times(a, b, axes, 1.0, tol=tol)
        arrived = times[np.isfinite(times)]
        assert arrived.size >= 5
        assert np.all(arrived >= res.duration - slack - 1e-12)
        # the constructed axis itself enters the ball just before T
        assert np.isfinite(times[-1])
        assert res.duration - slack - 1e-12 <= times[-1] <= res.duration + 1e-9


def test_pure_brach_orthogonal_pair():
    psi1 = np.array([1.0, 0.0])
    psi2 = np.array([0.0, 1.0])
    h = pure_brach(psi1, psi2, omega0=1.0)
    expect = -1j * (np.outer(psi1, psi2.conj()) - np.outer(psi2, psi1.conj()))
    npt.assert_allclose(h, expect, atol=1e-14)
    npt.assert_allclose(h, h.conj().T, atol=1e-14)
    assert abs(np.trace(h)) < 1e-14
    assert np.abs(np.linalg.eigvalsh(h)).max() == pytest.approx(1.0, abs=1e-12)


def test_pure_brach_transports_the_state():
    rng = np.random.default_rng(127)
    for _ in range(30):
        psi1 = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi1 /= np.linalg.norm(psi1)
        perp = np.array([-np.conj(psi1[1]), np.conj(psi1[0])])
        th = rng.uniform(0.1, np.pi - 0.1)
        psi2 = np.cos(th) * psi1 + np.sin(th) * perp  # real overlap cos(th)
        w = rng.uniform(0.5, 2.0)
        h = pure_brach(psi1, psi2, omega0=w)
        r1 = pure_state_bloch(psi1)
        r2 = pure_state_bloch(psi2)
        t_opt = brach_hamiltonian(r1, r2, omega0=w).duration
        ev, vec = np.linalg.eigh(h)
        u = (vec * np.exp(-1j * ev * t_opt)) @ vec.conj().T
        out = u @ psi1
        fidelity = abs(np.vdot(psi2, out)) ** 2
        assert fidelity >= 1 - 1e-10


def test_pure_brach_axis_matches_bloch_construction():
    rng = np.random.default_rng(131)
    for _ in range(30):
        psi1 = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi1 /= np.linalg.norm(psi1)
        perp = np.array([-np.conj(psi1[1]), np.conj(psi1[0])])
        th = rng.uniform(0.1, np.pi - 0.1)  # overlap spans both signs
        psi2 = np.cos(th) * psi1 + np.sin(th) * perp
        h = pure_brach(psi1, psi2)
        v = np.array(
            [
                0.5 * np.trace(h @ SX).real,
                0.5 * np.trace(h @ SY).real,
                0.5 * np.trace(h @ SZ).real,
            ]
        )
        axis = v / np.linalg.norm(v)
        ref = brach_hamiltonian(pure_state_bloch(psi1), pure_state_bloch(psi2)).axis
        npt.assert_allclose(axis, ref, atol=1e-10)


def test_pure_brach_orthogonalization_target():
    rng = np.random.default_rng(137)
    psi1 = rng.normal(size=2) + 1j * rng.normal(size=2)
    psi1 /= np.linalg.norm(psi1)
    perp = np.array([-np.conj(psi1[1]), np.conj(psi1[0])])
    z = 0.3
    psi2 = z * psi1 + np.sqrt(1 - z * z) * perp
    h = pure_brach(psi1, psi2)
    ev, vec = np.linalg.eigh(h)
    u = (vec * np.exp(-1j * ev * (np.pi / 2))) @ vec.conj().T
    out = u @ psi1
    target = z * psi1 - psi2
    target /= np.linalg.norm(target)
    assert abs(np.vdot(psi1, out)) < 1e-10
    assert abs(np.vdot(target, out)) ** 2 == pytest.approx(1.0, abs=1e-10)


def test_pure_brach_input_validation():
    psi1 = np.array([1.0, 0.0])
    with pytest.raises(OverlapNotReal):
        pure_brach(psi1, np.array([(1 + 1j) / 2, (1 - 1j) / 2]))
    with pytest.raises(LinearlyDependent):
        pure_brach(psi1, psi1)
    with pytest.raises(LinearlyDependent):
        pure_brach(psi1, -psi1)  # overlap -1 is real but parallel
    with pytest.raises(ValueError):
        pure_brach(psi1 * 2.0, np.array([0.0, 1.0]))


@pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan])
def test_rate_must_be_positive_and_finite(bad):
    with pytest.raises(ValueError, match="omega0"):
        brach_hamiltonian((0.6, 0, 0), (0, 0.6, 0), omega0=bad)
    with pytest.raises(ValueError, match="omega0"):
        pure_brach(np.array([1.0, 0.0]), np.array([0.6, 0.8]), omega0=bad)


def test_non_finite_state_vector_is_rejected():
    with pytest.raises(ValueError, match="state vector"):
        pure_brach(np.array([np.nan, 1.0]), np.array([0.6, 0.8]))
