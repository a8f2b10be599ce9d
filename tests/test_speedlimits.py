import numpy as np
import numpy.testing as npt
import pytest

from blochdyn import (
    DegenerateOrbit,
    BlochDynError,
    GroundState,
    HamiltonianSpec,
    NormViolation,
    NotReachable,
    bloch_to_density,
    brach_hamiltonian,
    classify,
    evolve_bloch,
    evolve_density,
    faster_set_contains,
    p_err,
    p_err_bloch,
    perp_norm,
    qfi,
    scan_ring,
    tau_exact,
    tau_ml,
    tau_mt,
)
from blochdyn import speedlimits
from oracles import (
    SCAN_CHUNK,
    brach_axis_reference,
    conj_evolve,
    dense_p_err,
    evolve_reference,
    grid_scan_tau,
    p_err_bloch_reference,
    perr_curve,
    rho_of,
    scalar_orbit_reference,
    whole_lattice_ring,
)

Z = HamiltonianSpec.from_axis((0, 0, 1))
Z_SHIFT = HamiltonianSpec.from_axis((0, 0, 1), identity_shift=True)
TILTED = HamiltonianSpec.from_axis((0.3, -0.5, 0.8), omega0=1.7)


def random_reachable(rng, n, u_lo=0.01, u_hi=0.99, rmax=1.0, s_min=0.01):
    """(r, axis, omega0, delta) with the crossing strictly inside the orbit."""
    out = []
    while len(out) < n:
        r = rng.normal(size=3)
        r *= rmax * rng.uniform() ** (1 / 3) / np.linalg.norm(r)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        s = np.linalg.norm(np.cross(axis, r))
        if s < s_min:
            continue
        u = rng.uniform(u_lo, u_hi)
        delta = 0.5 * (1.0 - u * s)
        out.append((r, axis, rng.uniform(0.5, 2.0), delta))
    return out


def test_delta_domain():
    assert tau_exact((1, 0, 0), Z, 0.5) == 0.0
    assert tau_exact((1, 0, 0), Z, 0.0) == pytest.approx(np.pi / 2, abs=1e-12)
    for bad in (-0.01, 0.51, 1.0):
        with pytest.raises(ValueError):
            tau_exact((1, 0, 0), Z, bad)


def test_tau_exact_known_values():
    # pure equator state orthogonalizes at omega0*t = pi/2
    assert tau_exact((0, 1, 0), Z, 0.0) == pytest.approx(np.pi / 2, abs=1e-12)
    # orbit radius 0.8 at delta 0.25: frozen against the grid-scan oracle
    for r in ((0.8, 0, 0.6), (0.8, 0, 0.1), (0, 0.8, -0.3)):
        t = tau_exact(r, Z, 0.25)
        assert t == pytest.approx(np.arcsin(0.625), abs=1e-14)
        assert t == pytest.approx(0.675131532937032, abs=1e-12)


def test_tau_exact_against_grid_scan():
    got = tau_exact((0.8, 0, 0.6), Z, 0.25)
    ref = grid_scan_tau((0.8, 0, 0.6), (0, 0, 1), 1.0, 0.25)
    assert abs(got - ref) <= 2e-5
    mixed = grid_scan_tau((0.8, 0, 0.1), (0, 0, 1), 1.0, 0.25)
    assert abs(tau_exact((0.8, 0, 0.1), Z, 0.25) - mixed) <= 2e-5


def test_perr_curve_oracle_matches_dense_conjugation():
    # the entry-by-entry oracle against stacked 2x2 matrices and eigvalsh
    rng = np.random.default_rng(73)
    for k in range(12):
        radius = 1.0 if k < 2 else rng.uniform(0.1, 0.99)
        r = rng.normal(size=3)
        r *= radius / np.linalg.norm(r)
        axis = rng.normal(size=3) * rng.uniform(0.5, 3.0)  # oracle normalizes
        w = rng.uniform(0.3, 3.0)
        times = rng.uniform(0.0, 2.0 * np.pi, size=4)
        rho0 = rho_of(r)
        expect = [dense_p_err(rho0, conj_evolve(rho0, axis, w, t)) for t in times]
        npt.assert_allclose(perr_curve(r, axis, w, times), expect, rtol=0, atol=1e-12)


def test_grid_scan_stops_at_the_first_hit_of_the_whole_grid():
    r, axis, w = (0.3, -0.5, 0.4), (1.0, 2.0, -0.5), 1.7
    tgrid = np.arange(0.0, (0.5 * np.pi + 1e-4) / w, 1e-5 / w)
    pe = perr_curve(r, axis, w, tgrid)
    # one hit inside the first slice, one several slices on
    for delta, lo, hi in ((0.49, 0, SCAN_CHUNK), (0.3, 3 * SCAN_CHUNK, tgrid.size)):
        k = np.flatnonzero(pe <= delta)[0]
        assert lo <= k < hi
        assert grid_scan_tau(r, axis, w, delta) == tgrid[k]
        assert grid_scan_tau(r, axis, w, delta, t_end=tgrid[k]) is None


def test_tau_exact_produces_the_requested_error():
    rng = np.random.default_rng(71)
    for r, axis, w, d in random_reachable(rng, 60):
        ham = HamiltonianSpec.from_axis(axis, omega0=w)
        t = tau_exact(r, ham, d)
        rho0 = bloch_to_density(r)
        assert p_err(rho0, evolve_density(rho0, ham, t)) == pytest.approx(d, abs=1e-10)


def test_tau_exact_scales_inversely_with_rate():
    slow = tau_exact((0.9, 0, 0), HamiltonianSpec.from_axis((0, 0, 1), omega0=0.5), 0.2)
    fast = tau_exact((0.9, 0, 0), HamiltonianSpec.from_axis((0, 0, 1), omega0=2.0), 0.2)
    assert slow == pytest.approx(4.0 * fast, rel=1e-12)


def test_tau_exact_errors():
    with pytest.raises(NotReachable):
        tau_exact((0.5, 0, 0), Z, 0.0)  # needs perp norm 1
    with pytest.raises(DegenerateOrbit):
        tau_exact((0, 0, 0.7), Z, 0.1)  # commuting state
    # exact saturation is reachable thanks to the boundary slack
    assert tau_exact((0.8, 0, 0), Z, 0.1) == pytest.approx(np.pi / 2, abs=1e-9)


def test_tau_mt_values_and_saturation():
    assert tau_mt((1, 0, 0), Z, 0.0) == pytest.approx(np.pi / 2, abs=1e-12)
    assert tau_mt((1, 0, 0), Z, 0.0) == pytest.approx(tau_exact((1, 0, 0), Z, 0.0), abs=1e-12)
    assert tau_mt((0.3, 0.2, 0.1), Z, 0.5) == 0.0
    # frozen: arcsin(0.5)/0.8, strictly below the exact time
    v = tau_mt((0.8, 0, 0.6), Z, 0.25)
    assert v == pytest.approx(0.6544984694978736, abs=1e-12)
    assert v < tau_exact((0.8, 0, 0.6), Z, 0.25)


def test_tau_mt_degenerate():
    with pytest.raises(DegenerateOrbit):
        tau_mt((0, 0, 0.4), Z, 0.2)


def test_tau_ml_requires_shifted_spectrum():
    with pytest.raises(ValueError):
        tau_ml((1, 0, 0), Z, 0.1)


def test_tau_ml_values():
    assert tau_ml((0.7, 0, 0.7), Z_SHIFT, 0.5) == 0.0
    # aligned pure state, delta 0: pi * 1 / (2 * 2) (formula evaluation)
    assert tau_ml((0, 0, 1), Z_SHIFT, 0.0) == pytest.approx(np.pi / 4, abs=1e-14)
    # it is only a bound: that state never actually reaches any delta < 1/2
    with pytest.raises(DegenerateOrbit):
        tau_exact((0, 0, 1), Z_SHIFT, 0.0)


def test_tau_ml_symmetrization_restores_inversion_symmetry():
    r = np.array([0.4, 0.1, 0.6])
    plain_up = tau_ml(r, Z_SHIFT, 0.12)
    plain_dn = tau_ml(-r, Z_SHIFT, 0.12)
    assert plain_up != pytest.approx(plain_dn, rel=1e-3)
    assert tau_ml(r, Z_SHIFT, 0.12, symmetrized=True) == pytest.approx(
        tau_ml(-r, Z_SHIFT, 0.12, symmetrized=True), abs=1e-15
    )
    assert tau_ml(r, Z_SHIFT, 0.12, symmetrized=True) == pytest.approx(plain_up, abs=1e-15)


def test_tau_ml_ground_state_singularity():
    with pytest.raises(GroundState):
        tau_ml((0, 0, -1), Z_SHIFT, 0.2)
    # the symmetrized variant is finite there
    assert np.isfinite(tau_ml((0, 0, -1), Z_SHIFT, 0.2, symmetrized=True))


def test_unsymmetrized_ml_can_exceed_the_exact_time():
    # documented counterexample: pure state below the equator; the printed
    # bound formula overshoots the true crossing while the symmetrized
    # variant stays below it
    th = 3 * np.pi / 4
    r = (np.sin(th), 0.0, np.cos(th))
    d = 0.15
    exact = tau_exact(r, Z_SHIFT, d)
    assert tau_ml(r, Z_SHIFT, d) > exact
    assert tau_ml(r, Z_SHIFT, d, symmetrized=True) <= exact


def test_bound_ordering_random():
    rng = np.random.default_rng(73)
    for r, axis, w, d in random_reachable(rng, 300):
        ham = HamiltonianSpec.from_axis(axis, omega0=w, identity_shift=True)
        ml = tau_ml(r, ham, d, symmetrized=True)
        mt = tau_mt(r, ham, d)
        ex = tau_exact(r, ham, d)
        assert ml <= mt + 1e-12
        assert mt <= ex + 1e-12


def test_scalar_inequality_behind_the_ordering():
    x = np.linspace(0.0, 1.0, 2001)
    assert np.all(np.arcsin(x) + 1e-15 >= (np.pi / 2) * (1 - np.sqrt(1 - x * x)))


def test_classify_equator_pure():
    rep = classify((1, 0, 0), Z, 0.0)
    assert rep.reachable
    assert rep.tau_exact == pytest.approx(np.pi / 2, abs=1e-12)
    assert rep.min_perr == pytest.approx(0.0, abs=1e-12)
    assert rep.fisher == pytest.approx(4.0, abs=1e-12)


def test_classify_invariant_states():
    rep = classify((0, 0, 0), Z, 0.2)
    assert not rep.reachable
    assert rep.tau_exact is None
    assert rep.min_perr == pytest.approx(0.5)
    assert np.isinf(rep.tau_mt)
    rep2 = classify((0, 0, 0.6), Z, 0.49)
    assert not rep2.reachable


def test_classify_boundary_saturation():
    # orbit radius 0.9 reaches delta = 0.05 exactly at the quarter period
    rep = classify((0.9, 0, 0.1), Z, 0.05)
    assert rep.reachable
    assert rep.tau_exact == pytest.approx(np.pi / 2, abs=1e-7)
    rt = evolve_bloch((0.9, 0, 0.1), Z, np.pi / 2)
    assert p_err_bloch((0.9, 0, 0.1), rt) == pytest.approx(0.05, abs=1e-10)
    # a hair outside flips the classification
    assert not classify((0.9 - 1e-3, 0, 0.1), Z, 0.05).reachable


def test_classify_reachability_condition():
    rng = np.random.default_rng(79)
    for _ in range(200):
        r = rng.normal(size=3)
        r *= rng.uniform() ** (1 / 3) / np.linalg.norm(r)
        d = rng.uniform(0.0, 0.5)
        rep = classify(r, Z, d)
        assert rep.reachable == ((1 - 2 * d) <= rep.perp_norm + 1e-12)
        assert rep.min_perr == pytest.approx(0.5 - 0.5 * rep.perp_norm, abs=1e-12)
        # the ordering chain needs the symmetrized mean-energy variant;
        # the plain formula can cross above tau_mt below the equator
        sym = classify(r, Z, d, ml_symmetrized=True)
        if rep.reachable and d < 0.5:
            assert sym.tau_ml <= sym.tau_mt + 1e-12
            assert sym.tau_mt <= sym.tau_exact + 1e-12


def test_classify_divergent_ml_reported_not_raised():
    rep = classify((0, 0, -1), Z, 0.3)
    assert np.isinf(rep.tau_ml)
    symrep = classify((0, 0, -1), Z, 0.3, ml_symmetrized=True)
    assert np.isfinite(symrep.tau_ml)


def _outcome(call):
    """A call's value, or the type of the error it raised."""
    try:
        return call()
    except (BlochDynError, ValueError) as exc:
        return type(exc)


@pytest.mark.parametrize("delta", [0.5, 0.5 - 1e-13, 0.5 - 5e-13, 0.5 - 1e-12, 0.3])
@pytest.mark.parametrize("r, ham", [
    ((0.0, 0.0, 0.5), Z_SHIFT), ((1e-13, 0.0, 0.5), Z_SHIFT), ((5e-13, 0.0, 0.5), Z_SHIFT),
    ((2e-12, 0.0, 0.5), Z_SHIFT), ((5.0, 5.0, 5.0), Z_SHIFT), ((np.nan, 0.0, 0.0), Z_SHIFT),
    ("abc", Z_SHIFT),
    ((1.0000000000000002e-12, 0.0, 0.0),
     HamiltonianSpec.from_axis((0, 0, 1), 0.24232850640910925, identity_shift=True)),
], ids=["radius0", "radius1e-13", "radius5e-13", "radius2e-12", "outside", "nan", "text",
        "radius1e-12+1ulp-omega0.2423"])
def test_classify_reports_what_the_tau_functions_return_or_raise(r, ham, delta):
    # classify's tau_exact and reachable follow tau_exact, its bounds are inf
    # where tau_mt and tau_ml raise, and a bad r fails all four alike. One ulp
    # above the degenerate radius at omega0 0.2423... the Fisher information is
    # still below (2 omega0 1e-12)^2, so a Fisher threshold would refuse an
    # orbit that the radius rule keeps
    rep = _outcome(lambda: classify(r, ham, delta))
    exact, mt, ml = (_outcome(lambda: f(r, ham, delta)) for f in (tau_exact, tau_mt, tau_ml))
    if isinstance(rep, type):
        assert rep in (NormViolation, ValueError)
        assert exact is mt is ml is rep
        return
    if exact in (DegenerateOrbit, NotReachable):
        assert (rep.reachable, rep.tau_exact) == (False, None)
    else:
        assert (rep.reachable, rep.tau_exact) == (True, exact)
    assert rep.tau_mt == (np.inf if mt is DegenerateOrbit else mt)
    assert rep.tau_ml == (np.inf if ml is GroundState else ml)


def test_monotonicity_in_orbit_radius_and_level():
    deltas = np.linspace(0.01, 0.49, 20)
    radii = np.linspace(0.3, 1.0, 15)
    for d in deltas:
        taus = []
        for s in radii:
            if (1 - 2 * d) > s:
                continue
            taus.append(tau_exact((s, 0, 0), Z, d))
        assert np.all(np.diff(taus) <= 1e-15)
    for s in radii:
        levels = [d for d in deltas if (1 - 2 * d) <= s]
        taus = [tau_exact((s, 0, 0), Z, d) for d in levels]
        assert np.all(np.diff(taus) <= 1e-15)  # larger delta crosses sooner


def test_orbit_error_periodic_and_symmetric():
    rng = np.random.default_rng(83)
    r = (0.4, 0.5, 0.3)
    w = 1.7
    ham = HamiltonianSpec.from_axis((0.2, -1.0, 0.5), omega0=w)
    period = np.pi / w
    for t in rng.uniform(0, period, 25):
        a = p_err_bloch(r, evolve_bloch(r, ham, t))
        b = p_err_bloch(r, evolve_bloch(r, ham, t + period))
        c = p_err_bloch(r, evolve_bloch(r, ham, period - t))
        assert a == pytest.approx(b, abs=1e-12)
        assert a == pytest.approx(c, abs=1e-12)


def test_faster_set():
    assert faster_set_contains((0.5, 0, 0.2), (0.5, 0, 0.2), Z)
    th = np.pi / 3
    ref = (np.sin(th), 0.0, np.cos(th))  # pure, orbit radius sin(th)
    assert faster_set_contains(ref, (0.95, 0, 0), Z)  # mixed but wider orbit
    assert not faster_set_contains(ref, (0, 0, 0.9), Z)
    assert not faster_set_contains((1, 0, 0), (0, 0, 1), Z)
    # the ring keeps radii within REACH_SLACK below the reference's, as the scan does
    slack = speedlimits.REACH_SLACK
    assert faster_set_contains((0.5, 0, 0), (0.5 - slack / 2, 0, 0), Z)
    assert not faster_set_contains((0.5, 0, 0), (0.5 - 2 * slack, 0, 0), Z)
    # a degenerate reference is in no hurry: every state is at least as fast
    assert faster_set_contains((0, 0, 0.3), (0, 0, -1), Z)
    assert faster_set_contains((slack / 2, 0, 0), (0, 0, 0), Z)
    # a degenerate sigma never beats a moving reference, even within the slack
    ref, sigma = (1.5e-12, 0, 0), (0.6e-12, 0, 0)
    assert tau_exact(ref, Z, 0.4999999999999995) > 0.0
    with pytest.raises(DegenerateOrbit):
        tau_exact(sigma, Z, 0.4999999999999995)
    assert not faster_set_contains(ref, sigma, Z)


def test_scan_ring_equator_limit():
    scan = scan_ring(Z, np.pi / 2, 9)
    assert scan.points.shape[0] > 0
    npt.assert_allclose(np.linalg.norm(scan.points, axis=1), 1.0, atol=1e-9)
    npt.assert_allclose(scan.points[:, 2], 0.0, atol=1e-9)
    npt.assert_allclose(scan.tau_exact, np.pi / 2, atol=1e-9)
    assert scan.delta == pytest.approx(0.0)


def test_scan_ring_zero_angle_excludes_only_the_axis():
    res = 5
    scan = scan_ring(Z, 0.0, res)
    ticks = np.linspace(-1, 1, res)
    inside = sum(
        1
        for x in ticks
        for y in ticks
        for z in ticks
        if x * x + y * y + z * z <= 1 + 1e-12 and np.hypot(x, y) > 1e-12
    )
    assert scan.points.shape[0] == inside
    assert np.all(np.hypot(scan.points[:, 0], scan.points[:, 1]) > 1e-12)


def test_scan_ring_interior_angle():
    scan = scan_ring(Z, np.pi / 4, 21)
    assert np.all(scan.tau_exact <= np.pi / 2 + 1e-9)
    s = np.linalg.norm(np.cross(scan.points, np.array([0.0, 0.0, 1.0])), axis=1)
    assert np.all(s >= np.sin(np.pi / 4) - 1e-12)
    assert scan.delta == pytest.approx((1 - np.sin(np.pi / 4)) / 2)
    # per-sample formula re-check
    expect = np.arcsin(np.clip((1 - 2 * scan.delta) / s, 0, 1))
    npt.assert_allclose(scan.tau_exact, expect, atol=1e-12)
    # boundary samples sit at the quarter period
    on_edge = np.isclose(s, np.sin(np.pi / 4), atol=1e-12)
    assert on_edge.any()
    npt.assert_allclose(scan.tau_exact[on_edge], np.pi / 2, atol=1e-9)


def test_scan_ring_deterministic_and_validated():
    a = scan_ring(Z, 0.3, 11)
    b = scan_ring(Z, 0.3, 11)
    npt.assert_array_equal(a.points, b.points)
    npt.assert_array_equal(a.tau_exact, b.tau_exact)
    with pytest.raises(ValueError):
        scan_ring(Z, -0.1, 10)
    with pytest.raises(ValueError):
        scan_ring(Z, 2.0, 10)
    with pytest.raises(ValueError):
        scan_ring(Z, 0.3, 1)


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("theta", [0.0, 0.7, np.pi / 2], ids=["zero", "interior", "equator"])
@pytest.mark.parametrize("grid, budget, n_slabs", [
    (2, None, 1),
    (3, None, 1),
    (7, None, 1),
    (12, None, 1),
    (40, None, 1),
    (13, 3 * 13 * 13 + 5, 5),  # runs of 3 x ticks, the last one partial
])
def test_scan_ring_matches_whole_lattice_oracle_bit_for_bit(monkeypatch, theta, grid, budget,
                                                           n_slabs):
    if budget is not None:
        monkeypatch.setattr(speedlimits, "_SLAB_POINTS", budget)
    assert len(list(speedlimits._ring_slabs(TILTED, theta, grid)[2])) == n_slabs
    got = scan_ring(TILTED, theta, grid)
    pts, tau, fisher, delta = whole_lattice_ring(TILTED.axis, TILTED.omega0, theta, grid)
    assert same_bits(got.points, pts)
    assert same_bits(got.tau_exact, tau)
    assert same_bits(got.fisher, fisher)
    assert got.delta == delta and got.theta_psi == theta


@pytest.mark.parametrize("ham", [Z, TILTED, HamiltonianSpec.from_axis((0.3, -1.2, 0.7))],
                         ids=["z", "tilted", "bench-like"])
@pytest.mark.parametrize("theta", [0.0, 0.2, 0.7], ids=["zero", "wide", "interior"])
@pytest.mark.parametrize("grid, budget, n_slabs", [
    (5, None, 1),  # ticks -1, -0.5, 0, 0.5, 1
    (9, None, 1),  # ticks +-1, +-0.5 and 0 among others
    (11, None, 1),  # ticks +-1 and 0
    (9, 1, 9),  # one x tick a slab
    (11, 2 * 11 * 11 + 3, 6),  # runs of 2 x ticks, the last one partial
    (13, 3 * 13 * 13 + 5, 5),  # runs of 3 x ticks, the last one partial
])
def test_ring_slab_tick_indices_gather_the_whole_lattice_points(monkeypatch, ham, theta, grid,
                                                                budget, n_slabs):
    if budget is not None:
        monkeypatch.setattr(speedlimits, "_SLAB_POINTS", budget)
    ticks, delta, slabs = speedlimits._ring_slabs(ham, theta, grid)
    parts = list(slabs)
    assert len(parts) == n_slabs
    ix, iy, iz, tau, fisher = (np.concatenate(c) for c in zip(*parts))
    pts, want_tau, want_fisher, want_delta = whole_lattice_ring(ham.axis, ham.omega0, theta, grid)
    assert ix.dtype.kind == iy.dtype.kind == iz.dtype.kind == "i"
    assert same_bits(np.stack([ticks[ix], ticks[iy], ticks[iz]], axis=-1), pts)
    assert same_bits(tau, want_tau) and same_bits(fisher, want_fisher) and delta == want_delta
    flat = (ix * grid + iy) * grid + iz
    assert np.all(np.diff(flat) > 0)  # lexicographic, each point once
    if grid in (5, 9):
        assert {-1.0, -0.5, 0.0, 0.5, 1.0} <= set(ticks.tolist())
    assert np.any(np.abs(pts).max(axis=1) == 1.0)  # the ball's poles are lattice points


def test_scan_ring_keeps_the_whole_lattice_points_on_every_small_grid():
    # the slabs sum |r|^2 as (x^2 + y^2) + z^2, where the oracle's einsum
    # rounds otherwise on most grids; the kept points must still agree
    for grid in range(2, 61):
        got = scan_ring(TILTED, 0.0, grid)
        pts, tau, fisher, _ = whole_lattice_ring(TILTED.axis, TILTED.omega0, 0.0, grid)
        assert same_bits(got.points, pts), grid
        assert same_bits(got.tau_exact, tau) and same_bits(got.fisher, fisher), grid


@pytest.mark.parametrize("grid", [speedlimits.GRID_LIMIT + 1, 10**9])
def test_scan_ring_rejects_a_grid_above_the_ceiling(grid):
    # checked before the ticks are built: 10**9 of them would need 8 GB
    with pytest.raises(ValueError, match="grid"):
        scan_ring(Z, 0.3, grid)


def test_perp_norm_helper():
    assert perp_norm((0.8, 0, 0.6), Z) == pytest.approx(0.8, abs=1e-15)
    assert perp_norm((0, 0, 0.5), Z) == pytest.approx(0.0, abs=1e-15)


def _bits(x):
    return None if x is None else np.asarray(x, dtype=float).tobytes()


def _or_none(fn, *args):
    try:
        return fn(*args)
    except BlochDynError:
        return None


def _orbit_draws(rng, n):
    """(axis, omega0, r, delta, t) with on-axis, centre, pure and boundary cases mixed in."""
    for i in range(n):
        axis = rng.normal(size=3) * 10.0 ** rng.uniform(-3, 3)
        unit = axis / np.linalg.norm(axis)
        kind = i % 6
        if kind == 0:
            r = rng.normal(size=3)
            r *= rng.uniform() ** (1 / 3) / np.linalg.norm(r)
        elif kind == 1:
            r = rng.normal(size=3)
            r /= np.linalg.norm(r)  # pure
        elif kind == 2:
            r = unit * rng.uniform(-1.0, 1.0)  # on the axis: a degenerate orbit
        elif kind == 3:
            r = np.zeros(3)
        else:
            r = rng.uniform(-0.57, 0.57, size=3)
        s = float(np.linalg.norm(np.cross(unit, r)))
        delta = [rng.uniform(0.0, 0.5), 0.0, 0.5, 0.5 * (1.0 - s)][i % 4]  # last: the boundary
        yield axis, unit, 10.0 ** rng.uniform(-1.3, 1.3), r, delta, rng.uniform(-5.0, 5.0)


def test_scalar_queries_match_numpy_reference_bit_for_bit():
    # Guards the qsl and brach bytes beyond the golden cases: every scalar
    # query gives the bits of its plain np.cross / np.clip formula.
    rng = np.random.default_rng(20251)
    for axis, unit, w, r, delta, t in _orbit_draws(rng, 3000):
        ham = HamiltonianSpec.from_axis(axis, omega0=w, identity_shift=True)
        ref = scalar_orbit_reference(unit, w, r, delta, ml_symmetrized=bool(t > 0))
        rep = classify(r, ham, delta, ml_symmetrized=bool(t > 0))
        assert _bits(perp_norm(r, ham)) == _bits(rep.perp_norm) == _bits(ref["perp_norm"])
        assert _bits(rep.fisher) == _bits(ref["fisher"])
        assert _bits(qfi(r, ham)) == _bits(ref["qfi"])
        assert rep.reachable == ref["classify_reachable"]
        for key in ("tau_exact", "tau_mt", "tau_ml", "min_perr"):
            assert _bits(getattr(rep, key)) == _bits(ref["classify_" + key]), key
        assert _bits(_or_none(tau_exact, r, ham, delta)) == _bits(ref["tau_exact"])
        assert _bits(_or_none(tau_mt, r, ham, delta)) == _bits(ref["tau_mt"])

        moved = evolve_bloch(r, ham, t)
        assert _bits(moved) == _bits(evolve_reference(unit, w, r, t))
        assert _bits(p_err_bloch(r, moved)) == _bits(p_err_bloch_reference(r, moved))
        other = -r if t > 0 else r  # the clip edges: d = 2 |r| and d = 0
        assert _bits(p_err_bloch(r, other)) == _bits(p_err_bloch_reference(r, other))

        r2 = moved * (np.linalg.norm(r) / max(np.linalg.norm(moved), 1e-300))
        want = brach_axis_reference(r, r2)
        got = _or_none(brach_hamiltonian, r, r2)
        if want is not None and got is not None:
            assert _bits(got.axis) == _bits(want)


@pytest.mark.parametrize("r1, r2, expect", [
    ((0.0, 0.0, 1.0), (0.0, 0.0, -1.0), 0.0),  # d = 2
    ((0.6, 0.0, 0.8), (-0.6, 0.0, -0.8), 0.0),  # d = 2, up to rounding
    ((0.3, -0.2, 0.1), (0.3, -0.2, 0.1), 0.5),  # d = 0
])
def test_p_err_bloch_clip_edges(r1, r2, expect):
    assert p_err_bloch(r1, r2) == expect
    assert _bits(p_err_bloch(r1, r2)) == _bits(p_err_bloch_reference(r1, r2))
