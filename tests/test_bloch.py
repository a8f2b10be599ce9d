import warnings

import numpy as np
import numpy.testing as npt
import pytest

from blochdyn import (
    HamiltonianSpec,
    NormViolation,
    as_bloch,
    bloch_to_density,
    check_density,
    density_to_bloch,
    evolve_bloch,
    evolve_density,
    p_err,
    p_err_bloch,
    pure_state_bloch,
    qfi,
    sld,
    unitary,
)
from blochdyn.bloch import NORM_EPS, RATE_LIMIT, _cross, _perp
from oracles import SX, SY, SZ, conj_evolve, dense_p_err, rho_of, sld_fd


def random_ball(rng, n, rmax=1.0):
    v = rng.normal(size=(n, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v * (rmax * rng.uniform(size=(n, 1)) ** (1 / 3))


def random_axes(rng, n):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def test_density_map_trivial_states():
    npt.assert_allclose(bloch_to_density((0, 0, 0)), np.eye(2) / 2)
    npt.assert_allclose(bloch_to_density((0, 0, 1)), np.diag([1.0, 0.0]))


def test_density_eigenvalues_for_interior_state():
    # frozen from a dense eigensolve of 0.5*(I + 0.6 sx + 0.3 sz)
    ev = np.linalg.eigvalsh(bloch_to_density((0.6, 0, 0.3)))
    expect = np.array([(1 - np.sqrt(0.45)) / 2, (1 + np.sqrt(0.45)) / 2])
    npt.assert_allclose(np.sort(ev), expect, atol=1e-14)


def test_bloch_roundtrip_random():
    rng = np.random.default_rng(11)
    for r in random_ball(rng, 200):
        npt.assert_allclose(density_to_bloch(bloch_to_density(r)), r, atol=1e-12)


def test_norm_gate():
    as_bloch((0, 0, 1.0))  # boundary is legal
    with pytest.raises(NormViolation):
        as_bloch((0, 0, 1.0 + 1e-9))
    with pytest.raises(ValueError):
        as_bloch((1, 0))


def test_check_density_rejects_invalid():
    with pytest.raises(ValueError):
        check_density(np.array([[1.0, 0.1], [0.3, 0.0]]))  # not Hermitian
    with pytest.raises(ValueError):
        check_density(np.diag([0.7, 0.7]))  # trace 1.4
    with pytest.raises(ValueError):
        check_density(np.diag([1.2, -0.2]))  # negative eigenvalue


@pytest.mark.parametrize("rho", [
    [[np.nan, 0.0], [0.0, 1.0]],
    [[0.5, np.nan], [np.nan, 0.5]],
    [[np.inf, 0.0], [0.0, 1.0]],
    [[0.5, 0.5j], [complex(0.0, np.inf), 0.5]],
])
def test_check_density_rejects_non_finite_entries(rho):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning on the way
        with pytest.raises(ValueError, match="finite"):
            check_density(rho)


def test_check_density_refuses_huge_entries_without_overflow():
    # abs() of a complex whose magnitude passes the largest float raises OverflowError
    c = complex(1.5e308, 1.5e308)
    b = complex(1.3e308, 0.65e308)  # b - conj(c') is (1.3e308, 1.3e308) for c' = 0.65e308j
    for rho, verdict in (([[0.5, c.conjugate()], [c, 0.5]], "positive semidefinite"),
                         ([[0.5, b], [0.65e308j, 0.5]], "Hermitian")):
        with pytest.raises(ValueError, match=verdict):
            check_density(rho)


def _psd_verdict(mat):
    try:
        check_density(mat)
    except ValueError as err:
        assert "positive semidefinite" in str(err)
        return False
    return True


def test_check_density_psd_verdict_matches_eigvalsh():
    rng = np.random.default_rng(11)
    mats = []
    for _ in range(2000):  # Hermitian, unit trace, about half of them not PSD
        a = rng.uniform(-0.2, 1.2)
        b = complex(*rng.normal(scale=0.4, size=2))
        mats.append(np.array([[a, b], [b.conjugate(), 1.0 - a]]))
    for _ in range(500):  # smallest eigenvalue 1e-15 either side of -NORM_EPS
        lam = -NORM_EPS + rng.choice([-1e-15, 1e-15])
        q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        mats.append(q @ np.diag([1.0 - lam, lam]) @ q.conj().T)
    got = [_psd_verdict(m) for m in mats]
    ref = [float(np.linalg.eigvalsh(m)[0]) >= -NORM_EPS for m in mats]
    assert got == ref
    assert 0 < sum(got[2000:]) < 500  # both sides of the boundary were reached


def test_pure_state_bloch_poles_and_equator():
    s = 1 / np.sqrt(2)
    npt.assert_allclose(pure_state_bloch([1, 0]), [0, 0, 1], atol=1e-15)
    npt.assert_allclose(pure_state_bloch([0, 1]), [0, 0, -1], atol=1e-15)
    npt.assert_allclose(pure_state_bloch([s, s]), [1, 0, 0], atol=1e-15)
    npt.assert_allclose(pure_state_bloch([s, 1j * s]), [0, 1, 0], atol=1e-15)
    with pytest.raises(ValueError):
        pure_state_bloch([1, 1])  # normalization is the caller's job


def test_p_err_endpoints():
    rho = bloch_to_density((0.3, -0.2, 0.4))
    assert p_err(rho, rho) == pytest.approx(0.5, abs=1e-15)
    plus = bloch_to_density((1, 0, 0))
    minus = bloch_to_density((-1, 0, 0))
    assert p_err(plus, minus) == pytest.approx(0.0, abs=1e-15)


def test_p_err_orthogonal_axes_value():
    # frozen from the dense eigensolve oracle: 1/2 - sqrt(2)/4
    v = p_err(bloch_to_density((1, 0, 0)), bloch_to_density((0, 1, 0)))
    assert v == pytest.approx(0.14644660940672627, abs=1e-14)
    assert v == pytest.approx(0.5 - np.sqrt(2) / 4, abs=1e-14)


def test_p_err_symmetric_and_matches_dense_oracle():
    rng = np.random.default_rng(23)
    rs = random_ball(rng, 120)
    for r1, r2 in zip(rs[::2], rs[1::2]):
        a, b = bloch_to_density(r1), bloch_to_density(r2)
        assert p_err(a, b) == pytest.approx(p_err(b, a), abs=1e-15)
        assert p_err(a, b) == pytest.approx(dense_p_err(a, b), abs=1e-12)
        # trace norm of the difference equals the Euclidean Bloch distance
        tn = np.abs(np.linalg.eigvalsh(a - b)).sum()
        assert tn == pytest.approx(np.linalg.norm(r1 - r2), abs=1e-12)
        assert p_err_bloch(r1, r2) == pytest.approx(p_err(a, b), abs=1e-12)


@pytest.mark.parametrize("excess", [1e-12, 1.9e-12])
def test_p_err_just_outside_the_ball(excess):
    # check_density accepts |r| up to about 1 + 2 NORM_EPS, as_bloch only to
    # 1 + NORM_EPS: p_err reads the Bloch vectors without as_bloch's bound
    r = np.array([0.36, -0.48, 0.8]) * (1.0 + excess)
    rho, antipode, other = rho_of(r), rho_of(-r), rho_of(np.array([0.1, 0.2, -0.3]))
    assert p_err(rho, rho) == 0.5
    assert p_err(rho, antipode) == 0.0  # 1/2 - (2 + 2 excess) / 4, clamped
    assert dense_p_err(rho, antipode) < 0.0
    assert p_err(rho, other) == pytest.approx(dense_p_err(rho, other), abs=1e-12)


def test_hamiltonian_spec_validation():
    with pytest.raises(ValueError):
        HamiltonianSpec(axis=np.array([0.0, 0.0, 2.0]))
    with pytest.raises(ValueError):
        HamiltonianSpec.from_axis((0, 0, 0))
    with pytest.raises(ValueError):
        HamiltonianSpec.from_axis((0, 0, 1), omega0=0.0)
    ham = HamiltonianSpec.from_axis((0, 0, 2), omega0=1.5)
    npt.assert_allclose(ham.axis, [0, 0, 1])
    npt.assert_allclose(ham.matrix(), 1.5 * SZ)
    shifted = HamiltonianSpec.from_axis((0, 1, 0), omega0=2.0, identity_shift=True)
    npt.assert_allclose(shifted.matrix(), 2.0 * (SY + np.eye(2)))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_hamiltonian_spec_rejects_non_finite_inputs(bad):
    with pytest.raises(ValueError, match="omega0"):
        HamiltonianSpec(axis=np.array([0.0, 0.0, 1.0]), omega0=bad)
    with pytest.raises(ValueError, match="omega0"):
        HamiltonianSpec.from_axis((0, 0, 1), omega0=bad)
    with pytest.raises(ValueError, match="axis"):
        HamiltonianSpec.from_axis((bad, 0, 1))
    with pytest.raises(ValueError, match="state vector"):
        pure_state_bloch([bad, 1.0])


def test_rates_lie_within_the_rate_limit():
    for w in (1.0 / RATE_LIMIT, RATE_LIMIT):
        assert HamiltonianSpec.from_axis((0, 0, 1), omega0=w).omega0 == w
    for w in (0.5 / RATE_LIMIT, 2.0 * RATE_LIMIT, 1e308, 5e-324, -1.0):
        with pytest.raises(ValueError, match="omega0 must be finite and lie in"):
            HamiltonianSpec.from_axis((0, 0, 1), omega0=w)
    # at the limits every derived float stays finite and nonzero
    for w in (1.0 / RATE_LIMIT, RATE_LIMIT):
        ham = HamiltonianSpec.from_axis((0, 0, 1), omega0=w)
        assert 0.0 < qfi((1e-12, 0, 0), ham) and qfi((1, 0, 0), ham) < np.inf


def test_unitary_shift_is_global_phase():
    ham = HamiltonianSpec.from_axis((0.3, -1.2, 0.4), omega0=0.8)
    sham = HamiltonianSpec(axis=ham.axis, omega0=0.8, identity_shift=True)
    t = 0.73
    npt.assert_allclose(unitary(sham, t), np.exp(-1j * 0.8 * t) * unitary(ham, t), atol=1e-14)


def test_evolution_trivial_cases():
    ham = HamiltonianSpec.from_axis((0, 1, 0), omega0=1.3)
    r = np.array([0.2, 0.5, -0.1])
    npt.assert_allclose(evolve_bloch(r, ham, 0.0), r, atol=1e-15)
    aligned = 0.7 * np.asarray(ham.axis)
    npt.assert_allclose(evolve_bloch(aligned, ham, 2.9), aligned, atol=1e-14)


def test_quarter_turn_about_z():
    # omega0*t = pi/4 carries +x to +y; frozen against the U rho U' oracle
    ham = HamiltonianSpec.from_axis((0, 0, 1))
    npt.assert_allclose(evolve_bloch((1, 0, 0), ham, np.pi / 4), [0, 1, 0], atol=1e-14)


@pytest.mark.parametrize("t, shown", [
    (np.nan, "nan"), (np.inf, "inf"), (-np.inf, "-inf"),
    (10**400, "401 digits"),  # no float holds it
], ids=["nan", "inf", "-inf", "huge"])
def test_propagators_refuse_a_non_finite_time_naming_t(t, shown):
    ham = HamiltonianSpec.from_axis((0.3, -1.2, 0.4), omega0=1.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning on the way
        for call in (lambda: evolve_bloch((0.2, 0.5, -0.1), ham, t),
                     lambda: unitary(ham, t),
                     lambda: evolve_density(np.eye(2) / 2, ham, t)):
            with pytest.raises(ValueError, match=rf"^t must be finite, got {shown}$"):
                call()


def test_propagators_refuse_an_overflowing_phase_naming_t():
    # evolve_bloch turns by 2 omega0 t, unitary by omega0 t
    ham = HamiltonianSpec.from_axis((0.3, -1.2, 0.4), omega0=1.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t, shown in ((1e308, "1e+308"), (np.float64(1e308), "1e+308"), (-1e308, "-1e+308")):
            with pytest.raises(ValueError) as err:
                evolve_bloch((0.2, 0.5, -0.1), ham, t)
            assert str(err.value) == f"t = {shown} overflows the largest phase, t * 3"
        with pytest.raises(ValueError) as err:
            unitary(ham, 1.5e308)
        assert str(err.value) == "t = 1.5e+308 overflows the largest phase, t * 1.5"
        u = unitary(ham, 1e308)  # a phase of 1.5e308 still fits
        npt.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-14)
        assert np.all(np.isfinite(evolve_bloch((0.2, 0.5, -0.1), ham, 5e307)))


def test_evolution_matches_dense_conjugation():
    rng = np.random.default_rng(37)
    rs = random_ball(rng, 60)
    axes = random_axes(rng, 60)
    omegas = rng.uniform(0.3, 2.5, 60)
    ts = rng.uniform(0.0, 8.0, 60)
    for r, n, w, t in zip(rs, axes, omegas, ts):
        ham = HamiltonianSpec.from_axis(n, omega0=w)
        expect = conj_evolve(rho_of(r), n, w, t)
        npt.assert_allclose(evolve_bloch(r, ham, t), density_to_bloch(expect), atol=1e-12)
        npt.assert_allclose(evolve_density(rho_of(r), ham, t), expect, atol=1e-12)


def test_evolution_conserves_radius_and_orbit_radius():
    rng = np.random.default_rng(41)
    ham = HamiltonianSpec.from_axis((0.2, 0.5, -1.0), omega0=0.9)
    n = np.asarray(ham.axis)
    for r in random_ball(rng, 40):
        for t in (0.1, 1.7, 6.4):
            rt = evolve_bloch(r, ham, t)
            assert np.linalg.norm(rt) == pytest.approx(np.linalg.norm(r), abs=1e-13)
            assert np.linalg.norm(np.cross(n, rt)) == pytest.approx(
                np.linalg.norm(np.cross(n, r)), abs=1e-13
            )


def test_identity_shift_does_not_move_states():
    ham = HamiltonianSpec.from_axis((1, 1, 0), omega0=1.1)
    sham = HamiltonianSpec(axis=ham.axis, omega0=1.1, identity_shift=True)
    r = (0.3, -0.1, 0.8)
    npt.assert_allclose(evolve_bloch(r, sham, 2.2), evolve_bloch(r, ham, 2.2), atol=1e-14)


def test_sld_direction_and_known_values():
    ham = HamiltonianSpec.from_axis((0, 0, 1))
    res = sld((1, 0, 0), ham)
    npt.assert_allclose(res.v, 2.0 * np.cross([0, 0, 1], [1, 0, 0]), atol=1e-14)
    assert res.fisher == pytest.approx(4.0, abs=1e-12)  # largest possible at omega0=1
    assert qfi(0.4 * np.asarray([0, 0, 1.0]), ham) == pytest.approx(0.0, abs=1e-15)


def test_sld_fisher_matches_finite_difference_oracle():
    # frozen value for r=(0.6,0,0.3), axis z: 1.44
    ham = HamiltonianSpec.from_axis((0, 0, 1))
    assert qfi((0.6, 0, 0.3), ham) == pytest.approx(1.44, abs=1e-12)
    rng = np.random.default_rng(53)
    for _ in range(25):
        r = random_ball(rng, 1, rmax=0.95)[0]
        n = random_axes(rng, 1)[0]
        if np.linalg.norm(np.cross(n, r)) < 0.05:
            continue
        w = rng.uniform(0.5, 2.0)
        t = rng.uniform(0.0, np.pi / w)
        _, f_num = sld_fd(r, n, w, t=t)
        f_lib = qfi(r, HamiltonianSpec.from_axis(n, omega0=w))
        assert f_lib == pytest.approx(f_num, rel=1e-6)


def test_sld_defining_equation_along_orbit():
    rng = np.random.default_rng(59)
    for _ in range(20):
        r = random_ball(rng, 1, rmax=0.98)[0]
        n = random_axes(rng, 1)[0]
        w = rng.uniform(0.4, 2.0)
        ham = HamiltonianSpec.from_axis(n, omega0=w)
        h = ham.matrix()
        for t in (0.0, 0.6, 2.1):
            rt = evolve_bloch(r, ham, t)
            rho_t = bloch_to_density(rt)
            v = sld(rt, ham).v
            sld_op = v[0] * SX + v[1] * SY + v[2] * SZ
            lhs = 0.5 * (sld_op @ rho_t + rho_t @ sld_op)
            rhs = -1j * (h @ rho_t - rho_t @ h)
            npt.assert_allclose(lhs, rhs, atol=1e-10)


def test_sld_operator_norm_is_sqrt_fisher():
    rng = np.random.default_rng(61)
    for _ in range(30):
        r = random_ball(rng, 1)[0]
        ham = HamiltonianSpec.from_axis(random_axes(rng, 1)[0], omega0=rng.uniform(0.3, 3.0))
        res = sld(r, ham)
        op = res.v[0] * SX + res.v[1] * SY + res.v[2] * SZ
        opnorm = np.abs(np.linalg.eigvalsh(op)).max()
        assert opnorm == pytest.approx(np.sqrt(res.fisher), abs=1e-12)


def test_qfi_pure_state_variance_form():
    rng = np.random.default_rng(67)
    for _ in range(30):
        r = random_axes(rng, 1)[0]  # pure
        n = random_axes(rng, 1)[0]
        w = rng.uniform(0.5, 2.0)
        ham = HamiltonianSpec.from_axis(n, omega0=w)
        c = float(np.dot(n, r))
        assert qfi(r, ham) == pytest.approx(4 * w**2 * (1 - c * c), abs=1e-12)
        # 4 * variance of the axis observable in the pure state, via matrices
        rho = bloch_to_density(r)
        obs = n[0] * SX + n[1] * SY + n[2] * SZ
        var = np.trace(rho @ obs @ obs).real - np.trace(rho @ obs).real ** 2
        assert qfi(r, ham) == pytest.approx(4 * w**2 * var, abs=1e-12)


def _log_uniform(rng, shape):
    # signed magnitudes spread over 1e-300..1e300, so products underflow and overflow
    return rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-300, 300, size=shape)


def _cross_pairs(rng):
    a = _log_uniform(rng, (4000, 3))
    b = _log_uniform(rng, (4000, 3))
    special = np.array([[0.0, 0.0, 0.0], [-0.0, 0.0, -0.0], [1.0, -0.0, 0.0], [-0.0, -0.0, -1.0],
                        [0.3, -0.4, 0.5], [1e-300, 1e300, -1e-300], [1e300, 1e300, 1e300]])
    # every special row against every special row, itself, a multiple and its negative
    sa = np.repeat(special, len(special), axis=0)
    sb = np.tile(special, (len(special), 1))
    par = a[:200] * rng.uniform(0.1, 10.0, size=(200, 1))
    return (np.concatenate([a, sa, special, special, a[:200], a[:200]]),
            np.concatenate([b, sb, 3.0 * special, -special, par, -par]))


def _same_array(got, want):
    return (got.shape == want.shape and got.dtype == want.dtype
            and np.array_equal(got, want, equal_nan=True)
            and got.tobytes() == want.tobytes())  # the sign of every zero too


def _cols(stack):
    return tuple(stack.T)


def _rows(columns):
    return np.stack(columns, axis=-1)


def test_cross_matches_numpy_bit_for_bit():
    rng = np.random.default_rng(71)
    a, b = _cross_pairs(rng)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for x, y in zip(a, b):
            assert _same_array(np.array(_cross(x.tolist(), y.tolist())), np.cross(x, y))
        assert _same_array(_rows(_cross(_cols(a), _cols(b))), np.cross(a, b))
        for x in a[::97]:
            assert _same_array(_rows(_cross(x, _cols(b))), np.cross(x, b))
            assert _same_array(_rows(_cross(_cols(b), x)), np.cross(b, x))
        empty = np.empty((0, 3))
        assert _same_array(_rows(_cross(_cols(empty), _cols(empty))), np.cross(empty, empty))
        assert _same_array(_rows(_cross(a[0], _cols(empty))), np.cross(a[0], empty))
        assert _same_array(_rows(_cross(_cols(empty), a[0])), np.cross(empty, a[0]))


def test_cross_of_broadcast_columns_is_the_cross_of_every_point():
    # scan_ring passes a lattice's coordinates as broadcasting columns
    rng = np.random.default_rng(72)
    x, y, z = rng.normal(size=(4, 1, 1)), rng.normal(size=(5, 1)), rng.normal(size=6)
    pts = np.stack(np.broadcast_arrays(x, y, z), axis=-1).reshape(-1, 3)
    n = random_axes(rng, 1)[0]
    got = _rows([np.broadcast_to(c, (4, 5, 6)) for c in _cross(n, (x, y, z))]).reshape(-1, 3)
    assert _same_array(got, np.cross(n, pts))
    s = _perp(n, (x, y, z))[1]
    assert _same_array(s.reshape(-1), np.linalg.norm(np.cross(n, pts), axis=-1))


def test_perp_of_columns_is_numpys_row_wise_norm_bit_for_bit():
    # the scan's radius: sqrt((x*x + y*y) + z*z) of the cross columns, the
    # sum np.linalg.norm(axis=-1) makes; one vector keeps the BLAS norm
    rng = np.random.default_rng(73)
    for scale in (1e-150, 1e-3, 1.0, 1e150):
        pts = scale * rng.normal(size=(3000, 3))
        for n in random_axes(rng, 4):
            cross, s = _perp(n, _cols(pts))
            want = np.cross(n, pts)
            assert _same_array(_rows(cross), want)
            assert _same_array(s, np.linalg.norm(want, axis=-1))
            for p in pts[:20]:
                x, one = _perp(n, p)
                assert _same_array(x, np.cross(n, p)) and one == np.linalg.norm(np.cross(n, p))
