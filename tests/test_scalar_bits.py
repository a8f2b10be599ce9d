"""The scalar kernels keep numpy's bits.

bloch, speedlimits and brachistochrone do their one-vector arithmetic on
Python floats and keep numpy only where its rounding differs from Python's:
BLAS dots (every norm and every n . r), np.arcsin, np.arctan2 and complex
products. This file keeps the numpy-array forms those functions had before
(np.cross, np.linalg.norm, np.dot and array arithmetic) and checks, over a
seeded corpus of at least 2000 inputs per function and its edge cases, that
each function returns the same bits and the same types. Both sides run under
the same BLAS kernel and numpy build, so the check holds under any of them.
"""

import math

import numpy as np
import pytest

import blochdyn as bd

N = 2000
TOL = 1e-12  # the degenerate, ground-state and reach tolerances, REACH_SLACK
FORMS = {  # how a caller may pass a real vector; all but "array" take the slow intake
    "array": lambda v: v,
    "list": lambda v: v.tolist(),
    "float32": lambda v: v.astype(np.float32),
    "big_endian": lambda v: v.astype(">f8"),
    "strided": lambda v: np.repeat(v, 2)[::2],
}


def _key(x):
    """x as comparable bits: type, dtype, shape and bytes; a float by its hex."""
    if isinstance(x, np.ndarray):
        return "ndarray", x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, float):
        return type(x).__name__, x.hex()
    if isinstance(x, (bd.ReachabilityReport, bd.BrachResult, bd.SLDResult, bd.HamiltonianSpec)):
        return type(x).__name__, tuple(_key(v) for v in vars(x).values())
    return type(x).__name__, x


def _outcome(call, *args):
    try:
        return _key(call(*args))
    except (bd.BlochDynError, ValueError) as exc:
        return "raises", type(exc).__name__


# ---------------------------------------------------------- numpy-array forms


def _vec(r):
    return np.asarray(r, dtype=float)


def _bloch(r):
    vec = _vec(r)
    if not math.hypot(*vec.tolist()) <= 1.0 + TOL:
        raise bd.NormViolation("")
    return vec


def _perp(n, r):
    x = np.cross(n, r)
    return x, np.linalg.norm(x)  # np.float64


def _fisher(s, omega0):
    return 4.0 * (omega0 * s) ** 2


def from_axis(axis, omega0, shift):
    vec = _vec(axis)
    norm = math.hypot(*vec.tolist())
    if not 1e-100 <= norm <= 1e100:
        raise ValueError("axis length")
    return bd.HamiltonianSpec(vec / np.linalg.norm(vec), omega0, shift)


def perp_norm(r, ham):
    return float(_perp(ham.axis, _bloch(r))[1])


def qfi(r, ham):
    return float(_fisher(_perp(ham.axis, _bloch(r))[1], ham.omega0))


def sld(r, ham):
    perp, s = _perp(ham.axis, _bloch(r))
    return bd.SLDResult(v=2.0 * ham.omega0 * perp, fisher=float(_fisher(s, ham.omega0)))


def _exact(s, target, omega0):
    return float(np.arcsin(np.minimum(target / s, 1.0)) / omega0)


def _mt(fisher, target):
    return float(2.0 * np.arcsin(target) / np.sqrt(fisher))


def _ml(c, target, omega0):
    return float(np.pi * (1.0 - np.sqrt(1.0 - target * target)) / (2.0 * omega0 * (c + 1.0)))


def tau_exact(r, ham, d):
    s = perp_norm(r, ham)
    if d == 0.5:
        return 0.0
    if s <= TOL:
        raise bd.DegenerateOrbit("")
    if 1.0 - 2.0 * d > s + TOL:
        raise bd.NotReachable("")
    return _exact(s, 1.0 - 2.0 * d, ham.omega0)


def tau_mt(r, ham, d):
    fisher = qfi(r, ham)
    if d == 0.5:
        return 0.0
    if fisher <= (2.0 * ham.omega0 * TOL) ** 2:
        raise bd.DegenerateOrbit("")
    return _mt(fisher, 1.0 - 2.0 * d)


def tau_ml(r, ham, d, sym):
    c = float(np.dot(ham.axis, _bloch(r)))
    if d == 0.5:
        return 0.0
    c = abs(c) if sym else c
    if c + 1.0 <= TOL:
        raise bd.GroundState("")
    return _ml(c, 1.0 - 2.0 * d, ham.omega0)


def classify(r, ham, d, sym):
    vec = _bloch(r)
    s = float(_perp(ham.axis, vec)[1])
    fisher = _fisher(s, ham.omega0)
    target = 1.0 - 2.0 * d
    reachable = d == 0.5 or (s > TOL and target <= s + TOL)
    min_perr = max(0.0, 0.5 - 0.5 * s)
    times = 0.0, 0.0, 0.0
    if d != 0.5:
        c = float(np.dot(ham.axis, vec))
        c = abs(c) if sym else c
        times = (_exact(s, target, ham.omega0) if reachable else None,
                 _mt(fisher, target) if s > TOL else math.inf,
                 _ml(c, target, ham.omega0) if c + 1.0 > TOL else math.inf)
    return bd.ReachabilityReport(bool(reachable), *times, fisher, s, min_perr)


def evolve_bloch(r, ham, t):
    vec, n, phi = _bloch(r), ham.axis, 2.0 * ham.omega0 * t
    return np.cos(phi) * vec - np.sin(phi) * np.cross(vec, n) + (1.0 - np.cos(phi)) * np.dot(n, vec) * n


def _helstrom(dr):
    return max(0.0, min(0.5, 0.5 - 0.25 * float(np.linalg.norm(dr))))


def p_err_bloch(r1, r2):
    return _helstrom(_bloch(r1) - _bloch(r2))


def p_err(rho, sigma):
    return _helstrom(bd.density_to_bloch(rho) - bd.density_to_bloch(sigma))


def _fallback_axis(r1):
    norm = float(np.linalg.norm(r1))
    if norm <= TOL:
        return np.array([1.0, 0.0, 0.0])
    unit = r1 / norm
    for basis in (np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])):
        perp = basis - (basis @ unit) * unit
        if float(np.linalg.norm(perp)) > 1e-6:
            return perp / float(np.linalg.norm(perp))
    raise AssertionError


def brach_hamiltonian(r1, r2, omega0):
    a, b = _bloch(r1), _bloch(r2)
    ra, rb = float(np.linalg.norm(a)), float(np.linalg.norm(b))
    if abs(ra - rb) > 1e-9:
        raise bd.RadiusMismatch("")
    cross = np.cross(a, b)
    cross_norm = float(np.linalg.norm(cross))
    phi12 = float(np.arctan2(cross_norm, float(a @ b)))
    if cross_norm > TOL:
        axis = cross / cross_norm
    elif float(np.linalg.norm(a - b)) <= TOL:
        axis, phi12 = _fallback_axis(a), 0.0
    elif float(np.linalg.norm(a + b)) <= TOL:
        axis, phi12 = _fallback_axis(a), float(np.pi)
    else:
        raise bd.CollinearInput("")
    return bd.BrachResult(axis, 0.5 * phi12 / omega0, phi12, _fisher(ra, omega0))


def _unit(psi):
    vec = np.asarray(psi, dtype=complex)
    if not abs(math.hypot(*vec.real.tolist(), *vec.imag.tolist()) - 1.0) <= 1e-10:
        raise ValueError("state vector")
    return vec / np.linalg.norm(vec)


def pure_state_bloch(psi):
    vec = _unit(psi)
    off = vec[0] * np.conj(vec[1])
    return np.array([2.0 * off.real, -2.0 * off.imag, abs(vec[0]) ** 2 - abs(vec[1]) ** 2])


def pure_brach(psi1, psi2, omega0):
    a, b = _unit(psi1), _unit(psi2)
    z = complex(np.vdot(a, b))
    if abs(z.imag) > TOL:
        raise bd.OverlapNotReal("")
    zr = z.real
    if abs(zr) >= 1.0 - TOL:
        raise bd.LinearlyDependent("")
    if zr < 0.0:
        b, zr = -b, -zr
    outer = np.outer(a, b.conj())
    return (-1j * omega0 / np.sqrt(1.0 - zr * zr)) * (outer - outer.conj().T)


# ------------------------------------------------------------------ corpus


def _unit_rows(rng, n):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _queries(seed):
    """(axis, omega0, r, delta, t) rows: every 4th r pure, every 10th on the axis,
    every 25th zero, deltas 0, 1/2, reachable and not, axis lengths up to 1e+-100."""
    rng = np.random.default_rng(seed)
    axes = _unit_rows(rng, N) * 10.0 ** rng.uniform(-99.0, 99.0, size=(N, 1))
    axes[::7] /= np.linalg.norm(axes[::7], axis=1, keepdims=True)
    axes[3::50] *= 0.99e100 / np.linalg.norm(axes[3::50], axis=1, keepdims=True)
    axes[4::50] *= 1.01e-100 / np.linalg.norm(axes[4::50], axis=1, keepdims=True)
    omegas = 10.0 ** rng.uniform(-3.0, 3.0, size=N)
    units = axes / np.linalg.norm(axes, axis=1, keepdims=True)
    rs = _unit_rows(rng, N) * rng.uniform(0.0, 1.0, size=(N, 1))
    rs[::4] /= np.linalg.norm(rs[::4], axis=1, keepdims=True)
    rs[::10] = units[::10] * rng.uniform(-1.0, 1.0, size=(len(rs[::10]), 1))
    rs[::25] = 0.0
    deltas = rng.uniform(0.0, 0.5, size=N)
    deltas[::9], deltas[1::9] = 0.0, 0.5
    forms = list(FORMS.values())
    for i in range(N):
        yield axes[i], omegas[i], forms[i % len(forms)](rs[i]), float(deltas[i]), rng.uniform(-5, 5)


QUERIES = list(_queries(20251))


def _ham(axis, omega0):
    return bd.HamiltonianSpec.from_axis(axis, omega0, identity_shift=True)


@pytest.mark.parametrize("form", sorted(FORMS))
def test_from_axis_keeps_the_bits(form):
    rng = np.random.default_rng(20255)
    past = _unit_rows(rng, 40) * np.repeat([1.1e100, 0.9e-100, 1e300, 1e-300], 10)[:, None]
    for axis, omega0 in [q[:2] for q in QUERIES] + [(a, 1.0) for a in past]:
        if form == "float32" and not 1e-30 < math.hypot(*axis) < 1e30:
            continue  # past float32's range
        for shift in (False, True):
            a = FORMS[form](axis)
            assert _outcome(bd.HamiltonianSpec.from_axis, a, omega0, shift) == _outcome(
                from_axis, a, omega0, shift)


@pytest.mark.parametrize("name", ["perp_norm", "qfi", "sld", "tau_exact", "tau_mt", "tau_ml",
                                  "tau_ml_symmetrized", "classify", "classify_symmetrized",
                                  "evolve_bloch"])
def test_orbit_functions_keep_the_bits(name):
    new, ref = {
        "perp_norm": (bd.perp_norm, perp_norm),
        "qfi": (bd.qfi, qfi),
        "sld": (bd.sld, sld),
        "tau_exact": (bd.tau_exact, tau_exact),
        "tau_mt": (bd.tau_mt, tau_mt),
        "tau_ml": (bd.tau_ml, lambda r, h, d: tau_ml(r, h, d, False)),
        "tau_ml_symmetrized": (lambda r, h, d: bd.tau_ml(r, h, d, symmetrized=True),
                               lambda r, h, d: tau_ml(r, h, d, True)),
        "classify": (bd.classify, lambda r, h, d: classify(r, h, d, False)),
        "classify_symmetrized": (lambda r, h, d: bd.classify(r, h, d, ml_symmetrized=True),
                                 lambda r, h, d: classify(r, h, d, True)),
        "evolve_bloch": (bd.evolve_bloch, evolve_bloch),
    }[name]
    outcomes = set()
    for axis, omega0, r, delta, t in QUERIES:
        ham = _ham(axis, omega0)
        arg = t if name == "evolve_bloch" else delta
        if name in ("perp_norm", "qfi", "sld"):
            got, want = _outcome(new, r, ham), _outcome(ref, r, ham)
        else:
            got, want = _outcome(new, r, ham, arg), _outcome(ref, r, ham, arg)
        assert got == want, (name, axis, omega0, r, arg)
        outcomes.add(got[0] if got[0] == "raises" else "returns")
    assert "returns" in outcomes


def test_the_corpus_reaches_every_tau_exact_verdict():
    # the corpus reaches the degenerate orbit, unreachable levels, and pure states that
    # float32 rounds out of the ball
    seen = set()
    for axis, omega0, r, delta, _ in QUERIES:
        got = _outcome(bd.tau_exact, r, _ham(axis, omega0), delta)
        seen.add(got[1] if got[0] == "raises" else "returns")
    assert seen == {"DegenerateOrbit", "NotReachable", "NormViolation", "returns"}


def test_p_err_keeps_the_bits():
    rng = np.random.default_rng(20252)
    for i, (_, _, r, _, _) in enumerate(QUERIES):
        r2 = (_unit_rows(rng, 1)[0] * rng.uniform(0.0, 1.0)).tolist() if i % 5 else r
        assert _outcome(bd.p_err_bloch, r, r2) == _outcome(p_err_bloch, r, r2)
        if i % 4 == 0 and np.linalg.norm(_vec(r)) <= 1.0:  # float32 may leave the ball
            rho, sigma = bd.bloch_to_density(r), bd.bloch_to_density(r2)
            assert _outcome(bd.p_err, rho, sigma) == _outcome(p_err, rho, sigma)


def _brach_pairs(seed):
    rng = np.random.default_rng(seed)
    forms = list(FORMS.values())
    for i in range(N):
        r1 = _unit_rows(rng, 1)[0] * (1.0 if i % 6 == 0 else rng.uniform(0.0, 1.0))
        r2 = {0: r1.copy(), 1: -r1, 2: 3e-13 * r1, 3: r1 * (1.0 + 1e-10)}.get(
            i % 20, _unit_rows(rng, 1)[0] * np.linalg.norm(r1))
        if i % 50 == 4:
            r1, r2 = np.zeros(3), np.zeros(3)
        if i % 50 == 5:
            r1, r2 = np.array([1.0, 0.0, 0.0]), np.array([-1.0, 0.0, 0.0])
        yield forms[i % len(forms)](r1), forms[(i // 5) % len(forms)](r2), 10.0 ** rng.uniform(-3, 3)


def test_brach_hamiltonian_keeps_the_bits():
    outcomes = set()
    for r1, r2, omega0 in _brach_pairs(20253):
        got = _outcome(bd.brach_hamiltonian, r1, r2, omega0)
        assert got == _outcome(brach_hamiltonian, r1, r2, omega0), (r1, r2)
        assert _outcome(bd.brach_time, r1, r2, omega0) == (
            got[1][1] if got[0] == "BrachResult" else got)
        outcomes.add(got[0] if got[0] == "BrachResult" else got[1])
    assert outcomes == {"BrachResult", "RadiusMismatch", "CollinearInput", "NormViolation"}


def _pure_pairs(seed):
    rng = np.random.default_rng(seed)
    forms = [lambda v: v, lambda v: v.tolist(), lambda v: v.astype(np.complex64),
             lambda v: np.repeat(v, 2)[::2]]
    for i in range(N):
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi1 = z / np.linalg.norm(z)
        perp = np.array([-np.conj(psi1[1]), np.conj(psi1[0])])
        theta = 0.0 if i % 40 == 0 else rng.uniform(0.0, np.pi)  # overlaps of both signs
        psi2 = np.cos(theta) * psi1 + np.sin(theta) * np.exp(1j * rng.uniform(0, 2 * np.pi)) * perp
        yield forms[i % 4](psi1), forms[(i // 4) % 4](psi2), 10.0 ** rng.uniform(-3, 3)


def test_pure_states_keep_the_bits():
    outcomes = set()
    for psi1, psi2, omega0 in _pure_pairs(20254):
        got = _outcome(bd.pure_brach, psi1, psi2, omega0)
        assert got == _outcome(pure_brach, psi1, psi2, omega0), (psi1, psi2)
        assert _outcome(bd.pure_state_bloch, psi1) == _outcome(pure_state_bloch, psi1)
        outcomes.add(got[0])
    assert outcomes == {"ndarray", "raises"}
