"""Independent reference implementations used to pin expected values.

Everything here is deliberately written from scratch against dense
matrices, finite differences, and brute-force scans, without calling the
package under test, so test expectations do not inherit its bugs.
"""

import numpy as np
from scipy.special import gammaln

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
ID2 = np.eye(2, dtype=complex)
SCAN_CHUNK = 8192  # grid points per slice in grid_scan_tau


def rho_of(r):
    r = np.asarray(r, dtype=float)
    return 0.5 * (ID2 + r[0] * SX + r[1] * SY + r[2] * SZ)


def bloch_of(rho):
    return np.array(
        [
            2.0 * rho[0, 1].real,
            -2.0 * rho[0, 1].imag,
            (rho[0, 0] - rho[1, 1]).real,
        ]
    )


def rot_u(axis, omega0, t):
    n = np.asarray(axis, dtype=float)
    n = n / np.linalg.norm(n)
    ns = n[0] * SX + n[1] * SY + n[2] * SZ
    return np.cos(omega0 * t) * ID2 - 1j * np.sin(omega0 * t) * ns


def conj_evolve(rho0, axis, omega0, t):
    u = rot_u(axis, omega0, t)
    return u @ rho0 @ u.conj().T


def dense_p_err(rho, sigma):
    ev = np.linalg.eigvalsh(rho - sigma)
    return 0.5 - 0.25 * float(np.abs(ev).sum())


def perr_curve(r, axis, omega0, tgrid):
    """p_err(rho0, rho_t) on a time grid via explicit 2x2 dense conjugation.

    rho_t = U rho0 U^H with U = cos(w t) I - i sin(w t) (n.sigma), written
    out entry by entry from the four entries of U and of rho0, so each grid
    point costs a handful of elementwise complex products. The trace norm
    comes from the closed-form eigenvalues of the 2x2 Hermitian difference
    rho_t - rho0.
    """
    n = np.asarray(axis, dtype=float)
    n = n / np.linalg.norm(n)
    tgrid = np.asarray(tgrid, dtype=float)
    c = np.cos(omega0 * tgrid)
    s = np.sin(omega0 * tgrid)
    # entries of U: n.sigma = [[nz, nx - i ny], [nx + i ny, -nz]]
    u00 = c - 1j * s * n[2]
    u01 = -1j * s * (n[0] - 1j * n[1])
    u10 = -1j * s * (n[0] + 1j * n[1])
    u11 = c + 1j * s * n[2]
    rho0 = rho_of(r)
    r00, r01, r10, r11 = rho0[0, 0], rho0[0, 1], rho0[1, 0], rho0[1, 1]
    # M = U rho0, then rho_t = M U^H (only the entries the trace norm needs)
    m00 = u00 * r00 + u01 * r10
    m01 = u00 * r01 + u01 * r11
    m10 = u10 * r00 + u11 * r10
    m11 = u10 * r01 + u11 * r11
    rt00 = m00 * u00.conj() + m01 * u01.conj()
    rt01 = m00 * u10.conj() + m01 * u11.conj()
    rt11 = m10 * u10.conj() + m11 * u11.conj()
    a = (rt00 - r00).real
    b = rt01 - r01
    dd = (rt11 - r11).real
    half = 0.5 * (a + dd)
    quad = np.sqrt((0.5 * (a - dd)) ** 2 + np.abs(b) ** 2)
    tn = np.abs(half + quad) + np.abs(half - quad)
    return 0.5 - 0.25 * tn


def grid_scan_tau(r, axis, omega0, delta, step=1e-5, t_end=None):
    """First grid time with p_err <= delta; step is in omega0*t units.

    The grid is np.arange(0, t_end, step/omega0), built once; it is scanned
    in slices of SCAN_CHUNK points and the scan stops at the first slice
    that holds a hit, so the returned time is the first grid point with
    p_err <= delta. Returns None when no grid point before t_end hits.
    """
    if t_end is None:
        t_end = (0.5 * np.pi + 10 * step) / omega0
    tgrid = np.arange(0.0, t_end, step / omega0)
    for lo in range(0, tgrid.size, SCAN_CHUNK):
        part = tgrid[lo:lo + SCAN_CHUNK]
        hits = np.flatnonzero(perr_curve(r, axis, omega0, part) <= delta)
        if hits.size:
            return float(part[hits[0]])
    return None


def sld_fd(r, axis, omega0, t=0.0, dt=1e-6):
    """SLD and Fisher information from a finite-difference derivative.

    Central difference for drho/dt, then a dense linear solve of
    (L rho + rho L)/2 = drho via row-major Kronecker vectorization.
    """
    rho0 = rho_of(r)
    up = rot_u(axis, omega0, t + dt)
    um = rot_u(axis, omega0, t - dt)
    drho = (up @ rho0 @ up.conj().T - um @ rho0 @ um.conj().T) / (2.0 * dt)
    rho_t = conj_evolve(rho0, axis, omega0, t)
    m = 0.5 * (np.kron(np.eye(2), rho_t.T) + np.kron(rho_t, np.eye(2)))
    sld = np.linalg.solve(m, drho.reshape(-1)).reshape(2, 2)
    fisher = float(np.trace(rho_t @ sld @ sld).real)
    return sld, fisher


def first_arrival_times(r1, r2, axes, omega0, tol=1e-6):
    """First time each rotation axis carries r1 into a tol-ball around r2.

    The squared distance along an orbit is harmonic in the rotation angle
    phi = 2*omega0*t, so the entry angle into {d <= tol} is solved in
    closed form per axis. Returns nan where the orbit never gets within
    tol. Axes must be unit rows of shape (k, 3).
    """
    r1 = np.asarray(r1, dtype=float)
    r2 = np.asarray(r2, dtype=float)
    q = np.asarray(axes, dtype=float)
    qr1 = q @ r1
    qr2 = q @ r2
    c0 = qr1 * qr2
    c1 = float(r1 @ r2) - c0
    s1 = q @ np.cross(r1, r2)
    radius = np.hypot(c1, s1)
    need = 0.5 * (float(r1 @ r1) + float(r2 @ r2) - tol * tol) - c0
    out = np.full(q.shape[0], np.nan)
    ok = radius >= need
    theta0 = np.arctan2(s1[ok], c1[ok])
    a = np.arccos(np.clip(need[ok] / np.where(radius[ok] > 0, radius[ok], 1.0), -1.0, 1.0))
    phi = np.mod(theta0 - a, 2.0 * np.pi)
    out[ok] = phi / (2.0 * omega0)
    return out


def min_orbit_distance(r1, r2, axes, omega0, t_end):
    """Closed-form min over t in [0, t_end] of |orbit(t) - r2| per axis.

    Along each orbit d^2(phi) = (|r1|^2 + |r2|^2 - 2 c0) - 2 amp cos(phi
    - theta0) with phi = 2*omega0*t, so the restricted minimum is at
    theta0 when the window covers it and at the nearer endpoint
    otherwise. Unlike a ball-entry time, this stays well conditioned for
    axes whose orbits pass nowhere near r2.
    """
    r1 = np.asarray(r1, dtype=float)
    r2 = np.asarray(r2, dtype=float)
    q = np.asarray(axes, dtype=float)
    c0 = (q @ r1) * (q @ r2)
    c1 = float(r1 @ r2) - c0
    s1 = q @ np.cross(r1, r2)
    amp = np.hypot(c1, s1)
    base = float(r1 @ r1) + float(r2 @ r2) - 2.0 * c0
    theta0 = np.mod(np.arctan2(s1, c1), 2.0 * np.pi)
    phi_end = 2.0 * omega0 * float(t_end)
    gap = np.minimum(np.maximum(theta0 - phi_end, 0.0), 2.0 * np.pi - theta0)
    d2 = base - 2.0 * amp * np.cos(gap)
    return np.sqrt(np.clip(d2, 0.0, None))


def dense_jc_h(n_max, omega0, g, detuning=0.0):
    """Full qubit+mode Hamiltonian on the truncated space, basis |q> x |n>."""
    dim = n_max + 1
    a = np.diag(np.sqrt(np.arange(1, dim)), 1).astype(complex)
    ad = a.conj().T
    sp = np.array([[0, 1], [0, 0]], dtype=complex)
    sm = sp.conj().T
    h = omega0 * np.kron(ID2, ad @ a) + 0.5 * (omega0 + detuning) * np.kron(SZ, np.eye(dim))
    h = h + g * (np.kron(sm, ad) + np.kron(sp, a))
    return h


def dense_reduced(field_amps, rho_q, n_max, omega0, g, t, detuning=0.0):
    """Partial trace of dense eigendecomposition evolution (lab frame)."""
    h = dense_jc_h(n_max, omega0, g, detuning)
    w, v = np.linalg.eigh(h)
    u = (v * np.exp(-1j * w * t)) @ v.conj().T
    amps = np.asarray(field_amps, dtype=complex)
    rho_tot = np.kron(np.asarray(rho_q, dtype=complex), np.outer(amps, amps.conj()))
    rt = u @ rho_tot @ u.conj().T
    dim = n_max + 1
    out = np.empty((2, 2), dtype=complex)
    for qa in range(2):
        for qb in range(2):
            out[qa, qb] = np.trace(rt[qa * dim:(qa + 1) * dim, qb * dim:(qb + 1) * dim])
    return out


def coherent_amps_direct(alpha, n_max):
    """Textbook coherent amplitudes by direct (log-domain) evaluation."""
    n = np.arange(n_max + 1)
    mag2 = abs(alpha) ** 2
    if mag2 == 0.0:
        out = np.zeros(n_max + 1, dtype=complex)
        out[0] = 1.0
        return out
    logmag = -0.5 * mag2 + 0.5 * (n * np.log(mag2) - gammaln(n + 1.0))
    return np.exp(logmag) * np.exp(1j * n * np.angle(alpha))


def windowed_amplitude(times, values, window_t):
    """Sliding max-min amplitude; centers returned with the amplitudes."""
    dt = times[1] - times[0]
    w = max(3, int(round(window_t / dt)))
    from numpy.lib.stride_tricks import sliding_window_view

    sw = sliding_window_view(np.asarray(values, dtype=float), w)
    amp = sw.max(axis=1) - sw.min(axis=1)
    centers = times[: amp.size] + 0.5 * w * dt
    return centers, amp


def first_revival_time(centers, amp, a0, low=0.15, high=0.35):
    """Hysteresis detector: amplitude must fall below low*a0, then the
    first climb back above high*a0 counts as the revival."""
    below = np.flatnonzero(amp < low * a0)
    if below.size == 0:
        return None
    after = np.flatnonzero((centers > centers[below[0]]) & (amp >= high * a0))
    if after.size == 0:
        return None
    return float(centers[after[0]])


def csv_text(header, rows):
    """CSV text the CLI writes for rows: one row at a time, %.15g per cell, LF endings."""
    lines = [header] + [",".join("%.15g" % v for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def whole_lattice_ring(axis, omega0, theta_psi, grid):
    """Ring scan over the whole grid^3 meshgrid at once: points, tau, fisher, delta.

    The scan_ring arithmetic as it stood before the lattice was walked in
    slabs, with its helpers written out: np.cross and a row-wise
    np.linalg.norm for |n x r|, the 1e-12 norm and degeneracy slacks, and
    the array forms of the crossing time and the QFI. axis must be a unit
    vector. Every step is per row, so a slab-wise scan must match it bit
    for bit.
    """
    ticks = np.linspace(-1.0, 1.0, grid)
    gx, gy, gz = np.meshgrid(ticks, ticks, ticks, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])
    inside = np.einsum("ij,ij->i", pts, pts) <= (1.0 + 1e-12) ** 2
    pts = pts[inside]

    s = np.linalg.norm(np.cross(axis, pts), axis=-1)
    sin_ref = float(np.sin(theta_psi))
    keep = (s >= sin_ref - 1e-12) & (s > 1e-12)
    pts, s = pts[keep], s[keep]

    delta = 0.5 * (1.0 - sin_ref)
    tau = np.arcsin(np.minimum((1.0 - 2.0 * delta) / s, 1.0)) / omega0
    return pts, tau, 4.0 * (omega0 * s) ** 2, delta


def scalar_orbit_reference(axis, omega0, r, delta, ml_symmetrized=False):
    """The scalar orbit queries through np.cross and np.clip, as plain formulas.

    axis must be a unit vector. Returns a dict with perp_norm, fisher (the
    float classify reports), qfi (the float qfi returns), tau_exact and
    tau_mt (None where the scalar functions raise), and classify's report
    fields as classify_*: reachable, tau_exact, tau_mt, tau_ml, min_perr.
    Slacks are the package's 1e-12. Roundings are the ones the CLI's
    output was recorded with: a float radius squares through pow, a numpy
    scalar radius through numpy's power.
    """
    n = np.asarray(axis, dtype=float)
    vec = np.asarray(r, dtype=float)
    s_np = np.linalg.norm(np.cross(n, vec))
    s = float(s_np)
    fisher = 4.0 * (omega0 * s) ** 2
    qfi = float(4.0 * (omega0 * s_np) ** 2)
    target = 1.0 - 2.0 * delta
    out = {"perp_norm": s, "fisher": fisher, "qfi": qfi}

    if delta == 0.5:
        out["tau_exact"] = out["tau_mt"] = 0.0
    else:
        reach = s > 1e-12 and target <= s + 1e-12
        out["tau_exact"] = (float(np.arcsin(np.minimum(target / s, 1.0)) / omega0)
                            if reach else None)
        out["tau_mt"] = (float(2.0 * np.arcsin(target) / np.sqrt(qfi))
                         if qfi > (2.0 * omega0 * 1e-12) ** 2 else None)

    reachable = target <= s + 1e-12
    out["classify_reachable"] = bool(reachable)
    out["classify_min_perr"] = max(0.0, 0.5 - 0.5 * s)
    if delta == 0.5:
        out["classify_tau_exact"] = out["classify_tau_mt"] = out["classify_tau_ml"] = 0.0
        return out
    out["classify_tau_exact"] = (
        float(np.arcsin(np.minimum(target / max(s, 1e-300), 1.0)) / omega0) if reachable else None)
    out["classify_tau_mt"] = (float(2.0 * np.arcsin(target) / np.sqrt(fisher))
                              if s > 1e-12 else np.inf)
    c = float(np.dot(n, vec))
    if ml_symmetrized:
        c = abs(c)
    out["classify_tau_ml"] = (
        float(np.pi * (1.0 - np.sqrt(1.0 - target * target)) / (2.0 * omega0 * (c + 1.0)))
        if c + 1.0 > 1e-12 else np.inf)
    return out


def evolve_reference(axis, omega0, r, t):
    """Rotated Bloch vector cos(phi) r - sin(phi) (r x n) + (1 - cos(phi)) (n . r) n."""
    n = np.asarray(axis, dtype=float)
    vec = np.asarray(r, dtype=float)
    phi = 2.0 * omega0 * t
    return (np.cos(phi) * vec - np.sin(phi) * np.cross(vec, n)
            + (1.0 - np.cos(phi)) * np.dot(n, vec) * n)


def p_err_bloch_reference(r1, r2):
    """Helstrom error 1/2 - |r1 - r2| / 4, clipped to [0, 1/2] by np.clip."""
    d = float(np.linalg.norm(np.asarray(r1, dtype=float) - np.asarray(r2, dtype=float)))
    return float(np.clip(0.5 - 0.25 * d, 0.0, 0.5))


def brach_axis_reference(r1, r2):
    """Unit axis r1 x r2 / |r1 x r2| via np.cross, or None when the pair is collinear."""
    cross = np.cross(np.asarray(r1, dtype=float), np.asarray(r2, dtype=float))
    norm = float(np.linalg.norm(cross))
    return cross / norm if norm > 1e-12 else None
